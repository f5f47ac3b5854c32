package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// LoadFixtureDir loads one directory as the package "fixture/<base>".
// Fixtures live under testdata (invisible to the go tool) and may import
// only the standard library.
func (l *Loader) LoadFixtureDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	return l.check("fixture/"+filepath.Base(dir), dir, files)
}

func moduleRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if filepath.Dir(d) == d {
			t.Fatalf("no go.mod above %s", dir)
		}
	}
}

func TestLoadRepoPackage(t *testing.T) {
	l := NewLoader(moduleRoot(t))
	pkgs, err := l.Load("./internal/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Name != "telemetry" {
		t.Fatalf("package name = %q", p.Name)
	}
	if len(p.TypeErrors) != 0 {
		t.Fatalf("type errors: %v", p.TypeErrors)
	}
	if p.Types == nil || p.Types.Scope().Lookup("ScanStats") == nil {
		t.Fatal("ScanStats not resolved")
	}
}

func TestLoadPatternAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo load in -short mode")
	}
	l := NewLoader(moduleRoot(t))
	pkgs, err := l.Load("./internal/exec", "./internal/vec")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) != 0 {
			t.Fatalf("%s: type errors: %v", p.Path, p.TypeErrors)
		}
	}
}
