package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// expectation is one //lint:expect marker: analyzer `name` must fire on
// `line` of `file`.
type expectation struct {
	file string
	line int
	name string
}

func (e expectation) String() string {
	return fmt.Sprintf("%s:%d [%s]", filepath.Base(e.file), e.line, e.name)
}

// readExpectations scans a fixture dir for //lint:expect markers. A marker
// may name several analyzers: //lint:expect droppederr typeassert
func readExpectations(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []expectation
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		full := filepath.Join(dir, e.Name())
		f, err := os.Open(full)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			idx := strings.Index(text, "//lint:expect")
			if idx < 0 {
				continue
			}
			names := strings.Fields(text[idx+len("//lint:expect"):])
			if len(names) == 0 {
				t.Fatalf("%s:%d: //lint:expect with no analyzer names", full, line)
			}
			for _, n := range names {
				out = append(out, expectation{file: full, line: line, name: n})
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestFixtures runs the FULL analyzer suite over every fixture directory
// and requires the findings to match the //lint:expect markers exactly.
// *_ok fixtures carry no markers, so they double as negative tests for
// every analyzer at once; nolint_ok's one marker is the misspelled
// directive it exists to show.
func TestFixtures(t *testing.T) {
	root := moduleRoot(t)
	testdata := filepath.Join(root, "internal", "lint", "testdata")
	entries, err := os.ReadDir(testdata)
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(testdata, e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			pkg, err := loader.LoadFixtureDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkg.TypeErrors) != 0 {
				t.Fatalf("fixture must type-check cleanly, got: %v", pkg.TypeErrors)
			}
			want := readExpectations(t, dir)
			got := Run([]*Package{pkg}, All())

			type key struct {
				file string
				line int
				name string
			}
			wantSet := map[key]bool{}
			for _, w := range want {
				wantSet[key{w.file, w.line, w.name}] = true
			}
			gotSet := map[key]bool{}
			for _, d := range got {
				gotSet[key{d.File, d.Line, d.Analyzer}] = true
			}
			var problems []string
			for k := range wantSet {
				if !gotSet[k] {
					problems = append(problems, fmt.Sprintf("missing: %s:%d [%s]", filepath.Base(k.file), k.line, k.name))
				}
			}
			for k := range gotSet {
				if !wantSet[k] {
					problems = append(problems, fmt.Sprintf("unexpected: %s:%d [%s]", filepath.Base(k.file), k.line, k.name))
				}
			}
			if len(problems) > 0 {
				sort.Strings(problems)
				for _, d := range got {
					t.Logf("got: %s", d)
				}
				t.Fatalf("diagnostic mismatch:\n  %s", strings.Join(problems, "\n  "))
			}
		})
	}
}

// TestAnalyzerRoster pins the suite in both directions: every analyzer
// has positive and negative fixtures, and every <name>_ok / <name>_bad
// fixture names an analyzer, so a retired analyzer leaves none behind.
func TestAnalyzerRoster(t *testing.T) {
	all := All()
	if len(all) < 6 {
		t.Fatalf("analyzer suite has %d analyzers, want >= 6", len(all))
	}
	root := moduleRoot(t)
	testdata := filepath.Join(root, "internal", "lint", "testdata")
	known := map[string]bool{
		"nolint":    true, // nolint_ok: the directive's own fixture
		"hotpathcg": true, // hotpathcg_*: the call-graph half of hotpath
	}
	for _, a := range all {
		known[a.Name] = true
		pos := a.Name + "_bad"
		if _, err := os.Stat(filepath.Join(testdata, pos)); err != nil {
			t.Errorf("analyzer %s has no positive fixture %s", a.Name, pos)
		}
		neg := a.Name + "_ok"
		if _, err := os.Stat(filepath.Join(testdata, neg)); err != nil {
			t.Errorf("analyzer %s has no negative fixture %s", a.Name, neg)
		}
	}
	entries, err := os.ReadDir(testdata)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), "_ok")
		if !ok {
			name, ok = strings.CutSuffix(e.Name(), "_bad")
		}
		if ok && !known[name] {
			t.Errorf("fixture %s names no analyzer in All()", e.Name())
		}
	}
}

// TestNolintScopes pins the two //dashdb:nolint scopes directly against
// collectNolint: a directive above the package clause covers the whole
// file (and only the analyzers it names), while a line directive covers
// exactly its line. The nolint_ok fixture exercises both end-to-end;
// this test makes the scope boundaries themselves explicit.
func TestNolintScopes(t *testing.T) {
	root := moduleRoot(t)
	dir := filepath.Join(root, "internal", "lint", "testdata", "nolint_ok")
	pkg, err := NewLoader(root).LoadFixtureDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	set := collectNolint([]*Package{pkg})

	fileScoped := filepath.Join(dir, "filescope.go")
	for _, name := range []string{"droppederr", "typeassert"} {
		if !set.covers(Diagnostic{File: fileScoped, Line: 999, Analyzer: name}) {
			t.Errorf("file-level directive does not suppress %s across the whole file", name)
		}
	}
	if set.covers(Diagnostic{File: fileScoped, Line: 999, Analyzer: "goroutine"}) {
		t.Error("file-level directive suppressed an analyzer it does not name")
	}

	lineScoped := filepath.Join(dir, "fixture.go")
	// Line 14 carries a trailing droppederr directive; neighboring lines
	// must stay unsuppressed.
	if !set.covers(Diagnostic{File: lineScoped, Line: 14, Analyzer: "droppederr"}) {
		t.Error("trailing directive does not suppress its own line")
	}
	for _, line := range []int{13, 17} {
		if set.covers(Diagnostic{File: lineScoped, Line: line, Analyzer: "droppederr"}) {
			t.Errorf("line directive leaked to line %d: line scope must stay line-sized", line)
		}
	}

	// Line 36's directive misspells its analyzer: it is reported and
	// suppresses nothing, not every analyzer.
	for _, name := range []string{"droppederr", "typeassert", "goroutine"} {
		if set.covers(Diagnostic{File: lineScoped, Line: 36, Analyzer: name}) {
			t.Errorf("a directive naming no analyzer suppressed %s", name)
		}
	}
	if len(set.malformed) != 1 || set.malformed[0].Line != 36 || set.malformed[0].Analyzer != "nolint" {
		t.Errorf("malformed directives = %v, want one [nolint] finding at line 36", set.malformed)
	}
}

// TestByName exercises the analyzer-subset flag plumbing.
func TestByName(t *testing.T) {
	got, err := ByName("droppederr, typeassert")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "droppederr" || got[1].Name != "typeassert" {
		t.Fatalf("ByName returned %v", got)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
}
