package dashdb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// citedTest is a Test, Benchmark or Fuzz name inside a backticked span of
// Markdown; a trailing * or [ makes it a prefix.
var citedTest = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*)([*\[]?)`)

// fence is a line that opens or closes a fenced code block, and span a
// backticked span once each fence is one backtick.
var (
	fence = regexp.MustCompile("(?m)^\\s*```.*$")
	span  = regexp.MustCompile("`[^`]+`")
)

// staleCitations lists what the backticked spans of doc, fenced blocks
// included, cite that no name in declared is, or with a prefix, begins.
func staleCitations(doc string, declared []string) (stale []string) {
	doc = fence.ReplaceAllLiteralString(doc, "`")
	for _, sp := range span.FindAllString(doc, -1) {
		for _, m := range citedTest.FindAllStringSubmatch(sp, -1) {
			if !slices.ContainsFunc(declared, func(d string) bool { return d == m[1] || m[2] != "" && strings.HasPrefix(d, m[1]) }) {
				stale = append(stale, m[0])
			}
		}
	}
	return stale
}

// testFuncs is every top-level function a _test.go file of the module
// declares.
func testFuncs(t *testing.T) []string {
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDocsCiteDeclaredTests: every Test, Benchmark and Fuzz name README.md
// and DESIGN.md cite in backticks is declared by a _test.go file of the
// module, so a renamed or deleted test leaves no citation behind.
// ROADMAP.md is not checked: it cites tests still planned.
func TestDocsCiteDeclaredTests(t *testing.T) {
	declared := testFuncs(t)
	planted := "see `TestNoSuchThing`, TestOutsideSpans,\n```sh\ngo test -run 'TestDocsCiteDeclaredTests|BenchmarkNoSuch*'\n```\nand `FuzzNo[`"
	if got := staleCitations(planted, declared); !slices.Equal(got, []string{"TestNoSuchThing", "BenchmarkNoSuch*", "FuzzNo["}) {
		t.Fatalf("the matcher found %q in a planted text", got)
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if stale := staleCitations(string(b), declared); len(stale) > 0 {
			t.Errorf("%s cites tests no _test.go declares: %q", doc, stale)
		}
	}
}
