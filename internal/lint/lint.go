// Package lint is dashDB Local's project-specific static-analysis suite.
//
// The engine's correctness rests on invariants that neither the compiler
// nor `go vet` can see: hot per-stride kernels must not allocate, lock or
// format, acquired pins and reservations must reach their release on
// every path, executor temp files must come from the memory governor,
// and nothing outside a main or the public API may be unreachable. This
// package turns each such rule into an Analyzer that walks the typed AST
// of every package in the repository and reports file:line diagnostics,
// so `scripts/verify.sh` can enforce them mechanically (paper §II.A: the
// system polices its own configuration instead of relying on expert
// operators). A rule the language or `go vet` can hold is held there
// instead: statement-scoped snapshot reads by columnar.Table's API, and
// uncopyable counter shards by vet's copylocks.
//
// The suite is deliberately stdlib-only — go/ast, go/parser, go/types, and
// export data obtained from `go list -export` — so it adds no module
// dependencies and can run anywhere the toolchain runs.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: an invariant violation at a concrete position.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Facts is whole-program state the RunAll analyzers share instead of
// re-walking the program.
type Facts struct {
	graph  *callGraph // built by the first RunAll analyzer that asks
	nolint nolintSet  // the //dashdb:nolint directives of every package
}

// Pass carries everything one analyzer needs to examine one package.
type Pass struct {
	Pkg *Package

	analyzer string
	sink     *[]Diagnostic
}

// Reportf records a diagnostic at pos. Suppression via //dashdb:nolint is
// applied later, centrally, so analyzers never need to think about it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string // short id used in diagnostics and //dashdb:nolint
	Doc  string // one-line description of the invariant

	// Match reports whether the analyzer applies to a package import
	// path. Nil means "every package". Fixture packages loaded by the
	// test harness get paths under "fixture/", which Match
	// implementations are expected to accept (matchPath does).
	Match func(pkgPath string) bool

	// Run performs the per-package analysis. Nil for whole-program
	// analyzers that only implement RunAll.
	Run func(pass *Pass)

	// RunAll, if set, runs once over the whole loaded program after every
	// per-package Run. Analyzers that need cross-package reachability
	// (hotpath, deadcode) implement this instead of Run.
	RunAll func(pass *ProgramPass)
}

// ProgramPass is the whole-program analogue of Pass: one invocation sees
// every loaded package, so analyzers can build call graphs that cross
// package boundaries.
type ProgramPass struct {
	Pkgs  []*Package
	Facts *Facts

	analyzer string
	sink     *[]Diagnostic
}

// callGraph returns the whole-program call graph, built once per Run.
func (p *ProgramPass) callGraph() *callGraph {
	if p.Facts.graph == nil {
		p.Facts.graph = buildCallGraph(p.Pkgs)
	}
	return p.Facts.graph
}

// Reportf records a diagnostic at pos, resolved through pkg's FileSet.
func (p *ProgramPass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	position := pkg.Fset.Position(pos)
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// matchPath is the standard Match helper: true when any needle occurs in
// path, or when the package is a test fixture (path under "fixture/").
func matchPath(needles ...string) func(string) bool {
	return func(path string) bool {
		if strings.HasPrefix(path, "fixture/") {
			return true
		}
		for _, n := range needles {
			if strings.Contains(path, n) {
				return true
			}
		}
		return false
	}
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerHotPath,
		AnalyzerTypeAssert,
		AnalyzerDroppedErr,
		AnalyzerGoroutine,
		AnalyzerSpillFile,
		AnalyzerLateMat,
		AnalyzerPlanLower,
		AnalyzerMustRelease,
		AnalyzerLockPair,
		AnalyzerDeadCode,
	}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over the packages and returns surviving
// diagnostics sorted by position. //dashdb:nolint suppression and
// deduplication happen here.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := &Facts{nolint: collectNolint(pkgs)}
	diags := facts.nolint.malformed
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		for _, pkg := range pkgs {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			a.Run(&Pass{Pkg: pkg, analyzer: a.Name, sink: &diags})
		}
	}
	for _, a := range analyzers {
		if a.RunAll == nil {
			continue
		}
		a.RunAll(&ProgramPass{Pkgs: pkgs, Facts: facts, analyzer: a.Name, sink: &diags})
	}

	var out []Diagnostic
	seen := map[string]bool{}
	for _, d := range diags {
		if facts.nolint.covers(d) {
			continue
		}
		key := fmt.Sprintf("%s:%d:%d:%s:%s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// nolintSet records //dashdb:nolint suppression at two scopes: per line
// (directive on or before the offending line) and per file (directive
// above the package clause). A directive that names no analyzer
// suppresses nothing and is itself a finding, kept in malformed.
type nolintSet struct {
	byLine    map[string]map[int]map[string]bool
	byFile    map[string]map[string]bool
	malformed []Diagnostic
}

func (s nolintSet) covers(d Diagnostic) bool {
	if s.byFile[d.File][d.Analyzer] {
		return true
	}
	byLine, ok := s.byLine[d.File]
	if !ok {
		return false
	}
	names, ok := byLine[d.Line]
	if !ok {
		return false
	}
	return names[d.Analyzer]
}

// collectNolint gathers //dashdb:nolint directives. A directive trailing a
// statement suppresses its own line; a directive on a line of its own
// suppresses the next line; a directive above the package clause
// suppresses the named analyzers for the entire file. The directive takes
// a space-separated list of analyzer names, e.g.
//
//	_ = w.Close() //dashdb:nolint droppederr best-effort cleanup
//
// Words after the first non-analyzer token are treated as justification.
// A directive whose first word names no analyzer — a typo, or an
// analyzer since retired — is reported under the name "nolint" rather
// than read as "every analyzer".
func collectNolint(pkgs []*Package) nolintSet {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	set := nolintSet{
		byLine: map[string]map[int]map[string]bool{},
		byFile: map[string]map[string]bool{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//dashdb:nolint")
					if !ok {
						continue
					}
					names := map[string]bool{}
					for _, w := range strings.Fields(text) {
						if !known[w] {
							break // rest is justification prose
						}
						names[w] = true
					}
					pos := pkg.Fset.Position(c.Slash)
					if len(names) == 0 {
						set.malformed = append(set.malformed, Diagnostic{
							Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Analyzer: "nolint",
							Message:  "//dashdb:nolint must start with an analyzer name (dashdb-lint -list): this directive suppresses nothing",
						})
						continue
					}
					if c.Slash < f.Package {
						// Above the package clause: whole-file scope.
						byFile := set.byFile[pos.Filename]
						if byFile == nil {
							byFile = map[string]bool{}
							set.byFile[pos.Filename] = byFile
						}
						for n := range names {
							byFile[n] = true
						}
						continue
					}
					byLine := set.byLine[pos.Filename]
					if byLine == nil {
						byLine = map[int]map[string]bool{}
						set.byLine[pos.Filename] = byLine
					}
					line := pos.Line
					if pos.Column == 1 || onOwnLine(pkg.Fset, f, c) {
						line++ // directive on its own line guards the next one
					}
					merge(byLine, line, names)
				}
			}
		}
	}
	return set
}

func merge(byLine map[int]map[string]bool, line int, names map[string]bool) {
	dst := byLine[line]
	if dst == nil {
		dst = map[string]bool{}
		byLine[line] = dst
	}
	for n := range names {
		dst[n] = true
	}
}

// onOwnLine reports whether comment c shares its line with no code token.
func onOwnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Slash).Line
	shares := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || shares {
			return false
		}
		if n.Pos().IsValid() && fset.Position(n.Pos()).Line == line {
			if _, isFile := n.(*ast.File); !isFile {
				shares = true
				return false
			}
		}
		// Keep descending only while the node's span could cover the line.
		return fset.Position(n.Pos()).Line <= line && line <= fset.Position(n.End()).Line
	})
	return !shares
}

// hasDirective reports whether a doc comment group carries the given
// //dashdb:<name> directive (e.g. "hotpath", "coldpath").
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	want := "//dashdb:" + name
	for _, c := range doc.List {
		if t := strings.TrimSpace(c.Text); t == want || strings.HasPrefix(t, want+" ") {
			return true
		}
	}
	return false
}

// typeName returns "<pkg path>.<name>" for a named type, or "".
func typeName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// deref unwraps one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isErrorType reports whether t is (or trivially implements) error.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if types.Identical(t, types.Universe.Lookup("error").Type()) {
		return true
	}
	return types.Implements(t, errorIface)
}
