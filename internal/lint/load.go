package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one loaded, parsed, type-checked package.
type Package struct {
	Path  string // import path ("fixture/<name>" for test fixtures)
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors holds non-fatal type-check problems. Analyzers still run
	// (with partial info) so one broken file does not hide every finding.
	TypeErrors []error
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Loader turns package patterns into typed Packages using only the standard
// library. The module's packages are parsed and type-checked from source
// so analyzers get full *types.Info for their own files, and the Loader is
// its own importer: an import of a package it has already checked returns
// that *types.Package, so the whole module shares one type universe and
// one *types.Func per function. Only packages it does not check (the
// standard library) come from `go list -export` data.
type Loader struct {
	// ModuleDir is the directory `go list` runs in (the module root).
	ModuleDir string
	// IncludeTests additionally parses in-package _test.go files.
	IncludeTests bool

	fset *token.FileSet

	mu      sync.Mutex
	exports map[string]string  // import path -> export data file
	imp     types.ImporterFrom // export data, for packages not checked here

	checked map[string]*Package       // import path -> package checked from source
	pending map[string]*listedPackage // module packages of the running Load not checked yet
}

// NewLoader returns a Loader rooted at moduleDir.
func NewLoader(moduleDir string) *Loader {
	l := &Loader{
		ModuleDir: moduleDir,
		fset:      token.NewFileSet(),
		exports:   map[string]string{},
		checked:   map[string]*Package{},
	}
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookup).(types.ImporterFrom)
	return l
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: a package checked from source
// is returned as is. A module package not checked yet (an in-package test
// may import one that `go list -deps` orders after it) is checked first.
// Anything else comes from export data.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := l.checked[path]; p != nil {
		return p.Types, nil
	}
	if t := l.pending[path]; t != nil {
		p, err := l.checkTarget(t)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.imp.ImportFrom(path, dir, mode)
}

// lookup feeds gcimporter the export data for one import path, resolving
// through the `go list -export` results and falling back to a one-off
// `go list` for paths discovered late (e.g. stdlib imports of fixtures).
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		out, err := l.goList("-export", "-f", "{{.Export}}", path)
		if err != nil {
			return nil, fmt.Errorf("lint: no export data for %q: %v", path, err)
		}
		file = strings.TrimSpace(string(out))
		if file == "" {
			return nil, fmt.Errorf("lint: empty export data path for %q", path)
		}
		l.mu.Lock()
		l.exports[path] = file
		l.mu.Unlock()
	}
	return os.Open(file)
}

func (l *Loader) goList(args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = l.ModuleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("go list %s: %s", strings.Join(args, " "), msg)
	}
	return out, nil
}

// Load expands patterns (e.g. "./...") and returns the matched packages,
// parsed and type-checked in dependency order with their module
// dependencies, so each one imports the checked packages it depends on.
// The standard library is export data.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	args := append([]string{"-deps", "-export", "-json"}, patterns...)
	out, err := l.goList(args...)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listed []*listedPackage // module packages, dependencies first
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Export != "" {
			l.mu.Lock()
			l.exports[p.ImportPath] = p.Export
			l.mu.Unlock()
		}
		if p.Standard {
			continue
		}
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		cp := p
		listed = append(listed, &cp)
	}
	// Every module package is checked from source, the targets' module
	// dependencies too: a dependency read from export data would bring a
	// second copy of each package it imports.
	l.pending = map[string]*listedPackage{}
	for _, t := range listed {
		l.pending[t.ImportPath] = t
	}
	var pkgs []*Package
	for _, t := range listed {
		pkg := l.checked[t.ImportPath]
		if pkg == nil {
			if pkg, err = l.checkTarget(t); err != nil {
				return nil, err
			}
		}
		if !t.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// checkTarget checks one listed package, plus its in-package tests when it
// is a target and IncludeTests is set. It leaves pending first, so an
// import cycle that only tests close falls back to export data instead of
// recursing.
func (l *Loader) checkTarget(t *listedPackage) (*Package, error) {
	delete(l.pending, t.ImportPath)
	files := t.GoFiles
	if l.IncludeTests && !t.DepOnly {
		files = append(append([]string{}, files...), testFilesIn(t.Dir, t.Name)...)
	}
	return l.check(t.ImportPath, t.Dir, files)
}

// testFilesIn lists in-package _test.go files (external _test packages are
// skipped: they are their own compilation unit).
func testFilesIn(dir, pkgName string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		src, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.PackageClauseOnly)
		if err != nil || src.Name.Name != pkgName {
			continue
		}
		out = append(out, name)
	}
	return out
}

func (l *Loader) check(importPath, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %v", full, err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	if len(files) > 0 {
		pkg.Name = files[0].Name.Name
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(importPath, l.fset, files, pkg.Info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("lint: type-check %s: %v", importPath, err)
	}
	pkg.Types = tpkg
	l.checked[importPath] = pkg
	return pkg, nil
}
