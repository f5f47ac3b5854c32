package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerDeadCode reports code that nothing reaches. Reachability runs
// over the call graph's refs (every function a body uses, in any
// position) from these roots:
//
//   - main and init of every package;
//   - package-level var initializers (registration tables);
//   - exported functions and methods of non-main packages outside
//     internal/ (the public API: the root dashdb package and driver), and
//     of packages no loaded package imports, so a run over part of the
//     module takes its packages' exported names as given;
//   - methods of in-module types that implement an interface declared
//     outside the module (error, fmt.Stringer, sort.Interface,
//     heap.Interface, io, gob, database/sql/driver, types.ImporterFrom…),
//     which the standard library calls on the module's behalf.
//
// Every unreachable non-test function outside package main is a finding.
// A function kept with //dashdb:nolint deadcode <reason> is a root too,
// so what it calls needs no directive of its own.
// An in-module interface method nothing calls is reported once, at the
// interface, and its implementations fold into that finding. Sum-type
// markers (unexported, empty methods with no parameters or results, such
// as (*sql.Literal).expr) are never called by design and are exempt. When
// _test.go files are loaded (dashdb-lint -tests), functions they declare
// are extra roots for a second pass, and a finding reached only that way
// says "reached only from tests".
var AnalyzerDeadCode = &Analyzer{
	Name:   "deadcode",
	Doc:    "every non-test function outside package main is reachable from a main, init, package var, public API or standard-library interface",
	RunAll: runDeadCode,
}

func runDeadCode(pp *ProgramPass) {
	g := pp.callGraph()
	roots, testRoots := deadCodeRoots(pp.Pkgs, g, pp.Facts.nolint)
	live := reach(g, roots)
	liveTests := reach(g, append(roots, testRoots...))
	why := func(fn *types.Func) string {
		if liveTests[fn] {
			return "reached only from tests"
		}
		return "unreachable from every root (main, init, package var, public API, standard-library interface)"
	}

	// Uncalled interface methods first: each folds its implementations.
	folded := map[*types.Func]bool{}
	for _, pkg := range pp.Pkgs {
		if pkg.Name == "main" {
			continue
		}
		for id, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || isTestPos(pkg, id.Pos()) {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumExplicitMethods(); i++ {
				m := iface.ExplicitMethod(i)
				if live[m] || isMarker(m) {
					continue
				}
				impls := g.impl.targets(m)
				for _, c := range impls {
					folded[c] = true
				}
				pp.Reportf(pkg, m.Pos(), "interface method %s.%s is %s; %d implementation(s) go with it",
					tn.Name(), m.Name(), why(m), len(impls))
			}
		}
	}

	for fn, n := range g.nodes {
		if live[fn] || folded[fn] || n.pkg.Name == "main" || isTestPos(n.pkg, n.decl.Pos()) {
			continue
		}
		if isMarker(fn) && len(n.decl.Body.List) == 0 {
			continue
		}
		pp.Reportf(n.pkg, n.decl.Name.Pos(), "%s is %s: delete it, or keep it with //dashdb:nolint deadcode <reason>",
			funcDisplay(fn), why(fn))
	}
}

// deadCodeRoots returns the program's roots and, separately, the
// functions and var initializers declared in _test.go files.
func deadCodeRoots(pkgs []*Package, g *callGraph, kept nolintSet) (roots, testRoots []*types.Func) {
	add := func(test bool) func(*types.Func) {
		return func(fn *types.Func) {
			if test {
				testRoots = append(testRoots, fn)
			} else {
				roots = append(roots, fn)
			}
		}
	}
	imported := map[string]bool{}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
	}
	for fn, n := range g.nodes {
		test := isTestPos(n.pkg, n.decl.Pos())
		recv := n.decl.Recv != nil
		entryPkg := !isInternal(n.pkg.Path) || !imported[n.pkg.Path]
		public := n.pkg.Name != "main" && entryPkg && fn.Exported()
		entry := !recv && (fn.Name() == "init" || fn.Name() == "main" && n.pkg.Name == "main")
		pos := n.pkg.Fset.Position(n.decl.Name.Pos())
		nolint := kept.covers(Diagnostic{File: pos.Filename, Line: pos.Line, Analyzer: "deadcode"})
		if test || public || entry || nolint {
			add(test)(fn)
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					g.impl.refsIn(pkg.Info, gd, add(isTestPos(pkg, gd.Pos())))
				}
			}
		}
	}
	roots = append(roots, externalInterfaceMethods(pkgs, g.impl)...)
	return roots, testRoots
}

// externalInterfaceMethods returns the in-module methods that implement
// an interface declared in the universe or in a package outside the
// module that some module package imports.
func externalInterfaceMethods(pkgs []*Package, impl *implementerSet) []*types.Func {
	inModule := map[string]bool{}
	for _, pkg := range pkgs {
		inModule[pkg.Path] = true
	}
	ifaces := []*types.Interface{errorIface}
	seen := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			if inModule[imp.Path()] || seen[imp] {
				continue
			}
			seen[imp] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
			}
		}
	}
	// Index the module's types by method name so each interface tests only
	// the types that have its first method.
	byMethod := map[string][]*types.Named{}
	for _, named := range impl.named {
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			name := ms.At(i).Obj().Name()
			byMethod[name] = append(byMethod[name], named)
		}
	}
	var out []*types.Func
	for _, iface := range ifaces {
		for _, named := range byMethod[iface.Method(0).Name()] {
			if !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					out = append(out, fn.Origin())
				}
			}
		}
	}
	return out
}

// reach returns every function the roots reach through refs.
func reach(g *callGraph, roots []*types.Func) map[*types.Func]bool {
	live := map[*types.Func]bool{}
	queue := append([]*types.Func{}, roots...)
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if live[fn] {
			continue
		}
		live[fn] = true
		if n := g.nodes[fn]; n != nil {
			queue = append(queue, n.refs...)
		}
	}
	return live
}

// isMarker reports whether fn is a sum-type marker method: unexported,
// with no parameters and no results.
func isMarker(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	return sig.Recv() != nil && !fn.Exported() && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

func isTestPos(pkg *Package, pos token.Pos) bool {
	return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
}

// isInternal reports whether path has an internal/ element.
func isInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/") || strings.HasSuffix(path, "/internal")
}
