package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Whole-program static call graph over the loaded module packages. The
// hotpathcg analyzer needs transitivity that per-package AST matching
// cannot give: a //dashdb:hotpath kernel is only as allocation-free as
// everything it calls, and the kernels lean on helpers in internal/vec,
// internal/bitpack and internal/encoding that the local hotpath analyzer
// never looks inside. The Loader checks every module package in one type
// universe, so a *types.Func is the same object in its own package and in
// every caller's, and nodes are keyed by it. Edges come from go/types
// call resolution; calls through an interface method are widened to
// every in-module named type that implements the interface (sound for
// the module, which is the scope lint guards). Generic instantiations are
// canonicalized with types.Func.Origin so one node represents all
// instantiations.
//
// Each node carries two edge lists. edges are the calls the body makes on
// its own path (what hotpathcg follows); refs are every function the body
// uses in any position, closures included (what deadcode follows).

// cgHazard is one hot-path hazard found directly inside a function body:
// a banned-stdlib call (the hotpathBanned table — allocating formatters,
// timer syscalls, reflection) or a sync.Mutex/RWMutex lock acquisition.
// A banned call counts even inside a panic guard: fmt.Sprintf on an
// abort path never runs, but its presence pushes the function past the
// compiler's inlining budget, so the hot loop pays an outlined call per
// element anyway.
type cgHazard struct {
	pos  token.Pos
	desc string
}

// cgEdge is one call site: callee plus where and how it is called.
// guarded means the call sits under some conditional (if/switch/select/
// loop), which matters only for abort stubs: a guarded call to a
// panics-immediately helper is a deliberate bounds check, an unguarded
// one means the "hot" path can never complete.
type cgEdge struct {
	to      *types.Func
	pos     token.Pos
	guarded bool
}

// cgNode is one function in the call graph.
type cgNode struct {
	fn      *types.Func
	pkg     *Package
	decl    *ast.FuncDecl
	hot     bool // carries //dashdb:hotpath
	cold    bool // carries //dashdb:coldpath: declared off the steady-state path
	aborts  bool // body starts with panic: an abort/unimplemented stub
	edges   []cgEdge
	refs    []*types.Func // every function used: calls, method values, callbacks, closures
	hazards []cgHazard
}

type callGraph struct {
	nodes map[*types.Func]*cgNode
	impl  *implementerSet
}

// node returns the graph node for fn (nil for out-of-module functions).
func (g *callGraph) node(fn *types.Func) *cgNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// buildCallGraph constructs the graph over every loaded package.
func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{nodes: map[*types.Func]*cgNode{}}

	// Pass 1: one node per function declaration with a body.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				aborts := false
				if len(fd.Body.List) > 0 {
					if es, ok := fd.Body.List[0].(*ast.ExprStmt); ok && isPanicCall(es.X) {
						aborts = true
					}
				}
				g.nodes[fn.Origin()] = &cgNode{
					fn:     fn.Origin(),
					pkg:    pkg,
					decl:   fd,
					hot:    hasDirective(fd.Doc, "hotpath"),
					cold:   hasDirective(fd.Doc, "coldpath"),
					aborts: aborts,
				}
			}
		}
	}

	g.impl = collectImplementers(pkgs)

	// Pass 2: edges, refs and direct hazards.
	for _, n := range g.nodes {
		cw := &callWalker{node: n, impl: g.impl, edges: map[*types.Func]cgEdge{}}
		cw.stmts(n.decl.Body.List, false)
		n.edges = make([]cgEdge, 0, len(cw.edges))
		for _, e := range cw.edges {
			n.edges = append(n.edges, e)
		}
		sort.Slice(n.edges, func(i, j int) bool {
			return n.edges[i].to.FullName() < n.edges[j].to.FullName()
		})
		g.impl.refsIn(n.pkg.Info, n.decl.Body, func(fn *types.Func) { n.refs = append(n.refs, fn) })
	}
	return g
}

// implementerSet indexes in-module named types for interface widening.
type implementerSet struct {
	named    []*types.Named
	dispatch map[*types.Func][]*types.Func // interface method -> widen result
}

// collectImplementers gathers every named (non-interface) type declared
// in the loaded packages.
func collectImplementers(pkgs []*Package) *implementerSet {
	s := &implementerSet{dispatch: map[*types.Func][]*types.Func{}}
	seen := map[*types.TypeName]bool{}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || seen[tn] {
				continue
			}
			seen[tn] = true
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			s.named = append(s.named, named)
		}
	}
	return s
}

// targets returns the concrete in-module methods a call of interface
// method fn can dispatch to, or nil when fn is not an interface method.
func (s *implementerSet) targets(fn *types.Func) []*types.Func {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	if out, ok := s.dispatch[fn]; ok {
		return out
	}
	out := []*types.Func{}
	for _, named := range s.named {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, fn.Pkg(), fn.Name())
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m.Origin())
		}
	}
	s.dispatch[fn] = out
	return out
}

// refsIn calls add for every function node uses, in any position and
// inside function literals too. An interface method counts as itself and
// as every in-module method it can dispatch to.
func (s *implementerSet) refsIn(info *types.Info, node ast.Node, add func(*types.Func)) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := info.Uses[id].(*types.Func); ok {
			add(fn.Origin())
			for _, m := range s.targets(fn) {
				add(m)
			}
		}
		return true
	})
}

// callWalker records call edges and direct hazards for one function
// body, tracking whether each call site sits under a conditional.
// Function literals are skipped: a closure is not executed by defining
// it, and goroutine bodies run off the caller's hot path — attributing
// their calls to the enclosing kernel would make every parallel driver a
// false positive.
type callWalker struct {
	node  *cgNode
	impl  *implementerSet
	edges map[*types.Func]cgEdge
}

func (w *callWalker) stmts(list []ast.Stmt, guarded bool) {
	for _, s := range list {
		w.stmt(s, guarded)
	}
}

func (w *callWalker) stmt(s ast.Stmt, guarded bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmts(s.List, guarded)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, guarded)
		}
		w.expr(s.Cond, guarded)
		w.stmts(s.Body.List, true)
		if s.Else != nil {
			w.stmt(s.Else, true)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, guarded)
		}
		if s.Cond != nil {
			w.expr(s.Cond, true)
		}
		if s.Post != nil {
			w.stmt(s.Post, true)
		}
		w.stmts(s.Body.List, true)
	case *ast.RangeStmt:
		w.expr(s.X, guarded)
		w.stmts(s.Body.List, true)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, guarded)
		}
		if s.Tag != nil {
			w.expr(s.Tag, guarded)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.expr(e, true)
			}
			w.stmts(cc.Body, true)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, guarded)
		}
		w.stmt(s.Assign, guarded)
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, true)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				w.stmt(cc.Comm, true)
			}
			w.stmts(cc.Body, true)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, guarded)
	case *ast.ExprStmt:
		w.expr(s.X, guarded)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, guarded)
		}
		for _, e := range s.Lhs {
			w.expr(e, guarded)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, guarded)
		}
	case *ast.DeferStmt:
		// Deferred calls run at return, off the per-element loop; the
		// call expression's arguments still evaluate here.
		for _, a := range s.Call.Args {
			w.expr(a, guarded)
		}
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			w.expr(a, guarded)
		}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt, *ast.BranchStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(*ast.CallExpr); ok {
				w.call(e, guarded)
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			return true
		})
	}
}

// expr scans one expression subtree for calls at the given guardedness.
func (w *callWalker) expr(e ast.Expr, guarded bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.call(call, guarded)
			// Arguments are visited by the same Inspect walk.
		}
		return true
	})
}

// call resolves one call expression into an edge and/or hazard.
func (w *callWalker) call(call *ast.CallExpr, guarded bool) {
	info := w.node.pkg.Info
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			w.addEdge(fn.Origin(), call.Pos(), guarded)
		}
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return
		}
		if h := bannedCallHazard(call, fn); h != nil {
			w.node.hazards = append(w.node.hazards, *h)
		}
		if h := lockHazard(call, fun, fn, info); h != nil {
			w.node.hazards = append(w.node.hazards, *h)
		}
		if ms := w.impl.targets(fn); ms != nil {
			for _, m := range ms {
				w.addEdge(m, call.Pos(), guarded)
			}
			return
		}
		w.addEdge(fn.Origin(), call.Pos(), guarded)
	}
}

// addEdge records a call edge, preferring an unguarded site when the
// same callee is reached both ways.
func (w *callWalker) addEdge(fn *types.Func, pos token.Pos, guarded bool) {
	if fn == nil {
		return
	}
	old, ok := w.edges[fn]
	if !ok || (old.guarded && !guarded) {
		w.edges[fn] = cgEdge{to: fn, pos: pos, guarded: guarded}
	}
}

// bannedCallHazard classifies calls into the hotpathBanned table
// (shared with the local hotpath analyzer, so the two stay consistent).
func bannedCallHazard(call *ast.CallExpr, fn *types.Func) *cgHazard {
	if fn.Pkg() == nil {
		return nil
	}
	banned, ok := hotpathBanned[fn.Pkg().Path()]
	if !ok {
		return nil
	}
	if len(banned) != 0 && !banned[fn.Name()] {
		return nil
	}
	return &cgHazard{
		pos:  call.Pos(),
		desc: fmt.Sprintf("calls %s.%s (allocates, and defeats inlining even on a panic-only path)", fn.Pkg().Name(), fn.Name()),
	}
}

// lockHazard classifies sync.Mutex / sync.RWMutex acquisitions.
func lockHazard(call *ast.CallExpr, sel *ast.SelectorExpr, fn *types.Func, info *types.Info) *cgHazard {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
	default:
		return nil
	}
	recv := deref(info.TypeOf(sel.X))
	name := typeName(recv)
	if name != "sync.Mutex" && name != "sync.RWMutex" {
		return nil
	}
	return &cgHazard{
		pos:  call.Pos(),
		desc: fmt.Sprintf("acquires %s via %s", name, fn.Name()),
	}
}
