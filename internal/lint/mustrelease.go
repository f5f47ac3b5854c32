package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerMustRelease is the dataflow leak checker for the engine's
// acquire/release protocols. An epoch pin that misses its Release on one
// early-error path permanently blocks reclamation for the whole table
// (PR 8's deferred page drain waits on the pin count); a Reservation
// that misses Close leaves its grant charged against the heap broker
// forever, eventually stalling WLM admission; a spill file that misses
// Close survives as an orphan on disk. The protocol table below declares
// each acquire method and its release; the analyzer builds the CFG of
// every function and solves a forward may-analysis: if an acquired value
// can reach function exit unreleased on ANY path, that is a finding.
//
// Ownership transfer is recognized as an escape and ends tracking:
// returning the value, storing it into a struct/slice/map, passing it to
// another call, capturing it in a closure — in all of those the release
// obligation moves with the value. `defer v.Release()` discharges the
// obligation immediately (defer runs on every exit path), and a path
// that ends in panic is exempt (the frame is abandoned deliberately).
var AnalyzerMustRelease = &Analyzer{
	Name:  "mustrelease",
	Doc:   "protocol-acquired values (epoch pins, snapshots, reservations, spill files) must reach their release on every path",
	Match: matchPath("internal/"),
	Run:   runMustRelease,
}

// protoEntry declares one acquire/release protocol: calling
// <recvType>.<acquire> on a receiver declared in a package whose import
// path ends in pkgSuffix yields a value that must have <release> called
// on it (or escape) before function exit.
type protoEntry struct {
	pkgSuffix string
	recvType  string
	acquire   string
	release   string
	what      string
}

// protocols is the declared protocol table. The bufferpool is absent
// deliberately: its Pool hands out copies via Get/Evict and has no pin
// handle to leak. New protocols are one line each.
var protocols = []protoEntry{
	{"internal/snapshot", "Manager", "Pin", "Release", "epoch pin"},
	{"internal/columnar", "Table", "Snapshot", "Release", "table snapshot"},
	{"internal/mem", "Governor", "Acquire", "Close", "heap reservation"},
	{"internal/mem", "Broker", "Reserve", "Close", "heap reservation"},
	{"internal/mem", "Reservation", "NewSpillFile", "Close", "spill file"},
	{"internal/shardrpc", "Pool", "Get", "Release", "pooled shard connection"},
}

// protoFor resolves a method call to its protocol entry: real packages
// by path suffix, fixtures by the "fixture/" prefix so testdata
// stand-ins exercise the same code.
func protoFor(fn *types.Func) *protoEntry {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil
	}
	for i := range protocols {
		p := &protocols[i]
		if fn.Name() != p.acquire || obj.Name() != p.recvType {
			continue
		}
		if strings.HasSuffix(obj.Pkg().Path(), p.pkgSuffix) ||
			strings.HasPrefix(obj.Pkg().Path(), "fixture/") {
			return p
		}
	}
	return nil
}

const mrAcquired uint8 = 1

func runMustRelease(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMustRelease(pass, fd)
		}
	}
}

// acqSite is one tracked acquisition: the assignment statement that
// binds the acquired value to a local variable, plus the error variable
// bound alongside it (NewSpillFile returns (*SpillFile, error) — on the
// path that returns that error, the resource is nil and owes nothing).
type acqSite struct {
	proto  *protoEntry
	obj    types.Object
	errObj types.Object
	pos    token.Pos
}

func checkMustRelease(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info

	// Pre-pass: find every protocol acquire in the body and classify its
	// binding. Only a plain `v := recv.Acquire(...)` (or var decl) starts
	// tracking; a discarded result is reported immediately; any other
	// context (argument, return value, composite literal field, struct
	// field or slice element store) is an ownership transfer at birth
	// and stays out of scope.
	acqByStmt := map[ast.Node][]acqSite{}
	any := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			proto, call := acquireCall(info, n.Rhs[0])
			if proto == nil {
				return true
			}
			obj, errObj, transferred := classifyLHS(info, n.Lhs)
			if transferred {
				return true
			}
			if obj == nil {
				pass.Reportf(call.Pos(),
					"%s from %s.%s is discarded: the result must be released via %s (or bound so a later release can run)",
					proto.what, proto.recvType, proto.acquire, proto.release)
				return true
			}
			acqByStmt[n] = append(acqByStmt[n], acqSite{proto: proto, obj: obj, errObj: errObj, pos: call.Pos()})
			any = true
		case *ast.ExprStmt:
			if proto, call := acquireCall(info, n.X); proto != nil {
				pass.Reportf(call.Pos(),
					"%s from %s.%s is discarded: the result must be released via %s (or bound so a later release can run)",
					proto.what, proto.recvType, proto.acquire, proto.release)
			}
		}
		return true
	})
	if !any {
		return
	}

	// Side tables: what each tracked object is, and which tracked
	// objects an error return absolves.
	whatOf := map[types.Object]*protoEntry{}
	errOf := map[types.Object][]types.Object{}
	for _, sites := range acqByStmt {
		for _, s := range sites {
			whatOf[s.obj] = s.proto
			if s.errObj != nil {
				errOf[s.errObj] = append(errOf[s.errObj], s.obj)
			}
		}
	}

	g := buildCFG(fd.Body)
	transfer := func(b *Block, in dfState) dfState {
		for _, n := range b.Nodes {
			mrTransferNode(info, n, in, acqByStmt, whatOf, errOf)
		}
		return in
	}
	in := solveForward(g, transfer)

	// Anything still acquired in the exit block's fixpoint in-state can
	// reach a return unreleased on some path.
	exit := in[g.Exit]
	var leaks []acqSite
	for k, v := range exit {
		obj, ok := k.(types.Object)
		if !ok || v.bits&mrAcquired == 0 {
			continue
		}
		leaks = append(leaks, acqSite{proto: whatOf[obj], obj: obj, pos: v.pos})
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
	for _, l := range leaks {
		pass.Reportf(l.pos,
			"%s %q may not be released on every path to return: call %s, defer it right after acquiring, or transfer ownership",
			l.proto.what, l.obj.Name(), l.proto.release)
	}
}

// acquireCall matches e against the protocol table, returning the entry
// and the call node when e is a protocol acquire.
func acquireCall(info *types.Info, e ast.Expr) (*protoEntry, *ast.CallExpr) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, nil
	}
	return protoFor(fn), call
}

// classifyLHS decides what an acquire assignment does with the result:
//
//   - any non-identifier target (struct field, slice/map element) means
//     ownership transferred at birth — transferred=true, nothing tracked;
//   - otherwise obj is the local receiving the resource (first plain,
//     non-blank, non-error identifier) and errObj the error bound next
//     to it;
//   - obj == nil with transferred == false means the resource itself was
//     discarded (`_` or only the error bound) — a finding.
func classifyLHS(info *types.Info, lhs []ast.Expr) (obj, errObj types.Object, transferred bool) {
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			return nil, nil, true
		}
		if id.Name == "_" {
			continue
		}
		o := info.Defs[id]
		if o == nil {
			o = info.Uses[id]
		}
		if o == nil {
			continue
		}
		if isErrorType(o.Type()) {
			errObj = o
			continue
		}
		if obj == nil {
			obj = o
		}
	}
	return obj, errObj, false
}

// mrTransferNode applies one CFG node to the tracking state:
//
//   - the acquiring assignment starts tracking its object;
//   - a release-method call on a tracked object discharges it;
//   - every other mention of a tracked object — argument, return value,
//     alias, store, &v, closure capture, defer — ends tracking as an
//     escape (conservative: escapes are never reported);
//   - a plain method call v.M(...) on the tracked object is an allowed
//     use and keeps tracking (SpillFile.Write between open and close);
//   - a return that propagates the acquire's paired error absolves the
//     resource: on that path the acquire failed and the value is nil.
func mrTransferNode(info *types.Info, n ast.Node, s dfState, acqByStmt map[ast.Node][]acqSite, whatOf map[types.Object]*protoEntry, errOf map[types.Object][]types.Object) {
	if sites, ok := acqByStmt[n]; ok {
		for _, site := range sites {
			s[site.obj] = dfVal{bits: mrAcquired, pos: site.pos}
		}
		return
	}

	if ret, ok := n.(*ast.ReturnStmt); ok {
		ast.Inspect(ret, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			if resources, ok := errOf[info.Uses[id]]; ok {
				for _, r := range resources {
					delete(s, r)
				}
			}
			return true
		})
	}

	// benign marks tracked-object idents appearing as plain method-call
	// receivers (not releases, not escapes).
	benign := map[*ast.Ident]bool{}
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		proto, tracked := whatOf[obj]
		if !tracked {
			return true
		}
		if sel.Sel.Name == proto.release {
			delete(s, obj) // released (directly or via defer — both discharge)
			benign[id] = true
			return true
		}
		benign[id] = true // receiver use: allowed, keeps tracking
		return true
	})
	ast.Inspect(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok || benign[id] {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if _, tracked := whatOf[obj]; tracked {
			delete(s, obj) // any other mention: ownership escapes
		}
		return true
	})
}
