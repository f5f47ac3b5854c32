package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerHotPath keeps //dashdb:hotpath kernels allocation-, lock- and
// syscall-free. The annotation marks per-row / per-stride kernels
// (columnar stride decode, SWAR predicate loops, vector kernels, operator
// inner loops): one stray time.Now or fmt.Sprintf there runs millions of
// times per query and dominates the profile. The walk starts with the
// kernel's own body — every banned-stdlib call (the hotpathBanned table,
// matched by package so aliased imports cannot dodge it) and every
// sync.Mutex/RWMutex acquisition is reported where it stands — and then
// follows the whole-program call graph breadth-first: every non-hotpath
// in-module function the kernel reaches is scanned for the same hazards
// (including fmt.Sprintf inside panic guards — never executed, but it
// pushes the helper past the inlining budget so the hot loop pays an
// outlined call per element) and for abort stubs (functions whose body
// begins with panic) called unconditionally. Guarded calls to abort stubs
// are deliberate bounds checks and stay exempt, as does everything inside
// them. Functions annotated //dashdb:coldpath (error constructors,
// one-time setup) are likewise exempt: the annotation is the
// source-visible assertion that the helper only runs off the steady-state
// path.
//
// Reports through helpers are budgeted: at most three paths per kernel,
// each rendered as the call chain from the kernel to the hazard, anchored
// at the kernel's first-hop call site so the fix target is obvious.
var AnalyzerHotPath = &Analyzer{
	Name:   "hotpath",
	Doc:    "//dashdb:hotpath kernels must not allocate, lock, call timers/formatters/reflect, or unconditionally panic, directly or through in-module helpers",
	RunAll: runHotPath,
}

// hotpathBanned maps package path -> banned function names; an empty set
// bans every exported function in the package.
var hotpathBanned = map[string]map[string]bool{
	"time":    {"Now": true, "Since": true, "Until": true},
	"fmt":     {},
	"log":     {},
	"reflect": {},
	"sort":    {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
}

// hotPathBudget caps path reports per kernel so one bad helper used
// everywhere does not drown the rest of the output.
const hotPathBudget = 3

func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func runHotPath(pp *ProgramPass) {
	g := pp.callGraph()
	var roots []*cgNode
	for _, n := range g.nodes {
		if n.hot {
			roots = append(roots, n)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		return roots[i].fn.FullName() < roots[j].fn.FullName()
	})
	for _, root := range roots {
		checkHotRoot(pp, g, root)
	}
}

// bfsItem is one frontier entry: the edge being followed, the call chain
// from the root up to (excluding) the edge's target, and the first-hop
// call site inside the root that every diagnostic anchors on.
type bfsItem struct {
	edge     cgEdge
	path     []string
	firstPos token.Pos
}

func checkHotRoot(pp *ProgramPass, g *callGraph, root *cgNode) {
	for _, h := range root.hazards {
		pp.Reportf(root.pkg, h.pos,
			"hotpath function %s %s: per-row/per-stride loops must stay allocation-, lock- and syscall-free (hoist it out of the kernel or drop the //dashdb:hotpath annotation)",
			funcDisplay(root.fn), h.desc)
	}

	reports := 0
	visited := map[*types.Func]bool{root.fn: true}
	var queue []bfsItem
	for _, e := range root.edges {
		queue = append(queue, bfsItem{edge: e, path: []string{funcDisplay(root.fn)}, firstPos: e.pos})
	}

	for len(queue) > 0 && reports < hotPathBudget {
		item := queue[0]
		queue = queue[1:]
		target := g.node(item.edge.to)
		if target == nil || visited[target.fn] {
			continue // out-of-module (stdlib callees are hazards, not nodes)
		}
		visited[target.fn] = true
		if target.hot {
			continue // annotated kernels are audited as their own roots
		}
		if target.cold {
			// //dashdb:coldpath asserts the function only runs off the
			// steady-state path (error constructors, one-time setup).
			// The annotation is the documented escape hatch: visible in
			// the source, greppable, and cheaper than nolint at every
			// kernel that reaches the helper.
			continue
		}
		chain := append(append([]string{}, item.path...), funcDisplay(target.fn))
		if target.aborts {
			if !item.edge.guarded && reports < hotPathBudget {
				pp.Reportf(root.pkg, item.firstPos,
					"hotpath function %s unconditionally reaches %s, which panics immediately: the kernel can never complete (path %s)",
					funcDisplay(root.fn), funcDisplay(target.fn), renderChain(chain))
				reports++
			}
			continue // abort stubs are off the hot path; nothing inside them counts
		}
		hazards := append([]cgHazard{}, target.hazards...)
		sort.Slice(hazards, func(i, j int) bool { return hazards[i].pos < hazards[j].pos })
		for _, h := range hazards {
			if reports >= hotPathBudget {
				break
			}
			pp.Reportf(root.pkg, item.firstPos,
				"hotpath function %s transitively %s at %s (path %s): hoist the hazard out of the helper or restructure the kernel",
				funcDisplay(root.fn), h.desc, target.pkg.Fset.Position(h.pos), renderChain(chain))
			reports++
		}
		for _, e := range target.edges {
			if !visited[e.to] {
				queue = append(queue, bfsItem{edge: e, path: chain, firstPos: item.firstPos})
			}
		}
	}
}

// funcDisplay renders a function as "pkg.Name" or "pkg.Recv.Name".
func funcDisplay(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// renderChain joins a call chain, eliding the middle beyond six hops.
func renderChain(chain []string) string {
	if len(chain) > 6 {
		head := chain[:3]
		tail := chain[len(chain)-2:]
		elided := fmt.Sprintf("… %d more …", len(chain)-5)
		chain = append(append(append([]string{}, head...), elided), tail...)
	}
	return strings.Join(chain, " -> ")
}
