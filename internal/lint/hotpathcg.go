package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerHotPathCG extends the local hotpath analyzer with call-graph
// transitivity: a //dashdb:hotpath kernel must not reach allocating,
// locking, or unconditionally-panicking code through the in-module
// helpers it calls, however deep. The local analyzer already bans direct
// calls into the hotpathBanned table, so this one starts at the kernel's
// callees: every non-hotpath in-module function reachable from a kernel
// is scanned for banned stdlib calls (including fmt.Sprintf inside panic
// guards — never executed, but it pushes the helper past the inlining
// budget so the hot loop pays an outlined call per element), for
// sync.Mutex/RWMutex acquisition, and for abort stubs (functions whose
// body begins with panic) called unconditionally. Guarded calls to abort
// stubs are deliberate bounds checks and stay exempt, as does everything
// inside them. Functions annotated //dashdb:coldpath (error
// constructors, one-time setup) are likewise exempt: the annotation is
// the source-visible assertion that the helper only runs off the
// steady-state path.
//
// Reports are budgeted: at most three paths per kernel, each rendered as
// the call chain from the kernel to the hazard, anchored at the kernel's
// first-hop call site so the fix target is obvious.
var AnalyzerHotPathCG = &Analyzer{
	Name:    "hotpathcg",
	Doc:     "//dashdb:hotpath kernels must not transitively reach allocating/locking/panicking in-module code",
	Collect: collectHotPath,
	RunAll:  runHotPathCG,
}

// hotPathCGBudget caps path reports per kernel so one bad helper used
// everywhere does not drown the rest of the output.
const hotPathCGBudget = 3

func runHotPathCG(pp *ProgramPass) {
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
	reports := 0
	visited := map[*types.Func]bool{root.fn: true}
	var queue []bfsItem
	for _, e := range root.edges {
		queue = append(queue, bfsItem{edge: e, path: []string{funcDisplay(root.fn)}, firstPos: e.pos})
	}

	for len(queue) > 0 && reports < hotPathCGBudget {
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
			if !item.edge.guarded && reports < hotPathCGBudget {
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
			if reports >= hotPathCGBudget {
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
