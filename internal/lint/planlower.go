package lint

import (
	"go/ast"
	gotypes "go/types"
	"strings"
)

// AnalyzerPlanLower enforces the logical-plan layering invariant: the
// physical join operator (exec.HashJoinOp; any exec *JoinOp) is constructed
// only by the lowering pass in internal/plan — which owns join ordering,
// build/probe side selection, and the column-order restore projection —
// and by internal/exec itself. A composite literal elsewhere silently
// bypasses those passes: the join still returns correct rows, which is
// exactly why only a linter catches it. Library callers that assemble
// executor trees directly (workload simulators, benchmarks) go through
// plan.HashJoin instead.
//
// On the statement path (internal/sql, core, mpp, shardrpc) the same holds
// for exec.GroupByOp: a SELECT block is one plan tree, and plan.Aggregate's
// lowering is where the group-by gets its governor and its dop. Library
// callers keep building group-bys directly.
var AnalyzerPlanLower = &Analyzer{
	Name: "planlower",
	Doc:  "exec join operators (and, on the statement path, exec.GroupByOp) are constructed only in internal/plan and internal/exec; use plan.Lower or the plan constructors elsewhere",
	Match: func(path string) bool {
		if strings.HasPrefix(path, "fixture/") {
			return true
		}
		// The lowering pass and the executor itself are the sanctioned
		// construction sites.
		if strings.Contains(path, "internal/plan") || strings.Contains(path, "internal/exec") {
			return false
		}
		return true
	},
	Run: runPlanLower,
}

// statementPath matches the packages a SQL statement compiles and runs in.
var statementPath = matchPath("internal/sql", "internal/core", "internal/mpp", "internal/shardrpc")

// loweredOpName returns the name of t when it is an operator type from the
// executor package (or a fixture's local stand-in) that only lowering may
// construct: a *JoinOp anywhere, GroupByOp when groupBy is set.
func loweredOpName(t gotypes.Type, groupBy bool) string {
	if p, ok := t.(*gotypes.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*gotypes.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	name, path := named.Obj().Name(), named.Obj().Pkg().Path()
	if !strings.HasSuffix(path, "internal/exec") && !strings.HasPrefix(path, "fixture/") {
		return ""
	}
	if strings.HasSuffix(name, "JoinOp") || (groupBy && name == "GroupByOp") {
		return name
	}
	return ""
}

func runPlanLower(pass *Pass) {
	info := pass.Pkg.Info
	groupBy := statementPath(pass.Pkg.Path)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := info.TypeOf(cl)
			if t == nil {
				return true
			}
			if name := loweredOpName(t, groupBy); name != "" {
				pass.Reportf(cl.Pos(),
					"%s constructed outside the physical-lowering package: route through plan.Lower (SQL) or plan.HashJoin (library callers) so join ordering, build-side selection and dop placement apply",
					name)
			}
			return true
		})
	}
}
