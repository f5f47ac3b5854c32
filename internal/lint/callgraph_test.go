package lint

import (
	"go/types"
	"testing"
)

// TestCallGraphCrossesPackages holds the loader to one type universe over
// the real module: a call into another module package must land on that
// package's own node, and an interface call made outside the interface's
// package must widen to its implementers there. With each package's
// imports read from export data instead, every such callee is a second
// *types.Func that matches no node.
func TestCallGraphCrossesPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	pkgs, err := NewLoader(moduleRoot(t)).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	g := buildCallGraph(pkgs)

	const exec = "dashdb/internal/exec"
	kernelEdges := 0
	for fn, n := range g.nodes {
		if !n.hot || fn.Pkg().Path() != exec {
			continue
		}
		for _, e := range n.edges {
			if p := e.to.Pkg().Path(); (p == "dashdb/internal/vec" || p == "dashdb/internal/bitpack") && g.node(e.to) != nil {
				kernelEdges++
			}
		}
	}
	if kernelEdges == 0 {
		t.Error("no exec hotpath kernel has an edge to a vec or bitpack function that resolves to its node")
	}

	var sortNext *types.Func
	for _, pkg := range pkgs {
		if pkg.Path != exec {
			continue
		}
		sortOp := pkg.Types.Scope().Lookup("SortOp").Type()
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(sortOp), true, pkg.Types, "Next")
		sortNext, _ = obj.(*types.Func)
	}
	if g.node(sortNext) == nil {
		t.Fatal("(*exec.SortOp).Next has no node")
	}
	var caller string
	for fn, n := range g.nodes {
		if fn.Pkg().Path() == exec {
			continue
		}
		for _, e := range n.edges {
			if e.to == sortNext {
				caller = funcDisplay(fn)
			}
		}
	}
	if caller == "" {
		t.Error("no call of exec.Operator.Next outside exec widens to (*exec.SortOp).Next")
	}
}
