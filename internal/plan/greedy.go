package plan

import (
	"slices"
	"sort"

	"dashdb/internal/encoding"
	"dashdb/internal/exec"
)

// edge is one equi-join key pair between two region leaves, with
// leaf-local column ordinals.
type edge struct {
	a, b   int // leaf indices, a < b
	ac, bc int // column ordinal within each leaf's output
}

// flatten dissolves a tree of inner joins into its region: the leaves in
// written order, the offset of each one's columns in the region's layout
// (every leaf's, in that order), and the conjuncts of each join's Cond
// bound to that layout. Outer joins are leaves; their subtrees lower as
// regions of their own.
func flatten(root *Join) (leaves []Node, bases []int, conds []exec.Expr) {
	var gather func(n Node, base int) int
	gather = func(n Node, base int) int {
		j, ok := n.(*Join)
		if !ok || j.Kind != InnerJoin {
			leaves, bases = append(leaves, n), append(bases, base)
			return n.arity()
		}
		w := gather(j.Left, base)
		w += gather(j.Right, base+w)
		for _, c := range conjuncts(j.Cond) {
			conds = append(conds, exec.Rebind(c, func(col int) int { return col + base }))
		}
		return w
	}
	gather(root, 0)
	return leaves, bases, conds
}

// term is one conjunct over a row made of leaves, whose columns start at
// bases: the leaves it reads, ascending — none when it is stateful or reads
// no column, so it must stay where it was written — and, when it is a
// column = column equality across two leaves, that edge.
type term struct {
	e      exec.Expr
	leaves []int
	edge   *edge
}

// classify is the one rule that splits a join condition, a region's or an
// outer join's (two leaves: its sides).
func classify(exprs []exec.Expr, bases []int) []term {
	out := make([]term, len(exprs))
	for i, e := range exprs {
		t := &out[i]
		t.e = e
		if exec.Stateful(e) {
			continue
		}
		exec.Rebind(e, func(c int) int {
			if l := leafOf(bases, c); !slices.Contains(t.leaves, l) {
				t.leaves = append(t.leaves, l)
			}
			return c
		})
		slices.Sort(t.leaves)
		eq, ok := e.(*exec.CmpExpr)
		if !ok || eq.Op != encoding.OpEQ || len(t.leaves) != 2 {
			continue
		}
		x, xok := eq.L.(exec.ColRef)
		y, yok := eq.R.(exec.ColRef)
		if xok && yok {
			if x > y {
				x, y = y, x
			}
			t.edge = &edge{a: t.leaves[0], ac: int(x) - bases[t.leaves[0]], b: t.leaves[1], bc: int(y) - bases[t.leaves[1]]}
		}
	}
	return out
}

// leafOf is the leaf that holds column col of a row whose leaves' columns
// start at bases: the last to start at or before it.
func leafOf(bases []int, col int) int { return sort.SearchInts(bases, col+1) - 1 }

// conjuncts flattens nested ANDs: the terms a predicate's rows must all
// pass (none for nil).
func conjuncts(e exec.Expr) []exec.Expr {
	if a, ok := e.(*exec.AndExpr); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	if e == nil {
		return nil
	}
	return []exec.Expr{e}
}

// and is the conjunction of terms, nil for none.
func and(terms []exec.Expr) (out exec.Expr) {
	for _, t := range terms {
		if out != nil {
			t = &exec.AndExpr{L: out, R: t}
		}
		out = t
	}
	return out
}

// greedyOrder picks the join order for a region: start from the smallest
// relation, then repeatedly join the connected relation that minimizes
// the estimated intermediate size, falling back to the smallest
// unconnected relation (a forced cross join) only when nothing connects.
// Ties break toward syntactic order, so plans are deterministic.
func greedyOrder(leaves []*leafInfo, edges []edge) []int {
	n := len(leaves)
	order := make([]int, 0, n)
	inSet := make([]bool, n)

	start := 0
	for i := 1; i < n; i++ {
		if leaves[i].est < leaves[start].est {
			start = i
		}
	}
	order = append(order, start)
	inSet[start] = true
	curEst := leaves[start].est

	for len(order) < n {
		best := -1
		bestEst := 0.0
		bestConnected := false
		for cand := 0; cand < n; cand++ {
			if inSet[cand] {
				continue
			}
			keys := joining(edges, inSet, cand)
			connected := len(keys) > 0
			est := joinEst(curEst, leaves, cand, keys)
			if best < 0 ||
				(connected && !bestConnected) ||
				(connected == bestConnected && est < bestEst) {
				best, bestEst, bestConnected = cand, est, connected
			}
		}
		order = append(order, best)
		inSet[best] = true
		curEst = bestEst
	}
	return order
}

// joining returns the edges between the joined set and leaf cand, each
// turned so its b end is cand.
func joining(edges []edge, inSet []bool, cand int) (keys []edge) {
	for _, e := range edges {
		if e.a == cand {
			e = edge{a: e.b, ac: e.bc, b: e.a, bc: e.ac}
		}
		if e.b == cand && inSet[e.a] {
			keys = append(keys, e)
		}
	}
	return keys
}
