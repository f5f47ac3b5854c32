package plan

import (
	"math"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/exec"
	"dashdb/internal/mem"
	"dashdb/internal/types"
)

// Lower runs the optimizer passes and produces the physical operator
// tree for a logical plan.
func Lower(n Node, opts Options) exec.Operator {
	op, _ := lower(n, opts)
	return op
}

// lower returns the physical operator and the node's estimated output
// cardinality.
func lower(n Node, opts Options) (exec.Operator, float64) {
	switch t := n.(type) {
	case *Input:
		l := analyzeLeaf(t.Op, 0)
		return t.Op, l.est
	case *Filter:
		child, est := lower(t.Child, opts)
		// Residual predicates are opaque expressions; the classic 1/3
		// guess keeps estimates monotone without pretending precision.
		est /= 3
		if est < 1 {
			est = 1
		}
		return &exec.FilterOp{Child: child, Pred: t.Pred}, est
	case *Project:
		child, est := lower(t.Child, opts)
		return &exec.ProjectOp{Child: child, Exprs: t.Exprs, Out: t.Out}, est
	case *Sort:
		child, est := lower(t.Child, opts)
		return &exec.SortOp{Child: child, Keys: t.Keys, Gov: opts.Gov}, est
	case *Limit:
		child, est := lower(t.Child, opts)
		if t.Limit >= 0 && float64(t.Limit) < est {
			est = float64(t.Limit)
		}
		if s := sortBelow(child); s != nil && t.Limit >= 0 && t.Offset+t.Limit <= math.MaxInt32 {
			s.Bound = int(t.Offset + t.Limit)
		}
		return &exec.LimitOp{Child: child, Offset: t.Offset, Limit: t.Limit}, est
	case *Distinct:
		// Duplicate elimination is a group-by on every column with no
		// aggregates (NULLs form one group), so it runs on the governed,
		// spilling hash table instead of one of its own.
		child, est := lower(t.Child, opts)
		sch := child.Schema()
		keys := make([]exec.Expr, len(sch))
		for i := range keys {
			keys[i] = exec.ColRef(i)
		}
		return groupBy(child, keys, sch, nil, opts), est
	case *Aggregate:
		child, est := lower(t.Child, opts)
		return groupBy(child, t.GroupBy, t.GroupCols, t.Aggs, opts), est
	case *Join:
		return lowerJoin(t, opts)
	}
	panic("plan: unknown node type")
}

// groupBy builds the one hash aggregation. A group-by whose aggregates
// merge exactly, fed by a columnar scan through filters and projections
// only, runs at the session's degree, and so does that scan. (The operator
// still ingests on one worker when a filter in between has no vector
// kernel; key-ordered emit makes the scan's arrival order irrelevant.)
func groupBy(child exec.Operator, keys []exec.Expr, cols types.Schema, aggs []exec.AggSpec, opts Options) *exec.GroupByOp {
	g := &exec.GroupByOp{Child: child, GroupBy: keys, GroupCols: cols, Aggs: aggs, Gov: opts.Gov}
	if opts.Dop > 1 && exec.MergeableAggs(aggs) {
		if scan := scanBelow(child); scan != nil {
			g.Dop, scan.Dop = opts.Dop, opts.Dop
		}
	}
	return g
}

// scanBelow returns the columnar scan at the bottom of a Filter/Project
// chain, or nil when the chain ends in anything else.
func scanBelow(op exec.Operator) *exec.ScanOp {
	for {
		switch o := op.(type) {
		case *exec.ScanOp:
			return o
		case *exec.FilterOp:
			op = o.Child
		case *exec.ProjectOp:
			op = o.Child
		default:
			return nil
		}
	}
}

// sortBelow returns the sort a limit reads: op itself, or the sort under
// the projection of bare columns that drops hidden sort keys. Nil for
// anything else.
func sortBelow(op exec.Operator) *exec.SortOp {
	if p, ok := op.(*exec.ProjectOp); ok {
		for _, e := range p.Exprs {
			if _, bare := e.(exec.ColRef); !bare {
				return nil
			}
		}
		op = p.Child
	}
	s, _ := op.(*exec.SortOp)
	return s
}

// lowerJoin dispatches one join node: inner/cross regions reorder under
// the greedy pass; outer joins (and residual-carrying inner joins) have
// a fixed shape and lower directly, the residual inside the join.
func lowerJoin(j *Join, opts Options) (exec.Operator, float64) {
	if _, ok := flattenable(j); ok && opts.Greedy {
		leaves, edges := flatten(j)
		infos := make([]*leafInfo, len(leaves))
		for i, leaf := range leaves {
			op, est := lower(leaf, opts)
			infos[i] = analyzeLeaf(op, est)
		}
		pushJoinKeyBounds(infos, edges)
		return lowerRegion(infos, edges, opts)
	}

	l, lest := lower(j.Left, opts)
	r, rest := lower(j.Right, opts)
	li := analyzeLeaf(l, lest)
	ri := analyzeLeaf(r, rest)

	// Inner estimate over the equi keys; outer joins additionally keep
	// every preserved-side row.
	var setDs []float64
	for _, k := range j.LeftKeys {
		setDs = append(setDs, li.distinct(k))
	}
	est := joinEst(li.est, ri, setDs, j.RightKeys)
	switch j.Kind {
	case CrossJoin:
		est = li.est * ri.est
	case LeftOuterJoin:
		if est < li.est {
			est = li.est
		}
	case RightOuterJoin:
		if est < ri.est {
			est = ri.est
		}
	}

	if j.Kind == RightOuterJoin {
		// The executor has no right-outer operator: preserve the right
		// input by swapping sides into a LEFT join, then restore the
		// user-visible column order. The swapped build side is the
		// syntactic left relation.
		op := &exec.HashJoinOp{
			Left: r, Right: l,
			LeftKeys: j.RightKeys, RightKeys: j.LeftKeys, Residual: j.Residual,
			Type: exec.LeftJoin, Gov: opts.Gov, EstRows: est,
			BuildSide: buildTag(opts, "left"),
		}
		return restoreOrder(op, []exec.Operator{l, r}, []int{ri.arity, 0}), est
	}
	jt := exec.InnerJoin
	if j.Kind == LeftOuterJoin {
		jt = exec.LeftJoin
	}
	return &exec.HashJoinOp{
		Left: l, Right: r,
		LeftKeys: j.LeftKeys, RightKeys: j.RightKeys, Residual: j.Residual,
		Type: jt, Gov: opts.Gov, EstRows: est,
	}, est
}

// buildTag returns the EXPLAIN build-side tag when the planner is active;
// syntactic lowering leaves operators untagged (historical plan text).
func buildTag(opts Options, side string) string {
	if !opts.Greedy {
		return ""
	}
	return side
}

// lowerRegion joins a flattened region's leaves. Greedy mode reorders and
// picks build sides; syntactic mode replays the leaves left-to-right with
// the historical fixed build side. One projection at the region root
// restores the syntactic column order whenever lowering perturbed it.
func lowerRegion(leaves []*leafInfo, edges []edge, opts Options) (exec.Operator, float64) {
	n := len(leaves)
	if n == 1 {
		return leaves[0].op, leaves[0].est
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if opts.Greedy {
		order = greedyOrder(leaves, edges)
	}
	reordered := false
	for i, k := range order {
		if i != k {
			reordered = true
			break
		}
	}

	inSet := make([]bool, n)
	pos := make([]int, n) // leaf output offset within the current intermediate

	first := order[0]
	cur := leaves[first].op
	curEst := leaves[first].est
	curArity := leaves[first].arity
	inSet[first] = true

	for _, k := range order[1:] {
		cand := leaves[k]
		// Keys of every edge between the joined set and this leaf.
		var lkAbs, rkLocal []int
		var setDs []float64
		for _, e := range edges {
			switch {
			case e.b == k && inSet[e.a]:
				lkAbs = append(lkAbs, pos[e.a]+e.ac)
				rkLocal = append(rkLocal, e.bc)
				setDs = append(setDs, leaves[e.a].distinct(e.ac))
			case e.a == k && inSet[e.b]:
				lkAbs = append(lkAbs, pos[e.b]+e.bc)
				rkLocal = append(rkLocal, e.ac)
				setDs = append(setDs, leaves[e.b].distinct(e.bc))
			}
		}
		var est float64
		switch {
		case len(lkAbs) == 0:
			est = curEst * cand.est
			if est < 1 {
				est = 1
			}
			cur = &exec.HashJoinOp{Left: cur, Right: cand.op, Type: exec.InnerJoin, Gov: opts.Gov, EstRows: est, Reordered: reordered}
			pos[k] = curArity
		case opts.Greedy && curEst < cand.est:
			// The accumulated side is smaller: make it the build (right)
			// input and shift every joined leaf past the new probe side.
			est = joinEst(curEst, cand, setDs, rkLocal)
			cur = &exec.HashJoinOp{
				Left: cand.op, Right: cur,
				LeftKeys: rkLocal, RightKeys: lkAbs,
				Type: exec.InnerJoin, Gov: opts.Gov,
				EstRows: est, BuildSide: "left", Reordered: reordered,
			}
			for i := range pos {
				if inSet[i] {
					pos[i] += cand.arity
				}
			}
			pos[k] = 0
		default:
			est = joinEst(curEst, cand, setDs, rkLocal)
			cur = &exec.HashJoinOp{
				Left: cur, Right: cand.op,
				LeftKeys: lkAbs, RightKeys: rkLocal,
				Type: exec.InnerJoin, Gov: opts.Gov,
				EstRows: est, BuildSide: buildTag(opts, "right"), Reordered: reordered,
			}
			pos[k] = curArity
		}
		curArity += cand.arity
		curEst = est
		inSet[k] = true
	}

	ops := make([]exec.Operator, n)
	for i, l := range leaves {
		ops[i] = l.op
	}
	return restoreOrder(cur, ops, pos), curEst
}

// restoreOrder projects the joined output back into syntactic column
// order: leaf i's columns currently sit at offset pos[i] and must appear
// after every earlier leaf's columns. Identity permutations skip the
// projection entirely, so unreordered plans keep their historical shape.
func restoreOrder(op exec.Operator, leaves []exec.Operator, pos []int) exec.Operator {
	var out types.Schema
	var exprs []exec.Expr
	identity := true
	off := 0
	for i, l := range leaves {
		sch := l.Schema()
		for j := range sch {
			src := pos[i] + j
			if src != off+j {
				identity = false
			}
			exprs = append(exprs, exec.ColRef(src))
		}
		out = append(out, sch...)
		off += len(sch)
	}
	if identity {
		return op
	}
	return &exec.ProjectOp{Child: op, Exprs: exprs, Out: out}
}

// pushJoinKeyBounds is the cross-join-aware predicate pushdown pass: for
// every equi-join edge between two bare scans whose key columns expose
// value bounds, the narrower side's [min, max] range is pushed into the
// other side's scan as ordinary predicates. Stride skipping then prunes
// far-side strides whose key range cannot contain a join partner. Region
// edges are inner-join by construction (outer joins are barriers), so
// dropping rows without a partner is always sound here.
func pushJoinKeyBounds(leaves []*leafInfo, edges []edge) {
	for _, e := range edges {
		pushBounds(leaves[e.a], e.ac, leaves[e.b], e.bc)
		pushBounds(leaves[e.b], e.bc, leaves[e.a], e.ac)
	}
}

func pushBounds(src *leafInfo, srcCol int, dst *leafInfo, dstCol int) {
	if src.stats == nil || dst.scan == nil || dst.stats == nil {
		return
	}
	ss, ds := src.stats(srcCol), dst.stats(dstCol)
	if !ss.HasBounds || !ds.HasBounds {
		return
	}
	// Only push a bound that actually narrows the destination; equal
	// spans would add predicates that filter nothing.
	lo := types.Compare(ss.Min, ds.Min) > 0
	hi := types.Compare(ss.Max, ds.Max) < 0
	if !lo && !hi {
		return
	}
	col := dstCol
	if dst.scan.Projection != nil {
		col = dst.scan.Projection[dstCol]
	}
	if lo {
		dst.scan.Preds = append(dst.scan.Preds, columnar.Pred{Col: col, Op: encoding.OpGE, Val: ss.Min})
	}
	if hi {
		dst.scan.Preds = append(dst.scan.Preds, columnar.Pred{Col: col, Op: encoding.OpLE, Val: ss.Max})
	}
}

// HashJoin is the sanctioned constructor for library callers (workload
// simulators, benchmarks) that assemble executor trees directly: physical
// join operators are built only inside this package and internal/exec,
// an invariant the planlower analyzer enforces.
func HashJoin(left, right exec.Operator, leftKeys, rightKeys []int, jt exec.JoinType, gov *mem.Governor) *exec.HashJoinOp {
	return &exec.HashJoinOp{
		Left: left, Right: right,
		LeftKeys: leftKeys, RightKeys: rightKeys,
		Type: jt, Gov: gov,
	}
}
