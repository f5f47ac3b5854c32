package plan

import (
	"cmp"
	"math"
	"slices"

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
	case *Filter, *Join:
		return place(n, nil, opts)
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
			boundScan(s)
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

// boundScan gives a bounded sort's scan a bound to skip and select by when
// the sort's leading key reaches a columnar scan as a bare column: through
// filters and projections, the sort publishes into it; through projections
// to a bare key of a group-by and from there to the scan, the group-by
// does. A stateful expression on the way (ROWNUM, a sequence, a UDX, a
// subquery) would see other rows if the scan dropped some, and a filter
// between the group-by and the sort (HAVING) could drop the groups the
// bound keeps: either leaves the scan unbounded.
func boundScan(s *exec.SortOp) {
	key, ok := s.Keys[0].Expr.(exec.ColRef)
	if s.Bound <= 0 || !ok {
		return
	}
	op := exec.Operator(s.Child)
	if scan, col := scanColumn(op, int(key)); scan != nil {
		s.Publish = newBound(scan, col, s.Keys[0].Desc, 2*s.Bound) // the rows taken before its first trim
		return
	}
	c := int(key)
	for p, ok := op.(*exec.ProjectOp); ok; p, ok = op.(*exec.ProjectOp) {
		if c = bareColumn(p.Exprs, c); c < 0 {
			return
		}
		op = p.Child
	}
	g, ok := op.(*exec.GroupByOp)
	if !ok || c >= len(g.GroupBy) || exec.Stateful(g.Exprs()...) {
		return
	}
	if k, ok := g.GroupBy[c].(exec.ColRef); ok {
		if scan, col := scanColumn(g.Child, int(k)); scan != nil {
			g.Publish, g.PublishKey, g.PublishN = newBound(scan, col, s.Keys[0].Desc, s.Bound), c, s.Bound
		}
	}
}

// scanColumn follows output column c of op down filters and projections of
// bare columns, none stateful, to the columnar scan it is read from: the
// scan and the table column, or nil.
func scanColumn(op exec.Operator, c int) (*exec.ScanOp, int) {
	for {
		switch o := op.(type) {
		case *exec.ScanOp:
			if o.Projection != nil {
				c = o.Projection[c]
			}
			return o, c
		case *exec.FilterOp:
			if exec.Stateful(o.Pred) {
				return nil, 0
			}
			op = o.Child
		case *exec.ProjectOp:
			if c = bareColumn(o.Exprs, c); c < 0 {
				return nil, 0
			}
			op = o.Child
		default:
			return nil, 0
		}
	}
}

// bareColumn is the input column output c of a projection reads when it is
// a bare column and no expression of the projection is stateful, else -1.
func bareColumn(exprs []exec.Expr, c int) int {
	if c < 0 || c >= len(exprs) || exec.Stateful(exprs...) {
		return -1
	}
	if r, ok := exprs[c].(exec.ColRef); ok {
		return int(r)
	}
	return -1
}

// newBound makes scan's bound on table column col, published after n rows
// or groups: <= under an ascending key, >= under a descending one.
func newBound(scan *exec.ScanOp, col int, desc bool, n int) *columnar.Bound {
	op := encoding.OpLE
	if desc {
		op = encoding.OpGE
	}
	scan.Bound, scan.BoundAfter = columnar.NewBound(col, op), n
	return scan.Bound
}

// place lowers n under the conjuncts terms, bound to n's output. A Filter
// joins its predicate's conjuncts to them; over an inner join each runs at
// the lowest node that reads it (lowerRegion), over an outer join below it
// when it reads only the preserved side (lowerOuter), and over anything
// else they are one filter.
func place(n Node, terms []exec.Expr, opts Options) (exec.Operator, float64) {
	switch t := n.(type) {
	case *Filter:
		return place(t.Child, append(conjuncts(t.Pred), terms...), opts)
	case *Join:
		if t.Kind == InnerJoin {
			return lowerRegion(t, terms, opts)
		}
		return lowerOuter(t, terms, opts)
	}
	op, est := lower(n, opts)
	return filter(op, est, terms)
}

// filter puts the conjuncts terms over op as one FilterOp. They are opaque
// expressions; the classic 1/3 guess keeps estimates monotone without
// pretending precision.
func filter(op exec.Operator, est float64, terms []exec.Expr) (exec.Operator, float64) {
	if len(terms) == 0 {
		return op, est
	}
	return &exec.FilterOp{Child: op, Pred: and(terms)}, max(est/3, 1)
}

// lowerOuter lowers an outer join under the conjuncts terms, bound to its
// output. classify splits both: a term that reads only the preserved side
// filters that side before the join, any other the join's output; a
// condition conjunct that is an edge between the sides is a key, any other
// is in the residual. The executor has no right-outer operator: a RIGHT
// join runs as the swapped LEFT join, whose build side is the written left
// input, and a projection restores the written column order.
func lowerOuter(j *Join, terms []exec.Expr, opts Options) (exec.Operator, float64) {
	bases := []int{0, j.Left.arity()}
	kept := int(j.Kind - LeftOuterJoin) // the preserved side: 0 LEFT, 1 RIGHT
	var pushed [2][]exec.Expr
	var up []exec.Expr
	for _, t := range classify(terms, bases) {
		if len(t.leaves) == 1 && t.leaves[0] == kept {
			pushed[kept] = append(pushed[kept], moved(t.e, bases, []int{0, 0}))
		} else {
			up = append(up, t.e)
		}
	}
	sides := make([]*leafInfo, 2)
	for i, side := range []Node{j.Left, j.Right} {
		sides[i] = analyzeLeaf(place(side, pushed[i], opts))
	}

	hj := &exec.HashJoinOp{Left: sides[0].op, Right: sides[1].op, Type: exec.LeftJoin, Gov: opts.Gov}
	var keys []edge
	var residual []exec.Expr
	for _, t := range classify(conjuncts(j.Cond), bases) {
		if t.edge == nil {
			residual = append(residual, t.e)
			continue
		}
		keys = append(keys, *t.edge)
		hj.LeftKeys, hj.RightKeys = append(hj.LeftKeys, t.edge.ac), append(hj.RightKeys, t.edge.bc)
	}
	// The inner estimate over the keys; every preserved row is kept.
	hj.EstRows = max(joinEst(sides[0].est, sides, 1, keys), sides[kept].est)
	pos := bases
	if kept == 1 {
		hj.Left, hj.Right, hj.LeftKeys, hj.RightKeys = hj.Right, hj.Left, hj.RightKeys, hj.LeftKeys
		if opts.Greedy {
			hj.BuildSide = "left"
		}
		pos = []int{sides[1].arity, 0}
	}
	hj.Residual = moved(and(residual), bases, pos)
	return filter(restoreOrder(hj, sides, pos), hj.EstRows, up)
}

// moved rebinds e, over a row whose leaves' columns start at bases, to
// one where they start at pos.
func moved(e exec.Expr, bases, pos []int) exec.Expr {
	return exec.Rebind(e, func(c int) int {
		l := leafOf(bases, c)
		return pos[l] + c - bases[l]
	})
}

// lowerRegion lowers the region under root (see flatten) under the
// conjuncts terms, bound to its output. classify places each conjunct,
// root's and the region's inner Conds alike: an edge joins two leaves; a
// conjunct reading one leaf filters that leaf (whose scan still feeds
// statistics and key-bounds pushdown); one reading several is the residual
// of the first join that holds them all; a stateful or column-free one
// filters the region's output. Greedy mode then orders the joins and picks
// build sides; syntactic mode joins the leaves in written order, each
// building on the right. One projection at the region root restores the
// written column order whenever lowering perturbed it.
func lowerRegion(root *Join, terms []exec.Expr, opts Options) (exec.Operator, float64) {
	nodes, bases, conds := flatten(root)
	n := len(nodes)
	local, own := make([][]exec.Expr, n), make([]int, n) // own: each leaf's row alone
	var edges []edge
	var multi []term
	var top []exec.Expr
	for _, t := range classify(append(conds, terms...), bases) {
		switch {
		case len(t.leaves) == 0:
			top = append(top, t.e)
		case len(t.leaves) == 1:
			local[t.leaves[0]] = append(local[t.leaves[0]], moved(t.e, bases, own))
		case t.edge != nil:
			edges = append(edges, *t.edge)
		default:
			multi = append(multi, t)
		}
	}
	// However the conditions were spelled, the edges go in one order.
	slices.SortFunc(edges, func(x, y edge) int { return cmp.Or(x.a-y.a, x.b-y.b, x.ac-y.ac, x.bc-y.bc) })
	leaves := make([]*leafInfo, n)
	for i, node := range nodes {
		leaves[i] = analyzeLeaf(place(node, local[i], opts))
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if opts.Greedy {
		pushJoinKeyBounds(leaves, edges)
		order = greedyOrder(leaves, edges)
	}
	reordered := !slices.IsSorted(order)

	inSet := make([]bool, n)
	pos := make([]int, n) // leaf output offset within the current intermediate
	first := leaves[order[0]]
	cur, curEst, curArity := exec.Operator(first.op), first.est, first.arity
	inSet[order[0]] = true

	for _, k := range order[1:] {
		cand := leaves[k]
		keys := joining(edges, inSet, k)
		est := joinEst(curEst, leaves, k, keys)
		hj := &exec.HashJoinOp{Left: cur, Right: cand.op, Type: exec.InnerJoin, Gov: opts.Gov, EstRows: est, Reordered: reordered}
		for _, e := range keys {
			hj.LeftKeys, hj.RightKeys = append(hj.LeftKeys, pos[e.a]+e.ac), append(hj.RightKeys, e.bc)
		}
		pos[k] = curArity
		switch {
		case len(keys) == 0:
		case opts.Greedy && curEst < cand.est:
			// The accumulated side is smaller: make it the build (right)
			// input and shift every joined leaf past the new probe side.
			hj.Left, hj.Right, hj.LeftKeys, hj.RightKeys, hj.BuildSide = cand.op, cur, hj.RightKeys, hj.LeftKeys, "left"
			for i := range pos {
				if inSet[i] {
					pos[i] += cand.arity
				}
			}
			pos[k] = 0
		case opts.Greedy: // syntactic lowering leaves joins untagged
			hj.BuildSide = "right"
		}
		inSet[k] = true
		var residual []exec.Expr
		for _, t := range multi {
			if slices.Contains(t.leaves, k) && !slices.ContainsFunc(t.leaves, func(l int) bool { return !inSet[l] }) {
				residual = append(residual, moved(t.e, bases, pos))
			}
		}
		hj.Residual = and(residual)
		cur, curEst, curArity = hj, est, curArity+cand.arity
	}

	return filter(restoreOrder(cur, leaves, pos), curEst, top)
}

// restoreOrder projects the joined output back into syntactic column
// order: leaf i's columns currently sit at offset pos[i] and must appear
// after every earlier leaf's columns. Identity permutations skip the
// projection entirely, so unreordered plans keep their historical shape.
func restoreOrder(op exec.Operator, leaves []*leafInfo, pos []int) exec.Operator {
	var out types.Schema
	var exprs []exec.Expr
	identity := true
	off := 0
	for i, l := range leaves {
		sch := l.op.Schema()
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
