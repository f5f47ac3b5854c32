package plan

import (
	"fmt"
	"sort"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/exec"
	"dashdb/internal/types"
)

func intSchema(names ...string) types.Schema {
	var s types.Schema
	for _, n := range names {
		s = append(s, types.Column{Name: n, Kind: types.KindInt, Nullable: true})
	}
	return s
}

// valuesLeaf builds an Input over literal rows: column 0 is i%mod (the
// join key), column 1 is i (a payload distinguishing rows).
func valuesLeaf(name string, n, mod int) *Input {
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{types.NewInt(int64(i % mod)), types.NewInt(int64(i))}
	}
	return &Input{Op: exec.NewValues(intSchema(name+"_k", name+"_v"), rows), Name: name}
}

// eq is the join condition "column l = column r".
func eq(l, r int) exec.Expr {
	return &exec.CmpExpr{Op: encoding.OpEQ, L: exec.ColRef(l), R: exec.ColRef(r)}
}

func sortedRows(t *testing.T, op exec.Operator) []string {
	t.Helper()
	rows, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func assertSame(t *testing.T, syntactic, greedy []string) {
	t.Helper()
	if len(syntactic) != len(greedy) {
		t.Fatalf("row count differs: syntactic=%d greedy=%d", len(syntactic), len(greedy))
	}
	for i := range syntactic {
		if syntactic[i] != greedy[i] {
			t.Fatalf("row %d differs:\n  syntactic: %s\n  greedy:    %s", i, syntactic[i], greedy[i])
		}
	}
}

// chain3 is a left-deep 3-way chain join (big ⋈ mid ⋈ small) written in
// the worst syntactic order: the large table first.
func chain3() *Join {
	big := valuesLeaf("big", 400, 20)
	mid := valuesLeaf("mid", 40, 20)
	small := valuesLeaf("small", 5, 20)
	return &Join{
		Left:  &Join{Left: big, Right: mid, Kind: InnerJoin, Cond: eq(0, 2)},
		Right: small, Kind: InnerJoin, Cond: eq(0, 4),
	}
}

func TestGreedyMatchesSyntactic(t *testing.T) {
	cases := map[string]func() Node{
		"chain3": func() Node { return chain3() },
		"two-way": func() Node {
			return &Join{
				Left: valuesLeaf("l", 100, 10), Right: valuesLeaf("r", 8, 10),
				Kind: InnerJoin, Cond: eq(0, 2),
			}
		},
		"cross-then-join": func() Node {
			// FROM a, b JOIN-style region with one disconnected leaf.
			return &Join{
				Left: &Join{
					Left: valuesLeaf("a", 6, 6), Right: valuesLeaf("b", 4, 4),
					Kind: InnerJoin,
				},
				Right: valuesLeaf("c", 30, 6), Kind: InnerJoin, Cond: eq(0, 4),
			}
		},
		"right-outer": func() Node {
			return &Join{
				Left: valuesLeaf("l", 12, 30), Right: valuesLeaf("r", 25, 9),
				Kind: RightOuterJoin, Cond: eq(0, 2),
			}
		},
		"left-outer-over-inner": func() Node {
			return &Join{
				Left: &Join{
					Left: valuesLeaf("big", 300, 15), Right: valuesLeaf("tiny", 3, 15),
					Kind: InnerJoin, Cond: eq(0, 2),
				},
				Right: valuesLeaf("pad", 7, 40), Kind: LeftOuterJoin, Cond: eq(0, 4),
			}
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			syn := sortedRows(t, Lower(mk(), Options{Greedy: false}))
			gr := sortedRows(t, Lower(mk(), Options{Greedy: true}))
			if len(syn) == 0 {
				t.Fatal("empty result defeats the comparison")
			}
			assertSame(t, syn, gr)
		})
	}
}

// TestGreedyReorders checks the chain3 plan actually starts from the
// smallest relation and tags the plan, rather than passing vacuously.
func TestGreedyReorders(t *testing.T) {
	op := Lower(chain3(), Options{Greedy: true})
	// Root must be the order-restoring projection (greedy perturbed the
	// column layout), wrapping a reordered hash join.
	proj, ok := op.(*exec.ProjectOp)
	if !ok {
		t.Fatalf("root = %T, want *exec.ProjectOp restoring syntactic order", op)
	}
	hj, ok := proj.Child.(*exec.HashJoinOp)
	if !ok {
		t.Fatalf("root child = %T, want *exec.HashJoinOp", proj.Child)
	}
	if !hj.Reordered {
		t.Error("top join not marked Reordered")
	}
	if hj.BuildSide == "" {
		t.Error("greedy lowering left BuildSide empty")
	}
	if hj.EstRows <= 0 {
		t.Error("EstRows not populated")
	}
	// Syntactic lowering of the same tree keeps the historical shape: a
	// bare left-deep join with no tags and no projection.
	sop := Lower(chain3(), Options{Greedy: false})
	shj, ok := sop.(*exec.HashJoinOp)
	if !ok {
		t.Fatalf("syntactic root = %T, want *exec.HashJoinOp", sop)
	}
	if shj.BuildSide != "" || shj.Reordered {
		t.Errorf("syntactic plan tagged: build=%q reordered=%v", shj.BuildSide, shj.Reordered)
	}
}

// TestBuildSideSwap: a two-leaf region where the left side is smaller
// must swap so the smaller side builds, without perturbing column order.
func TestBuildSideSwap(t *testing.T) {
	mk := func() Node {
		return &Join{
			Left: valuesLeaf("small", 4, 4), Right: valuesLeaf("big", 200, 4),
			Kind: InnerJoin, Cond: eq(0, 2),
		}
	}
	op := Lower(mk(), Options{Greedy: true})
	// The swap moves the big probe side's columns ahead of the small
	// build side's, so a projection restores the syntactic order.
	proj, ok := op.(*exec.ProjectOp)
	if !ok {
		t.Fatalf("root = %T, want *exec.ProjectOp restoring column order after swap", op)
	}
	hj, ok := proj.Child.(*exec.HashJoinOp)
	if !ok {
		t.Fatalf("root child = %T, want *exec.HashJoinOp", proj.Child)
	}
	if hj.BuildSide != "left" {
		t.Errorf("BuildSide = %q, want %q (small left side becomes the build input)", hj.BuildSide, "left")
	}
	assertSame(t, sortedRows(t, Lower(mk(), Options{Greedy: false})), sortedRows(t, Lower(mk(), Options{Greedy: true})))
}

func intTable(t *testing.T, id uint32, name string, lo, hi int) *columnar.Table {
	t.Helper()
	tbl := columnar.NewTable(id, name, intSchema(name+"_k", name+"_v"), columnar.Config{})
	var rows []types.Row
	for i := lo; i <= hi; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 10))})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestJoinKeyBoundsPushdown: joining a wide-range table with a
// narrow-range one must push the narrow [min,max] into the wide scan — also
// when a conjunct over the wide table alone is placed as a filter on it,
// which keeps the scan's estimate from its statistics.
func TestJoinKeyBoundsPushdown(t *testing.T) {
	wide := intTable(t, 1, "wide", 0, 4999)
	narrow := intTable(t, 2, "narrow", 2000, 2100)
	join := func() *Join {
		return &Join{
			Left:  &Input{Op: exec.NewScan(wide, nil, nil), Name: "wide"},
			Right: &Input{Op: exec.NewScan(narrow, nil, nil), Name: "narrow"},
			Kind:  InnerJoin, Cond: eq(0, 2),
		}
	}
	// wide_v + 0 > 20500: a conjunct no scan takes, true for wide_k > 2050.
	over := &exec.CmpExpr{Op: encoding.OpGT, L: &exec.ArithExpr{Op: "+", L: exec.ColRef(1), R: exec.Const{V: types.NewInt(0)}}, R: exec.Const{V: types.NewInt(20500)}}
	for _, c := range []struct {
		name     string
		mk       func() Node
		filtered bool
		rows     int
	}{
		{"bare", func() Node { return join() }, false, 101},
		{"placed filter", func() Node { return &Filter{Child: join(), Pred: over} }, true, 50},
	} {
		op := Lower(c.mk(), Options{Greedy: true})
		var wideScan *exec.ScanOp
		var filtered bool
		var walk func(o exec.Operator, underFilter bool)
		walk = func(o exec.Operator, underFilter bool) {
			switch t := o.(type) {
			case *exec.ScanOp:
				if t.Table == wide {
					wideScan, filtered = t, underFilter
				}
			case *exec.HashJoinOp:
				walk(t.Left, false)
				walk(t.Right, false)
			case *exec.ProjectOp:
				walk(t.Child, false)
			case *exec.FilterOp:
				walk(t.Child, true)
			}
		}
		walk(op, false)
		if wideScan == nil {
			t.Fatalf("%s: wide scan not found in lowered plan", c.name)
		}
		if filtered != c.filtered || wideScan.EstRows != 5000 {
			t.Errorf("%s: wide scan under a filter %v (want %v), estimated %v rows (want its 5000)", c.name, filtered, c.filtered, wideScan.EstRows)
		}
		var ge, le bool
		for _, p := range wideScan.Preds {
			if p.Col != 0 {
				continue
			}
			switch p.Op {
			case encoding.OpGE:
				ge = true
			case encoding.OpLE:
				le = true
			}
		}
		if !ge || !le {
			t.Fatalf("%s: wide scan preds = %v, want pushed GE and LE join-key bounds", c.name, wideScan.Preds)
		}
		syn := sortedRows(t, Lower(c.mk(), Options{Greedy: false}))
		gr := sortedRows(t, Lower(c.mk(), Options{Greedy: true}))
		if len(syn) != c.rows {
			t.Fatalf("%s: expected %d matching rows, got %d", c.name, c.rows, len(syn))
		}
		assertSame(t, syn, gr)
	}
}

// TestScanEstimateUsesStats: the leaf estimate must come from table
// statistics, not the opaque default.
func TestScanEstimateUsesStats(t *testing.T) {
	tbl := intTable(t, 3, "t", 0, 999)
	scan := exec.NewScan(tbl, []columnar.Pred{{Col: 0, Op: encoding.OpEQ, Val: types.NewInt(17)}}, nil)
	l := analyzeLeaf(scan, 0)
	// 1000 rows, ~1000 distinct keys: EQ selectivity ≈ 1/distinct.
	if l.est < 0.5 || l.est > 20 {
		t.Errorf("EQ estimate = %v, want ≈1 row from the distinct sketch", l.est)
	}
	if scan.EstRows != l.est {
		t.Errorf("ScanOp.EstRows = %v, want %v", scan.EstRows, l.est)
	}
	full := analyzeLeaf(exec.NewScan(tbl, nil, nil), 0)
	if full.est != 1000 {
		t.Errorf("unfiltered estimate = %v, want 1000", full.est)
	}
}

func TestGreedyOrderPrefersConnected(t *testing.T) {
	// small(5) — big(1000) — mid(50): greedy must not cross-join
	// small×mid even though mid is the second-smallest relation.
	leaves := []*leafInfo{
		{arity: 1, est: 1000},
		{arity: 1, est: 5},
		{arity: 1, est: 50},
	}
	edges := []edge{{a: 0, ac: 0, b: 1, bc: 0}, {a: 0, ac: 0, b: 2, bc: 0}}
	order := greedyOrder(leaves, edges)
	if order[0] != 1 {
		t.Fatalf("order = %v, want smallest relation (1) first", order)
	}
	if order[1] != 0 {
		t.Fatalf("order = %v, want connected big table (0) before disconnected mid", order)
	}
}

// TestAggregateLowering: lowering is where a group-by gets its dop — iff
// Options.Dop > 1, every aggregate merges exactly and the child lowers to
// filters and projections over a columnar scan, which then runs at the
// same degree — and Distinct is the same lowering with every column a key.
func TestAggregateLowering(t *testing.T) {
	sum := exec.AggSpec{Func: exec.AggSum, Arg: exec.ColRef(1), Name: "SUM"}
	median := exec.AggSpec{Func: exec.AggMedian, Arg: exec.ColRef(1), Name: "MEDIAN"}
	cols := intSchema("k")
	var scan *exec.ScanOp
	overScan := func() Node { // Project(Filter(scan))
		scan = exec.NewScan(intTable(t, 1, "t", 0, 99), nil, nil)
		return &Project{
			Child: &Filter{Child: &Input{Op: scan}, Pred: exec.Const{V: types.NewBool(true)}},
			Exprs: []exec.Expr{exec.ColRef(0), exec.ColRef(1)}, Out: intSchema("k", "v"),
		}
	}
	overJoin := func() Node {
		scan = exec.NewScan(intTable(t, 1, "t", 0, 99), nil, nil)
		return &Join{Left: &Input{Op: scan}, Right: valuesLeaf("r", 8, 10), Kind: InnerJoin, Cond: eq(0, 2)}
	}
	for _, c := range []struct {
		name  string
		child func() Node
		aggs  []exec.AggSpec
		dop   int
		want  int // the Dop of the group-by and of the scan beneath it
	}{
		{"serial", overScan, []exec.AggSpec{sum}, 1, 0},
		{"parallel", overScan, []exec.AggSpec{sum}, 2, 2},
		{"no aggregates", overScan, nil, 2, 2},
		{"median", overScan, []exec.AggSpec{sum, median}, 2, 0},
		{"join below", overJoin, []exec.AggSpec{sum}, 2, 0},
	} {
		agg := &Aggregate{Child: c.child(), GroupBy: []exec.Expr{exec.ColRef(0)}, GroupCols: cols, Aggs: c.aggs}
		g := Lower(agg, Options{Greedy: true, Dop: c.dop}).(*exec.GroupByOp)
		if g.Dop != c.want || scan.Dop != c.want {
			t.Errorf("%s: group-by dop %d, scan dop %d, want %d", c.name, g.Dop, scan.Dop, c.want)
		}
		if len(g.Aggs) != len(c.aggs) || len(g.GroupBy) != 1 {
			t.Errorf("%s: lowered %d keys, %d aggregates", c.name, len(g.GroupBy), len(g.Aggs))
		}
	}

	for _, dop := range []int{1, 2} {
		opts := Options{Dop: dop}
		keys := &Project{Child: &Input{Op: exec.NewScan(intTable(t, 1, "t", 0, 99), nil, nil)}, Exprs: []exec.Expr{exec.ColRef(0)}, Out: cols}
		d := Lower(&Distinct{Child: keys}, opts).(*exec.GroupByOp)
		a := Lower(&Aggregate{Child: keys, GroupBy: []exec.Expr{exec.ColRef(0)}, GroupCols: cols}, opts).(*exec.GroupByOp)
		if d.Dop != a.Dop || len(d.GroupBy) != len(a.GroupBy) || len(d.Aggs) != 0 || fmt.Sprint(d.Schema()) != fmt.Sprint(a.Schema()) {
			t.Errorf("dop %d: Distinct lowered to %+v, Aggregate without aggregates to %+v", dop, d, a)
		}
		assertSame(t, sortedRows(t, d), sortedRows(t, a))
	}
}

// TestLimitBoundsSort checks which limits bound the sort they read: a Limit
// over a Sort, or over the projection of bare columns that drops hidden
// sort keys, sets SortOp.Bound to OFFSET + LIMIT. An OFFSET alone, a Limit
// below the Sort (Oracle's ROWNUM), a Limit over a projection that computes
// and a Limit with no Sort below set none. Every plan returns the rows the
// unbounded sort does.
func TestLimitBoundsSort(t *testing.T) {
	keys := []exec.SortKey{{Expr: exec.ColRef(0), Desc: true}}
	sorted := func() Node { return &Sort{Child: valuesLeaf("t", 5000, 7), Keys: keys} }
	hidden := func(child Node) Node {
		return &Project{Child: child, Exprs: []exec.Expr{exec.ColRef(1)}, Out: intSchema("t_v")}
	}
	computed := func(child Node) Node {
		return &Project{Child: child, Exprs: []exec.Expr{&exec.ArithExpr{Op: "+", L: exec.ColRef(1), R: exec.ColRef(0)}}, Out: intSchema("x")}
	}
	cases := []struct {
		name   string
		node   Node
		bound  int
		sorted bool
	}{
		{"limit over sort", &Limit{Child: sorted(), Offset: 3, Limit: 10}, 13, true},
		{"limit over hidden-key projection", &Limit{Child: hidden(sorted()), Limit: 10}, 10, true},
		{"offset only", &Limit{Child: sorted(), Offset: 3, Limit: -1}, 0, true},
		{"limit below the sort", &Sort{Child: &Limit{Child: valuesLeaf("t", 5000, 7), Limit: 10}, Keys: keys}, 0, true},
		{"limit over a computing projection", &Limit{Child: computed(sorted()), Limit: 10}, 0, true},
		{"limit over no sort", &Limit{Child: valuesLeaf("t", 5000, 7), Limit: 10}, 0, false},
	}
	for _, c := range cases {
		op := Lower(c.node, Options{})
		s := findSort(op)
		if (s != nil) != c.sorted || (s != nil && s.Bound != c.bound) {
			t.Fatalf("%s: sort %v, want bound %d", c.name, s, c.bound)
		}
		got, err := exec.Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		if s != nil {
			s.Bound = 0
		}
		want, err := exec.Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: bounded rows differ from the unbounded sort's", c.name)
		}
	}
}

// findSort returns the first SortOp down a chain of single-child operators.
func findSort(op exec.Operator) *exec.SortOp {
	for {
		switch o := op.(type) {
		case *exec.SortOp:
			return o
		case *exec.LimitOp:
			op = o.Child
		case *exec.ProjectOp:
			op = o.Child
		default:
			return nil
		}
	}
}

// TestConjunctPlacement: each conjunct of a Filter over an inner region
// runs at the lowest node that reads it — edges become keys, a one-leaf
// conjunct filters its leaf, a conjunct over two leaves is the residual of
// the join that brings them together, and a stateful one stays above —
// and the rows are the ones the conjuncts select from the cross product.
func TestConjunctPlacement(t *testing.T) {
	cmp := func(op encoding.CmpOp, l, r exec.Expr) exec.Expr { return &exec.CmpExpr{Op: op, L: l, R: r} }
	every := &exec.ApplyExpr{Args: []exec.Expr{exec.ColRef(3)}, Stateful: true,
		Fn: func([]types.Value) (types.Value, error) { return types.NewBool(true), nil }}
	terms := []exec.Expr{
		eq(0, 2), // a.k = b.k
		cmp(encoding.OpLT, exec.ColRef(1), exec.ColRef(5)),                 // a.v < c.v
		cmp(encoding.OpGT, exec.ColRef(5), exec.Const{V: types.NewInt(3)}), // c.v > 3
		every,    // stateful, over b
		eq(2, 4), // b.k = c.k
	}
	mk := func() Node {
		return &Filter{Child: &Join{
			Left:  &Join{Left: valuesLeaf("a", 20, 5), Right: valuesLeaf("b", 10, 5), Kind: InnerJoin},
			Right: valuesLeaf("c", 8, 5), Kind: InnerJoin,
		}, Pred: and(terms)}
	}
	var want []string
	for i := 0; i < 20; i++ {
		for j := 0; j < 10; j++ {
			for l := 0; l < 8; l++ {
				if i%5 == j%5 && j%5 == l%5 && i < l && l > 3 {
					want = append(want, fmt.Sprint(types.Row{types.NewInt(int64(i % 5)), types.NewInt(int64(i)),
						types.NewInt(int64(j % 5)), types.NewInt(int64(j)), types.NewInt(int64(l % 5)), types.NewInt(int64(l))}))
				}
			}
		}
	}
	sort.Strings(want)
	for _, greedy := range []bool{false, true} {
		op := Lower(mk(), Options{Greedy: greedy})
		top, ok := op.(*exec.FilterOp)
		if !ok || top.Pred != every {
			t.Fatalf("greedy=%v: root %T, want the filter holding the stateful conjunct alone", greedy, op)
		}
		var residuals, keys, leafFilters int
		var walk func(o exec.Operator)
		walk = func(o exec.Operator) {
			switch o := o.(type) {
			case *exec.HashJoinOp:
				if o.Residual != nil {
					residuals++
				}
				keys += len(o.LeftKeys)
				walk(o.Left)
				walk(o.Right)
			case *exec.ProjectOp:
				walk(o.Child)
			case *exec.FilterOp:
				if _, leaf := o.Child.(*exec.BatchesOp); leaf {
					leafFilters++
				}
			}
		}
		walk(top.Child)
		if residuals != 1 || keys != 2 || leafFilters != 1 {
			t.Errorf("greedy=%v: %d residuals, %d keys, %d leaf filters; want 1, 2, 1", greedy, residuals, keys, leafFilters)
		}
		assertSame(t, want, sortedRows(t, op))
	}
}
