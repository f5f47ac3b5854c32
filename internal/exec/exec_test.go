package exec

import (
	"math"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/rowstore"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

func intSchema(names ...string) types.Schema {
	s := make(types.Schema, len(names))
	for i, n := range names {
		s[i] = types.Column{Name: n, Kind: types.KindInt, Nullable: true}
	}
	return s
}

func intRows(vals ...[]int64) []types.Row {
	rows := make([]types.Row, len(vals))
	for i, r := range vals {
		row := make(types.Row, len(r))
		for j, v := range r {
			row[j] = types.NewInt(v)
		}
		rows[i] = row
	}
	return rows
}

// rowFunc is a pure ApplyExpr over the first n columns, which fn sees as a
// row: the tests' stand-in for a scalar function with no kernel.
func rowFunc(n int, fn func(r types.Row) (types.Value, error)) *ApplyExpr {
	args := make([]Expr, n)
	for i := range args {
		args[i] = ColRef(i)
	}
	return &ApplyExpr{Args: args, Fn: func(a []types.Value) (types.Value, error) { return fn(a) }}
}

// cmpExpr builds a comparison Expr for tests.
func cmpExpr(col int, op encoding.CmpOp, v types.Value) Expr {
	return rowFunc(col+1, func(row types.Row) (types.Value, error) {
		return types.NewBool(op.Eval(row[col], v)), nil
	})
}

func TestValuesAndDrain(t *testing.T) {
	op := NewValues(intSchema("a"), intRows([]int64{1}, []int64{2}, []int64{3}))
	rows, err := Drain(op)
	if err != nil || len(rows) != 3 {
		t.Fatalf("rows %d err %v", len(rows), err)
	}
}

func TestFilter(t *testing.T) {
	op := &FilterOp{
		Child: NewValues(intSchema("a"), intRows([]int64{1}, []int64{5}, []int64{10})),
		Pred:  cmpExpr(0, encoding.OpGT, types.NewInt(3)),
	}
	rows, err := Drain(op)
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows %v err %v", rows, err)
	}
}

func TestFilterNullPredicateDrops(t *testing.T) {
	op := &FilterOp{
		Child: NewValues(intSchema("a"), []types.Row{{types.Null}, {types.NewInt(1)}}),
		Pred:  cmpExpr(0, encoding.OpEQ, types.NewInt(1)),
	}
	rows, _ := Drain(op)
	if len(rows) != 1 {
		t.Fatalf("NULL comparison must drop row: %v", rows)
	}
}

func TestProject(t *testing.T) {
	op := &ProjectOp{
		Child: NewValues(intSchema("a", "b"), intRows([]int64{2, 3})),
		Exprs: []Expr{
			rowFunc(2, func(r types.Row) (types.Value, error) {
				return types.NewInt(r[0].Int() + r[1].Int()), nil
			}),
			ColRef(0),
		},
		Out: intSchema("sum", "a"),
	}
	rows, err := Drain(op)
	if err != nil || rows[0][0].Int() != 5 || rows[0][1].Int() != 2 {
		t.Fatalf("rows %v err %v", rows, err)
	}
}

func TestLimitOffset(t *testing.T) {
	mk := func() Operator {
		var data [][]int64
		for i := int64(0); i < 2500; i++ {
			data = append(data, []int64{i})
		}
		return NewValues(intSchema("a"), intRows(data...))
	}
	rows, err := Drain(&LimitOp{Child: mk(), Offset: 0, Limit: 10})
	if err != nil || len(rows) != 10 {
		t.Fatalf("limit: %d %v", len(rows), err)
	}
	rows, _ = Drain(&LimitOp{Child: mk(), Offset: 2490, Limit: 100})
	if len(rows) != 10 || rows[0][0].Int() != 2490 {
		t.Fatalf("offset past chunk boundary: %d rows, first %v", len(rows), rows[0])
	}
	rows, _ = Drain(&LimitOp{Child: mk(), Offset: 5, Limit: -1})
	if len(rows) != 2495 {
		t.Fatalf("unlimited with offset: %d", len(rows))
	}
	rows, _ = Drain(&LimitOp{Child: mk(), Offset: 0, Limit: 0})
	if len(rows) != 0 {
		t.Fatalf("limit 0: %d", len(rows))
	}
}

func TestUnionAll(t *testing.T) {
	u := &UnionAllOp{Children: []Operator{
		NewValues(intSchema("a"), intRows([]int64{1})),
		NewValues(intSchema("a"), intRows([]int64{2}, []int64{3})),
	}}
	rows, err := Drain(u)
	if err != nil || len(rows) != 3 {
		t.Fatalf("union: %d %v", len(rows), err)
	}
}

func TestHashJoinInner(t *testing.T) {
	left := NewValues(intSchema("id", "x"), intRows(
		[]int64{1, 10}, []int64{2, 20}, []int64{3, 30}, []int64{2, 21},
	))
	right := NewValues(intSchema("id", "y"), intRows(
		[]int64{2, 200}, []int64{3, 300}, []int64{4, 400},
	))
	j := &HashJoinOp{Left: left, Right: right, LeftKeys: []int{0}, RightKeys: []int{0}, Type: InnerJoin}
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // ids 2 (x2 left rows), 3
		t.Fatalf("inner join rows %d: %v", len(rows), rows)
	}
	for _, r := range rows {
		if r[0].Int() != r[2].Int() {
			t.Fatalf("key mismatch in %v", r)
		}
	}
}

func TestHashJoinLeft(t *testing.T) {
	left := NewValues(intSchema("id"), intRows([]int64{1}, []int64{2}))
	right := NewValues(intSchema("id", "y"), intRows([]int64{2, 200}))
	j := &HashJoinOp{Left: left, Right: right, LeftKeys: []int{0}, RightKeys: []int{0}, Type: LeftJoin}
	rows, err := Drain(j)
	if err != nil || len(rows) != 2 {
		t.Fatalf("left join rows %d err %v", len(rows), err)
	}
	var unmatched types.Row
	for _, r := range rows {
		if r[0].Int() == 1 {
			unmatched = r
		}
	}
	if unmatched == nil || !unmatched[1].IsNull() || !unmatched[2].IsNull() {
		t.Fatalf("unmatched row not NULL-padded: %v", unmatched)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	left := NewValues(intSchema("id"), []types.Row{{types.Null}, {types.NewInt(1)}})
	right := NewValues(intSchema("id"), []types.Row{{types.Null}, {types.NewInt(1)}})
	j := &HashJoinOp{Left: left, Right: right, LeftKeys: []int{0}, RightKeys: []int{0}, Type: InnerJoin}
	rows, _ := Drain(j)
	if len(rows) != 1 {
		t.Fatalf("NULL keys joined: %v", rows)
	}
}

func TestHashJoinPartitioned(t *testing.T) {
	// Build side big enough to spread over the join's hash partitions.
	var l, r [][]int64
	for i := int64(0); i < 30000; i++ {
		r = append(r, []int64{i, i * 2})
	}
	for i := int64(0); i < 5000; i++ {
		l = append(l, []int64{i * 6})
	}
	j := &HashJoinOp{
		Left:     NewValues(intSchema("k"), intRows(l...)),
		Right:    NewValues(intSchema("k", "v"), intRows(r...)),
		LeftKeys: []int{0}, RightKeys: []int{0}, Type: InnerJoin,
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	filled := 0
	for _, keys := range j.table.count {
		if keys > 0 {
			filled++
		}
	}
	if filled < 2 {
		t.Fatalf("expected multiple partitions, got %d", filled)
	}
	var rows []types.Row
	for {
		vb, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if vb == nil {
			break
		}
		rows = vb.AppendRows(rows)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := int64(0); i < 5000; i++ {
		if i*6 < 30000 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("partitioned join rows %d want %d", len(rows), want)
	}
}

// TestHashJoinBadKeys: key lists of two lengths are an error; no keys at
// all is a cross join.
func TestHashJoinBadKeys(t *testing.T) {
	j := &HashJoinOp{
		Left:  NewValues(intSchema("a"), intRows([]int64{1}, []int64{2}, []int64{3})),
		Right: NewValues(intSchema("b"), intRows([]int64{4}, []int64{5})),
	}
	if rows, err := Drain(j); err != nil || len(rows) != 6 {
		t.Fatalf("cross join: %d rows, %v; want 6", len(rows), err)
	}
	j.LeftKeys = []int{0}
	if _, err := Drain(j); err == nil {
		t.Fatal("key lists of two lengths must error")
	}
}

// TestThetaJoinAllocsFollowMatches: a 200 × 200 keyless join on
// (l + r) % 100 = 0, in which 1 % of the 40 000 pairs match, allocates per
// chunk of pairs and per match, not per pair.
func TestThetaJoinAllocsFollowMatches(t *testing.T) {
	var side [][]int64
	for i := int64(0); i < 200; i++ {
		side = append(side, []int64{i})
	}
	for _, jt := range []JoinType{InnerJoin, LeftJoin} {
		j := &HashJoinOp{
			Left: NewValues(intSchema("l"), intRows(side...)), Right: NewValues(intSchema("r"), intRows(side...)), Type: jt,
			Residual: &CmpExpr{Op: encoding.OpEQ,
				L: &ArithExpr{Op: "%", L: &ArithExpr{Op: "+", L: ColRef(0), R: ColRef(1)}, R: Const{V: types.NewInt(100)}},
				R: Const{V: types.NewInt(0)}},
		}
		var rows []types.Row
		allocs := testing.AllocsPerRun(5, func() { rows, _ = Drain(j) })
		if len(rows) != 400 {
			t.Fatalf("%v: %d rows, want 400", jt, len(rows))
		}
		if allocs > 4*400 {
			t.Fatalf("%v: %.0f allocations for 400 matches among 40 000 pairs", jt, allocs)
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	// groups: g=0 → vals 0,2,4,6,8 ; g=1 → 1,3,5,7,9
	var data []types.Row
	for i := int64(0); i < 10; i++ {
		data = append(data, types.Row{types.NewInt(i % 2), types.NewInt(i)})
	}
	g := &GroupByOp{
		Child:     NewValues(intSchema("g", "v"), data),
		GroupBy:   []Expr{ColRef(0)},
		GroupCols: intSchema("g"),
		Aggs: []AggSpec{
			{Func: AggCountStar, Name: "cnt"},
			{Func: AggSum, Arg: ColRef(1), Name: "sum"},
			{Func: AggAvg, Arg: ColRef(1), Name: "avg"},
			{Func: AggMin, Arg: ColRef(1), Name: "min"},
			{Func: AggMax, Arg: ColRef(1), Name: "max"},
		},
	}
	rows, err := Drain(g)
	if err != nil || len(rows) != 2 {
		t.Fatalf("groups %d err %v", len(rows), err)
	}
	for _, r := range rows {
		grp := r[0].Int()
		if r[1].Int() != 5 {
			t.Errorf("group %d count %v", grp, r[1])
		}
		wantSum := int64(20)
		if grp == 1 {
			wantSum = 25
		}
		if r[2].Int() != wantSum {
			t.Errorf("group %d sum %v want %d", grp, r[2], wantSum)
		}
		if r[4].Int() != grp {
			t.Errorf("group %d min %v", grp, r[4])
		}
		if r[5].Int() != 8+grp {
			t.Errorf("group %d max %v", grp, r[5])
		}
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	g := &GroupByOp{
		Child: NewValues(intSchema("v"), nil),
		Aggs: []AggSpec{
			{Func: AggCountStar, Name: "cnt"},
			{Func: AggSum, Arg: ColRef(0), Name: "sum"},
		},
	}
	rows, err := Drain(g)
	if err != nil || len(rows) != 1 {
		t.Fatalf("global agg rows %d err %v", len(rows), err)
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("empty input: %v", rows[0])
	}
}

func TestStatisticalAggregates(t *testing.T) {
	var data []types.Row
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		data = append(data, types.Row{types.NewFloat(v)})
	}
	sch := types.Schema{{Name: "v", Kind: types.KindFloat}}
	g := &GroupByOp{
		Child: NewValues(sch, data),
		Aggs: []AggSpec{
			{Func: AggStddevPop, Arg: ColRef(0), Name: "sdp"},
			{Func: AggVarPop, Arg: ColRef(0), Name: "vp"},
			{Func: AggStddevSamp, Arg: ColRef(0), Name: "sds"},
			{Func: AggMedian, Arg: ColRef(0), Name: "med"},
			{Func: AggPercentileCont, Arg: ColRef(0), Param: 0.25, Name: "p25"},
			{Func: AggPercentileDisc, Arg: ColRef(0), Param: 0.5, Name: "pd50"},
			{Func: AggCountDistinct, Arg: ColRef(0), Name: "cd"},
		},
	}
	rows, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if math.Abs(r[0].Float()-2.0) > 1e-9 {
		t.Errorf("stddev_pop %v want 2", r[0])
	}
	if math.Abs(r[1].Float()-4.0) > 1e-9 {
		t.Errorf("var_pop %v want 4", r[1])
	}
	if math.Abs(r[2].Float()-math.Sqrt(32.0/7)) > 1e-9 {
		t.Errorf("stddev_samp %v", r[2])
	}
	if math.Abs(r[3].Float()-4.5) > 1e-9 {
		t.Errorf("median %v want 4.5", r[3])
	}
	if r[6].Int() != 5 {
		t.Errorf("count distinct %v want 5", r[6])
	}

	// A large common offset: Σx² - n·mean² cancels every significant digit
	// (VAR_SAMP and STDDEV_POP both read 0), the running co-moment does not.
	g.Child = NewValues(sch, []types.Row{{types.NewFloat(1e9 + 1)}, {types.NewFloat(1e9 + 2)}, {types.NewFloat(1e9 + 3)}})
	g.Aggs = []AggSpec{
		{Func: AggVarSamp, Arg: ColRef(0), Name: "vs"},
		{Func: AggStddevPop, Arg: ColRef(0), Name: "sdp"},
		{Func: AggVarPop, Arg: ColRef(0), Name: "vp"},
		{Func: AggStddevSamp, Arg: ColRef(0), Name: "sds"},
	}
	if rows, err = Drain(g); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, math.Sqrt(2.0 / 3), 2.0 / 3, 1} {
		if got := rows[0][i].Float(); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s over {1e9+1, 1e9+2, 1e9+3} = %v, want %v", g.Aggs[i].Name, got, want)
		}
	}
}

func TestCovariance(t *testing.T) {
	sch := types.Schema{{Name: "x", Kind: types.KindFloat}, {Name: "y", Kind: types.KindFloat}}
	var data []types.Row
	for i := 0; i < 10; i++ {
		data = append(data, types.Row{types.NewFloat(float64(i)), types.NewFloat(float64(2*i + 1))})
	}
	g := &GroupByOp{
		Child: NewValues(sch, data),
		Aggs: []AggSpec{
			{Func: AggCovarPop, Arg: ColRef(0), Arg2: ColRef(1), Name: "cp"},
			{Func: AggCovarSamp, Arg: ColRef(0), Arg2: ColRef(1), Name: "cs"},
		},
	}
	rows, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	// var_pop(x) = 8.25, cov_pop(x, 2x+1) = 2*8.25 = 16.5
	if math.Abs(rows[0][0].Float()-16.5) > 1e-9 {
		t.Errorf("covar_pop %v want 16.5", rows[0][0])
	}
	if math.Abs(rows[0][1].Float()-16.5*10/9) > 1e-9 {
		t.Errorf("covar_samp %v", rows[0][1])
	}

	// The same pairs moved out by 1e9: ΣXY - ΣX·ΣY/n no longer holds them
	// apart (it read 0 or noise); the covariance is unchanged.
	for _, r := range data {
		r[0], r[1] = types.NewFloat(r[0].Float()+1e9), types.NewFloat(r[1].Float()+2e9)
	}
	if rows, err = Drain(g); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{16.5, 16.5 * 10 / 9} {
		if got := rows[0][i].Float(); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s at offset 1e9 = %v, want %v", g.Aggs[i].Name, got, want)
		}
	}
}

func TestGroupByNullsFormOneGroup(t *testing.T) {
	data := []types.Row{
		{types.Null, types.NewInt(1)},
		{types.Null, types.NewInt(2)},
		{types.NewInt(7), types.NewInt(3)},
	}
	g := &GroupByOp{
		Child:     NewValues(intSchema("g", "v"), data),
		GroupBy:   []Expr{ColRef(0)},
		GroupCols: intSchema("g"),
		Aggs:      []AggSpec{{Func: AggCountStar, Name: "cnt"}},
	}
	rows, err := Drain(g)
	if err != nil || len(rows) != 2 {
		t.Fatalf("NULL grouping: %v err %v", rows, err)
	}
}

// TestDistinct is duplicate elimination as the planner lowers it: a
// group-by on every column with no aggregates.
func TestDistinct(t *testing.T) {
	d := &GroupByOp{
		Child: NewValues(intSchema("a"), intRows(
			[]int64{1}, []int64{2}, []int64{1}, []int64{3}, []int64{2},
		)),
		GroupBy:   []Expr{ColRef(0)},
		GroupCols: intSchema("a"),
	}
	rows, err := Drain(d)
	if err != nil || len(rows) != 3 {
		t.Fatalf("distinct: %v err %v", rows, err)
	}
}

func TestSort(t *testing.T) {
	data := intRows([]int64{3, 1}, []int64{1, 2}, []int64{2, 3}, []int64{1, 1})
	s := &SortOp{
		Child: NewValues(intSchema("a", "b"), data),
		Keys:  []SortKey{{Expr: ColRef(0)}, {Expr: ColRef(1), Desc: true}},
	}
	rows, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 2}, {1, 1}, {2, 3}, {3, 1}}
	for i, w := range want {
		if rows[i][0].Int() != w[0] || rows[i][1].Int() != w[1] {
			t.Fatalf("sort order at %d: %v want %v", i, rows[i], w)
		}
	}
}

func TestSortNullsFirstAsc(t *testing.T) {
	data := []types.Row{{types.NewInt(1)}, {types.Null}, {types.NewInt(0)}}
	s := &SortOp{Child: NewValues(intSchema("a"), data), Keys: []SortKey{{Expr: ColRef(0)}}}
	rows, _ := Drain(s)
	if !rows[0][0].IsNull() {
		t.Fatalf("NULLs must sort first ascending: %v", rows)
	}
	s2 := &SortOp{Child: NewValues(intSchema("a"), data), Keys: []SortKey{{Expr: ColRef(0), Desc: true}}}
	rows, _ = Drain(s2)
	if !rows[2][0].IsNull() {
		t.Fatalf("NULLs must sort last descending: %v", rows)
	}
}

func TestScanOpOverColumnar(t *testing.T) {
	tbl := columnar.NewTable(10, "t", intSchema("a", "b"), columnar.Config{})
	var rows []types.Row
	for i := int64(0); i < 5000; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(i % 7)})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	scan := NewScan(tbl, []columnar.Pred{{Col: 1, Op: encoding.OpEQ, Val: types.NewInt(3)}}, []int{0})
	got, err := Drain(scan)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := int64(0); i < 5000; i++ {
		if i%7 == 3 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("scan rows %d want %d", len(got), want)
	}
	if len(got[0]) != 1 {
		t.Fatalf("projection width %d", len(got[0]))
	}
}

func TestScanOpEarlyClose(t *testing.T) {
	tbl := columnar.NewTable(11, "t", intSchema("a"), columnar.Config{})
	var rows []types.Row
	for i := int64(0); i < 20000; i++ {
		rows = append(rows, types.Row{types.NewInt(i)})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	scan := NewScan(tbl, nil, nil)
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := scan.Next(); err != nil {
		t.Fatal(err)
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	// Double close is safe.
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRowScanOp(t *testing.T) {
	tbl := rowstore.NewTable("r", intSchema("a"))
	for i := int64(0); i < 100; i++ {
		tbl.Insert(types.Row{types.NewInt(i)})
	}
	op := &RowScanOp{Table: tbl, Pred: func(r types.Row) bool { return r[0].Int() < 10 }}
	rows, err := Drain(op)
	if err != nil || len(rows) != 10 {
		t.Fatalf("rowscan %d err %v", len(rows), err)
	}
}

func TestEndToEndPipeline(t *testing.T) {
	// scan → filter → join → group → sort → limit over columnar tables.
	fact := columnar.NewTable(20, "fact", intSchema("k", "v"), columnar.Config{})
	dim := columnar.NewTable(21, "dim", intSchema("k", "cat"), columnar.Config{})
	var frows, drows []types.Row
	for i := int64(0); i < 3000; i++ {
		frows = append(frows, types.Row{types.NewInt(i % 50), types.NewInt(i)})
	}
	for i := int64(0); i < 50; i++ {
		drows = append(drows, types.Row{types.NewInt(i), types.NewInt(i % 5)})
	}
	if err := fact.InsertBatch(frows); err != nil {
		t.Fatal(err)
	}
	if err := dim.InsertBatch(drows); err != nil {
		t.Fatal(err)
	}
	join := &HashJoinOp{
		Left:     NewScan(fact, nil, nil),
		Right:    NewScan(dim, nil, nil),
		LeftKeys: []int{0}, RightKeys: []int{0}, Type: InnerJoin,
	}
	group := &GroupByOp{
		Child:     join,
		GroupBy:   []Expr{ColRef(3)}, // dim.cat
		GroupCols: intSchema("cat"),
		Aggs:      []AggSpec{{Func: AggSum, Arg: ColRef(1), Name: "total"}},
	}
	sorted := &SortOp{Child: group, Keys: []SortKey{{Expr: ColRef(0)}}}
	rows, err := Drain(sorted)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("categories %d", len(rows))
	}
	var grand int64
	for _, r := range rows {
		grand += r[1].Int()
	}
	if grand != 3000*2999/2 {
		t.Fatalf("grand total %d", grand)
	}
}

func BenchmarkHashJoin(b *testing.B) {
	var l, r [][]int64
	for i := int64(0); i < 10000; i++ {
		l = append(l, []int64{i % 1000, i})
	}
	for i := int64(0); i < 1000; i++ {
		r = append(r, []int64{i, i * 10})
	}
	for i := 0; i < b.N; i++ {
		j := &HashJoinOp{
			Left:     NewValues(intSchema("k", "v"), intRows(l...)),
			Right:    NewValues(intSchema("k", "w"), intRows(r...)),
			LeftKeys: []int{0}, RightKeys: []int{0}, Type: InnerJoin,
		}
		if _, err := Drain(j); err != nil {
			b.Fatal(err)
		}
	}
}

// errOp fails at a chosen point in the Operator lifecycle.
type errOp struct {
	failOpen, failNext bool
	sch                types.Schema
}

func (e *errOp) Schema() types.Schema { return e.sch }
func (e *errOp) Open() error {
	if e.failOpen {
		return errTestFailure
	}
	return nil
}
func (e *errOp) Next() (*vec.Batch, error) {
	if e.failNext {
		return nil, errTestFailure
	}
	return nil, nil
}
func (e *errOp) Close() error { return nil }

var errTestFailure = errFail("synthetic failure")

type errFail string

func (e errFail) Error() string { return string(e) }

// TestErrorPropagation verifies every operator surfaces child failures
// from both Open and Next instead of swallowing them.
func TestErrorPropagation(t *testing.T) {
	sch := intSchema("a")
	mk := func(failOpen bool) Operator { return &errOp{failOpen: failOpen, failNext: !failOpen, sch: sch} }
	build := []struct {
		name string
		op   func(child Operator) Operator
	}{
		{"filter", func(c Operator) Operator {
			return &FilterOp{Child: c, Pred: cmpExpr(0, encoding.OpEQ, types.NewInt(1))}
		}},
		{"project", func(c Operator) Operator {
			return &ProjectOp{Child: c, Exprs: []Expr{ColRef(0)}, Out: sch}
		}},
		{"limit", func(c Operator) Operator { return &LimitOp{Child: c, Limit: 10} }},
		{"sort", func(c Operator) Operator {
			return &SortOp{Child: c, Keys: []SortKey{{Expr: ColRef(0)}}}
		}},
		{"group", func(c Operator) Operator {
			return &GroupByOp{Child: c, GroupBy: []Expr{ColRef(0)}, GroupCols: sch,
				Aggs: []AggSpec{{Func: AggCountStar, Name: "n"}}}
		}},
		{"union", func(c Operator) Operator {
			return &UnionAllOp{Children: []Operator{NewValues(sch, nil), c}}
		}},
		{"hashjoin-build", func(c Operator) Operator {
			return &HashJoinOp{Left: NewValues(sch, nil), Right: c, LeftKeys: []int{0}, RightKeys: []int{0}}
		}},
		{"hashjoin-probe", func(c Operator) Operator {
			return &HashJoinOp{Left: c, Right: NewValues(sch, nil), LeftKeys: []int{0}, RightKeys: []int{0}}
		}},
		{"keyless-join", func(c Operator) Operator {
			return &HashJoinOp{Left: NewValues(sch, intRows([]int64{1})), Right: c}
		}},
	}
	for _, b := range build {
		for _, failOpen := range []bool{true, false} {
			if _, err := Drain(b.op(mk(failOpen))); err == nil {
				t.Errorf("%s (failOpen=%v): error swallowed", b.name, failOpen)
			}
		}
	}
	// Expression evaluation errors propagate too.
	boom := rowFunc(0, func(types.Row) (types.Value, error) { return types.Null, errTestFailure })
	if _, err := Drain(&FilterOp{Child: NewValues(sch, intRows([]int64{1})), Pred: boom}); err == nil {
		t.Error("filter expression error swallowed")
	}
	if _, err := Drain(&ProjectOp{Child: NewValues(sch, intRows([]int64{1})), Exprs: []Expr{boom}, Out: sch}); err == nil {
		t.Error("projection expression error swallowed")
	}
	g := &GroupByOp{Child: NewValues(sch, intRows([]int64{1})), GroupBy: []Expr{boom}, GroupCols: sch,
		Aggs: []AggSpec{{Func: AggCountStar, Name: "n"}}}
	if _, err := Drain(g); err == nil {
		t.Error("group key expression error swallowed")
	}
}
