package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/types"
)

// vecTestSchema is the mixed-kind schema used by the property tests:
// nullable int, int, float and string columns.
func vecTestSchema() types.Schema {
	return types.Schema{
		{Name: "a", Kind: types.KindInt, Nullable: true},
		{Name: "b", Kind: types.KindInt, Nullable: true},
		{Name: "f", Kind: types.KindFloat, Nullable: true},
		{Name: "s", Kind: types.KindString, Nullable: true},
	}
}

// randVecTable builds a columnar table of n randomized rows (deterministic
// seed) with ~10% NULLs in every column.
func randVecTable(t testing.TB, id uint32, n int, seed int64) *columnar.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := columnar.NewTable(id, fmt.Sprintf("vt%d", id), vecTestSchema(), columnar.Config{})
	rows := make([]types.Row, n)
	for i := range rows {
		row := make(types.Row, 4)
		if rng.Intn(10) == 0 {
			row[0] = types.Null
		} else {
			row[0] = types.NewInt(rng.Int63n(1000))
		}
		if rng.Intn(10) == 0 {
			row[1] = types.Null
		} else {
			row[1] = types.NewInt(rng.Int63n(100) - 50)
		}
		if rng.Intn(10) == 0 {
			row[2] = types.Null
		} else {
			row[2] = types.NewFloat(rng.Float64()*500 - 250)
		}
		if rng.Intn(10) == 0 {
			row[3] = types.Null
		} else {
			row[3] = types.NewString(fmt.Sprintf("s%03d", rng.Intn(200)))
		}
		rows[i] = row
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// scanDop builds a serial or parallel columnar scan for tests, decoding
// dictionary columns at the scan.
func scanDop(t *columnar.Table, dop int) *ScanOp {
	s := NewScan(t, nil, nil)
	s.Dop = dop
	return s
}

// scanCodes is scanDop emitting dictionary columns as code vectors, the
// scan the SQL compiler builds.
func scanCodes(t *columnar.Table, dop int) *ScanOp {
	s := scanDop(t, dop)
	s.EnableCompressed()
	return s
}

// rowKey canonicalizes a row for order-insensitive multiset comparison.
func rowKey(r types.Row) string { return rowKeyPrec(r, "%g") }

// rowKeyPrec is rowKey with a caller-chosen float format: parallel scans
// deliver batches in nondeterministic order, so float aggregates (AVG)
// accumulate in different orders across runs — compare those with limited
// precision instead of bit-exactly.
func rowKeyPrec(r types.Row, ffmt string) string {
	out := ""
	for _, v := range r {
		if v.IsNull() {
			out += "|∅"
			continue
		}
		switch v.Kind() {
		case types.KindInt, types.KindDate, types.KindTimestamp:
			out += fmt.Sprintf("|i%d", v.Int())
		case types.KindFloat:
			out += fmt.Sprintf("|f"+ffmt, v.Float())
		case types.KindBool:
			out += fmt.Sprintf("|b%v", v.Bool())
		default:
			out += "|s" + v.Str()
		}
	}
	return out
}

func sortedKeys(t testing.TB, op Operator) []string {
	return sortedKeysPrec(t, op, "%g")
}

func sortedKeysPrec(t testing.TB, op Operator, ffmt string) []string {
	t.Helper()
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = rowKeyPrec(r, ffmt)
	}
	sort.Strings(keys)
	return keys
}

func requireEqualKeys(t *testing.T, ctx string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: want %d rows, got %d rows", ctx, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: row %d differs:\n want: %s\n  got: %s", ctx, i, want[i], got[i])
		}
	}
}

// vecTestPred: (a < 500 AND f * 2.0 > -100.0) OR b % 7 = 0 — exercises
// comparison, arithmetic and three-valued AND/OR kernels over NULLs.
func vecTestPred() Expr {
	return &OrExpr{
		L: &AndExpr{
			L: &CmpExpr{Op: encoding.OpLT, L: ColRef(0), R: Const{V: types.NewInt(500)}},
			R: &CmpExpr{Op: encoding.OpGT,
				L: &ArithExpr{Op: "*", L: ColRef(2), R: Const{V: types.NewFloat(2.0)}},
				R: Const{V: types.NewFloat(-100.0)}},
		},
		R: &CmpExpr{Op: encoding.OpEQ,
			L: &ArithExpr{Op: "%", L: ColRef(1), R: Const{V: types.NewInt(7)}},
			R: Const{V: types.NewInt(0)}},
	}
}

// vecTestProjExprs covers arithmetic, negation, NOT and string pass-through.
func vecTestProjExprs() ([]Expr, types.Schema) {
	exprs := []Expr{
		&ArithExpr{Op: "+", L: ColRef(0), R: ColRef(1)},
		&NegExpr{E: ColRef(2)},
		&NotExpr{E: &CmpExpr{Op: encoding.OpLT, L: ColRef(0), R: ColRef(1)}},
		ColRef(3),
	}
	out := types.Schema{
		{Name: "ab", Kind: types.KindInt, Nullable: true},
		{Name: "nf", Kind: types.KindFloat, Nullable: true},
		{Name: "nb", Kind: types.KindBool, Nullable: true},
		{Name: "s", Kind: types.KindString, Nullable: true},
	}
	return exprs, out
}

// TestVectorFilterProjectEquivalence is the core property test: a
// scan→filter→project plan must produce the multiset a plain loop over
// Expr.Eval produces, across degrees of parallelism and random seeds.
func TestVectorFilterProjectEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		tbl := randVecTable(t, uint32(400+seed), 7000, seed)
		exprs, out := vecTestProjExprs()
		want := sortedRowKeys(oracleProject(t, oracleFilter(t, tableRows(t, tbl), vecTestPred()), exprs))
		for _, dop := range []int{1, 2, 8} {
			op := &ProjectOp{
				Child: &FilterOp{Child: scanCodes(tbl, dop), Pred: vecTestPred()},
				Exprs: exprs, Out: out,
			}
			requireEqualKeys(t, fmt.Sprintf("seed=%d dop=%d", seed, dop), want, sortedKeys(t, op))
		}
	}
}

func TestVectorFilterEmptyAndAllFalse(t *testing.T) {
	empty := columnar.NewTable(420, "empty", vecTestSchema(), columnar.Config{})
	full := randVecTable(t, 421, 3000, 7)
	allFalse := &CmpExpr{Op: encoding.OpLT, L: ColRef(0), R: Const{V: types.NewInt(-1)}}
	for _, tc := range []struct {
		name string
		tbl  *columnar.Table
		pred Expr
	}{
		{"empty-table", empty, vecTestPred()},
		{"all-false", full, allFalse},
	} {
		got := sortedKeys(t, &FilterOp{Child: scanCodes(tc.tbl, 1), Pred: tc.pred})
		if len(got) != 0 {
			t.Fatalf("%s: kept %d rows", tc.name, len(got))
		}
		requireEqualKeys(t, tc.name, sortedRowKeys(oracleFilter(t, tableRows(t, tc.tbl), tc.pred)), got)
	}
}

// TestVectorGroupByEquivalence checks GroupByOp's batch ingest against the
// sort-based oracle, including NULL groups, NULL aggregate inputs and an
// opaque aggregate argument.
func TestVectorGroupByEquivalence(t *testing.T) {
	tbl := randVecTable(t, 430, 9000, 99)
	rows := tableRows(t, tbl)
	aggs := []AggSpec{
		{Func: AggCountStar, Name: "cnt"},
		{Func: AggSum, Arg: ColRef(1), Name: "sum"},
		{Func: AggAvg, Arg: ColRef(2), Name: "avg"},
		{Func: AggMin, Arg: ColRef(0), Name: "min"},
		{Func: AggMax, Arg: ColRef(0), Name: "max"},
		{Func: AggCount, Arg: ColRef(3), Name: "cs"},
	}
	gcols := types.Schema{{Name: "g", Kind: types.KindInt, Nullable: true}}
	gkey := []Expr{&ArithExpr{Op: "%", L: ColRef(0), R: Const{V: types.NewInt(5)}}}
	for _, dop := range []int{1, 8} {
		g := &GroupByOp{Child: scanCodes(tbl, dop), GroupBy: gkey, GroupCols: gcols, Aggs: aggs, Dop: dop}
		if g.Workers() != dop {
			t.Fatalf("dop=%d: %d ingest workers", dop, g.Workers())
		}
		// dop>1: batch arrival order is nondeterministic, so float AVG
		// sums in different orders — compare at 9 significant digits.
		ffmt := "%g"
		if dop > 1 {
			ffmt = "%.9g"
		}
		want := make([]string, 0, 6)
		for _, r := range oracleGroupBy(t, rows, gkey, aggs) {
			want = append(want, rowKeyPrec(r, ffmt))
		}
		sort.Strings(want)
		requireEqualKeys(t, fmt.Sprintf("groupby dop=%d", dop), want, sortedKeysPrec(t, g, ffmt))
	}
	// An aggregate argument with no kernel is an ApplyExpr inside the same
	// ingest loop: on every worker when it is pure, on one when it is
	// stateful, and it agrees either way.
	triple := rowFunc(2, func(r types.Row) (types.Value, error) {
		if r[1].IsNull() {
			return types.Null, nil
		}
		return types.NewInt(r[1].Int() * 3), nil
	})
	for _, stateful := range []bool{false, true} {
		arg := *triple
		arg.Stateful = stateful
		udfAggs := []AggSpec{{Func: AggSum, Name: "s", Arg: &arg}}
		g := &GroupByOp{Child: scanCodes(tbl, 4), GroupBy: gkey, GroupCols: gcols, Aggs: udfAggs, Dop: 4}
		if want := map[bool]int{false: 4, true: 1}[stateful]; g.Workers() != want {
			t.Fatalf("aggregate argument stateful=%v: %d ingest workers, want %d", stateful, g.Workers(), want)
		}
		requireEqualKeys(t, "groupby-udf", sortedRowKeys(oracleGroupBy(t, rows, gkey, udfAggs)), sortedKeys(t, g))
	}
}

// TestVectorHashJoinBuildEquivalence checks the columnar NULL-key-skipping
// build-side pull against the nested-loop oracle.
func TestVectorHashJoinBuildEquivalence(t *testing.T) {
	left := randVecTable(t, 440, 4000, 5)
	right := randVecTable(t, 441, 800, 6)
	j := &HashJoinOp{
		Left: scanCodes(left, 1), Right: scanCodes(right, 1),
		LeftKeys: []int{0}, RightKeys: []int{0}, Type: InnerJoin,
	}
	want := nestedLoopJoin(tableRows(t, left), tableRows(t, right), []int{0}, []int{0}, InnerJoin, vecTestSchema(), nil)
	requireEqualKeys(t, "hashjoin", sortedRowKeys(want), sortedKeys(t, j))
}

// TestVectorLimitEquivalence compares exact sequences (serial scans are
// deterministic) across offsets that straddle batch boundaries.
func TestVectorLimitEquivalence(t *testing.T) {
	tbl := randVecTable(t, 450, 5000, 11)
	all := tableRows(t, tbl)
	for _, tc := range []struct{ off, lim int64 }{
		{0, 10}, {4990, 100}, {5, -1}, {0, 0}, {1023, 2},
	} {
		want := all[min(tc.off, int64(len(all))):]
		if tc.lim >= 0 {
			want = want[:min(tc.lim, int64(len(want)))]
		}
		got, err := Drain(&LimitOp{Child: NewScan(tbl, nil, nil), Offset: tc.off, Limit: tc.lim})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("off=%d lim=%d: %d rows, want %d", tc.off, tc.lim, len(got), len(want))
		}
		for i := range want {
			if rowKey(got[i]) != rowKey(want[i]) {
				t.Fatalf("off=%d lim=%d: row %d order differs", tc.off, tc.lim, i)
			}
		}
	}
}

// TestVectorizeScalarFuncFallsBack: a predicate with no kernel (an
// ApplyExpr) runs inside the same FilterOp — over a scan still emitting code
// vectors — and computes the plain loop's result; a pure one leaves the
// pipeline open to concurrent pulls, a stateful one marks it as one that only
// a single goroutine may pull.
func TestVectorizeScalarFuncFallsBack(t *testing.T) {
	tbl := randVecTable(t, 460, 2000, 13)
	pred := rowFunc(1, func(r types.Row) (types.Value, error) {
		if r[0].IsNull() {
			return types.Null, nil
		}
		return types.NewBool(r[0].Int()%3 == 0), nil
	})
	f := &FilterOp{Child: scanCodes(tbl, 1), Pred: pred}
	if Stateful(pred) || !concurrentPull(f) {
		t.Fatal("a pure ApplyExpr filter over a scan allows concurrent pulls")
	}
	stateful := &ApplyExpr{Args: pred.Args, Fn: pred.Fn, Stateful: true}
	if nested := (&NotExpr{E: stateful}); !Stateful(nested) || concurrentPull(&FilterOp{Child: scanCodes(tbl, 1), Pred: nested}) {
		t.Fatal("a stateful ApplyExpr, however deep, must not allow concurrent pulls")
	}
	if !concurrentPull(&FilterOp{Child: scanCodes(tbl, 1), Pred: vecTestPred()}) {
		t.Fatal("a kernel-only filter over a scan allows concurrent pulls")
	}
	requireEqualKeys(t, "udf-filter", sortedRowKeys(oracleFilter(t, tableRows(t, tbl), pred)), sortedKeys(t, f))
	// Nested inside a kernel expression, and as a projection.
	nested := &AndExpr{L: &CmpExpr{Op: encoding.OpLT, L: ColRef(1), R: Const{V: types.NewInt(10)}}, R: pred}
	exprs := []Expr{&NotExpr{E: pred}, &ArithExpr{Op: "+", L: ColRef(0), R: ColRef(1)}}
	p := &ProjectOp{Child: &FilterOp{Child: scanCodes(tbl, 1), Pred: nested}, Exprs: exprs, Out: intSchema("n", "s")}
	requireEqualKeys(t, "udf-nested",
		sortedRowKeys(oracleProject(t, oracleFilter(t, tableRows(t, tbl), nested), exprs)), sortedKeys(t, p))
}

// TestValuesThroughRowOperators pushes a row source that is not a columnar
// scan through filter, projection and limit: the operators narrow and
// project the row-built batches like any other and hand the rows — NULLs
// and mixed kinds included — through unchanged, and a filter and limit
// alone hand back the very rows VALUES holds.
func TestValuesThroughRowOperators(t *testing.T) {
	data := []types.Row{
		{types.NewInt(1), types.Null},
		{types.Null, types.NewString("x")},
		{types.NewInt(3), types.NewString("y")},
		{types.NewFloat(0.5), types.NullOf(types.KindString)},
	}
	sch := types.Schema{
		{Name: "a", Kind: types.KindInt, Nullable: true},
		{Name: "s", Kind: types.KindString, Nullable: true},
	}
	notOne := &NotExpr{E: &CmpExpr{Op: encoding.OpEQ, L: ColRef(0), R: Const{V: types.NewInt(1)}}}
	rows, err := Drain(&LimitOp{Limit: -1, Child: &ProjectOp{
		Child: &FilterOp{Child: NewValues(sch, data), Pred: Const{V: types.NewBool(true)}},
		Exprs: []Expr{ColRef(0), ColRef(1), notOne}, Out: append(sch, types.Column{Name: "n"}),
	}})
	if err != nil || len(rows) != len(data) {
		t.Fatalf("rows %d err %v", len(rows), err)
	}
	want := oracleProject(t, data, []Expr{ColRef(0), ColRef(1), notOne})
	for i := range data {
		if rowKey(rows[i]) != rowKey(want[i]) || rows[i][1].Kind() != data[i][1].Kind() {
			t.Fatalf("row %d: %v != %v", i, rows[i], want[i])
		}
	}
	rows, err = Drain(&LimitOp{Offset: 1, Limit: 1, Child: &FilterOp{Child: NewValues(sch, data), Pred: notOne}})
	if err != nil || len(rows) != 1 || &rows[0][0] != &data[3][0] {
		t.Fatalf("filter+limit over VALUES must hand back the rows it was given: %v %v", rows, err)
	}
}

// TestDrainOwnership: rows Drain returned stay valid — the same values in
// the same backing arrays — after the operator is closed and after it is
// run again, whether an operator boxed them out of vectors (scan, filter),
// holds them as state (sort, group-by, join) or was handed them (VALUES).
func TestDrainOwnership(t *testing.T) {
	tbl := randVecTable(t, 470, 4000, 17)
	data := tableRows(t, tbl)
	for name, mk := range map[string]func() Operator{
		"filter": func() Operator { return &FilterOp{Child: scanCodes(tbl, 1), Pred: vecTestPred()} },
		"sort":   func() Operator { return &SortOp{Child: scanCodes(tbl, 1), Keys: []SortKey{{Expr: ColRef(2)}}} },
		"group-by": func() Operator {
			return &GroupByOp{Child: scanCodes(tbl, 1), GroupBy: []Expr{ColRef(3)}, GroupCols: vecTestSchema()[3:],
				Aggs: []AggSpec{{Func: AggCountStar, Name: "n"}}}
		},
		"join": func() Operator {
			return &HashJoinOp{Left: scanCodes(tbl, 1), Right: NewValues(vecTestSchema(), data[:50]),
				LeftKeys: []int{0}, RightKeys: []int{0}}
		},
		"values": func() Operator { return &LimitOp{Child: NewValues(vecTestSchema(), data), Limit: 3000} },
	} {
		op := mk()
		held, err := Drain(op)
		if err != nil || len(held) == 0 {
			t.Fatalf("%s: %d rows, %v", name, len(held), err)
		}
		saved := rowsKeys(held)
		again, err := Drain(op)
		if err != nil || len(again) != len(held) {
			t.Fatalf("%s: second run %d rows, %v", name, len(again), err)
		}
		for i, r := range held {
			if rowKey(r) != saved[i] {
				t.Fatalf("%s: row %d changed after Close and a second run: %s != %s", name, i, rowKey(r), saved[i])
			}
		}
	}
}

// benchTable is shared by the micro-benchmarks.
func benchVecTable(b *testing.B, n int) *columnar.Table {
	b.Helper()
	tbl := columnar.NewTable(480, "bench", vecTestSchema(), columnar.Config{})
	rng := rand.New(rand.NewSource(1))
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(rng.Int63n(1000)),
			types.NewInt(rng.Int63n(100) - 50),
			types.NewFloat(rng.Float64() * 500),
			types.NewString(fmt.Sprintf("s%03d", rng.Intn(200))),
		}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		b.Fatal(err)
	}
	return tbl
}

func benchFilterPred() Expr {
	// a*2 < 900: arithmetic keeps it out of scan pushdown so the filter
	// operator itself is measured.
	return &CmpExpr{Op: encoding.OpLT,
		L: &ArithExpr{Op: "*", L: ColRef(0), R: Const{V: types.NewInt(2)}},
		R: Const{V: types.NewInt(900)}}
}

func BenchmarkFilter(b *testing.B) {
	tbl := benchVecTable(b, 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPull(b, &FilterOp{Child: NewScan(tbl, nil, []int{0, 1}), Pred: benchFilterPred()})
	}
}

// benchPull exhausts op without boxing a row.
func benchPull(b *testing.B, op Operator) {
	if err := op.Open(); err != nil {
		b.Fatal(err)
	}
	defer op.Close()
	for {
		vb, err := op.Next()
		if err != nil {
			b.Fatal(err)
		}
		if vb == nil {
			return
		}
	}
}

func benchProjExprs() ([]Expr, types.Schema) {
	exprs := []Expr{
		&ArithExpr{Op: "+", L: ColRef(0), R: ColRef(1)},
		&ArithExpr{Op: "*", L: ColRef(2), R: Const{V: types.NewFloat(1.5)}},
	}
	out := types.Schema{
		{Name: "ab", Kind: types.KindInt, Nullable: true},
		{Name: "ff", Kind: types.KindFloat, Nullable: true},
	}
	return exprs, out
}

func BenchmarkProject(b *testing.B) {
	tbl := benchVecTable(b, 200_000)
	exprs, out := benchProjExprs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPull(b, &ProjectOp{Child: NewScan(tbl, nil, []int{0, 1, 2}), Exprs: exprs, Out: out})
	}
}
