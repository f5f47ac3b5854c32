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

// scanDop builds a serial or parallel columnar scan for tests.
func scanDop(t *columnar.Table, dop int) *ScanOp {
	s := NewScan(t, nil, nil)
	s.Dop = dop
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

func requireEqualKeys(t *testing.T, ctx string, row, vecd []string) {
	t.Helper()
	if len(row) != len(vecd) {
		t.Fatalf("%s: row path %d rows, vector path %d rows", ctx, len(row), len(vecd))
	}
	for i := range row {
		if row[i] != vecd[i] {
			t.Fatalf("%s: row %d differs:\n row: %s\n vec: %s", ctx, i, row[i], vecd[i])
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
// scan→filter→project plan run through the row operators and through
// Vectorize must produce identical multisets, across degrees of
// parallelism and random seeds.
func TestVectorFilterProjectEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		tbl := randVecTable(t, uint32(400+seed), 7000, seed)
		for _, dop := range []int{1, 2, 8} {
			mk := func() (Operator, Operator) {
				exprs, out := vecTestProjExprs()
				row := &ProjectOp{
					Child: &FilterOp{Child: scanDop(tbl, dop), Pred: vecTestPred()},
					Exprs: exprs, Out: out,
				}
				exprs2, out2 := vecTestProjExprs()
				vecd := Vectorize(&ProjectOp{
					Child: &FilterOp{Child: scanDop(tbl, dop), Pred: vecTestPred()},
					Exprs: exprs2, Out: out2,
				})
				return row, vecd
			}
			row, vecd := mk()
			if _, ok := vecd.(*RowAdapter); !ok {
				t.Fatalf("plan did not vectorize: %T", vecd)
			}
			ctx := fmt.Sprintf("seed=%d dop=%d", seed, dop)
			requireEqualKeys(t, ctx, sortedKeys(t, row), sortedKeys(t, vecd))
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
		row := &FilterOp{Child: NewScan(tc.tbl, nil, nil), Pred: tc.pred}
		vecd := Vectorize(&FilterOp{Child: NewScan(tc.tbl, nil, nil), Pred: tc.pred})
		rk, vk := sortedKeys(t, row), sortedKeys(t, vecd)
		if len(rk) != 0 && tc.name == "all-false" {
			t.Fatalf("%s: row path kept %d rows", tc.name, len(rk))
		}
		requireEqualKeys(t, tc.name, rk, vk)
	}
}

// TestVectorGroupByEquivalence checks the vector-ingesting GroupBy against
// the row-at-a-time accumulate path, including NULL groups and NULL
// aggregate inputs.
func TestVectorGroupByEquivalence(t *testing.T) {
	tbl := randVecTable(t, 430, 9000, 99)
	mkAggs := func() []AggSpec {
		return []AggSpec{
			{Func: AggCountStar, Name: "cnt"},
			{Func: AggSum, Arg: ColRef(1), Name: "sum"},
			{Func: AggAvg, Arg: ColRef(2), Name: "avg"},
			{Func: AggMin, Arg: ColRef(0), Name: "min"},
			{Func: AggMax, Arg: ColRef(0), Name: "max"},
			{Func: AggCount, Arg: ColRef(3), Name: "cs"},
		}
	}
	gcols := types.Schema{{Name: "g", Kind: types.KindInt, Nullable: true}}
	gkey := func() []Expr {
		return []Expr{&ArithExpr{Op: "%", L: ColRef(0), R: Const{V: types.NewInt(5)}}}
	}
	for _, dop := range []int{1, 8} {
		row := &GroupByOp{Child: scanDop(tbl, dop),
			GroupBy: gkey(), GroupCols: gcols, Aggs: mkAggs()}
		vecd := Vectorize(&GroupByOp{Child: scanDop(tbl, dop),
			GroupBy: gkey(), GroupCols: gcols, Aggs: mkAggs()}).(*GroupByOp)
		if !vecd.VecIngest() {
			t.Fatal("vectorized GroupBy did not take the vector-ingest path")
		}
		// dop>1: batch arrival order is nondeterministic, so float AVG
		// sums in different orders — compare at 9 significant digits.
		ffmt := "%g"
		if dop > 1 {
			ffmt = "%.9g"
		}
		ctx := fmt.Sprintf("groupby dop=%d", dop)
		requireEqualKeys(t, ctx, sortedKeysPrec(t, row, ffmt), sortedKeysPrec(t, vecd, ffmt))
	}
	// A non-vectorizable aggregate argument must fall back to row ingest
	// and still agree.
	udf := FuncExpr(func(r types.Row) (types.Value, error) {
		if r[1].IsNull() {
			return types.Null, nil
		}
		return types.NewInt(r[1].Int() * 3), nil
	})
	row := &GroupByOp{Child: NewScan(tbl, nil, nil), GroupBy: gkey(), GroupCols: gcols,
		Aggs: []AggSpec{{Func: AggSum, Arg: udf, Name: "s"}}}
	vecd := Vectorize(&GroupByOp{Child: NewScan(tbl, nil, nil), GroupBy: gkey(), GroupCols: gcols,
		Aggs: []AggSpec{{Func: AggSum, Arg: udf, Name: "s"}}}).(*GroupByOp)
	if vecd.VecIngest() {
		t.Fatal("UDF aggregate must not claim vector ingest")
	}
	requireEqualKeys(t, "groupby-udf-fallback", sortedKeys(t, row), sortedKeys(t, vecd))
}

// TestVectorHashJoinBuildEquivalence checks the columnar NULL-key-skipping
// build-side drain against the row build.
func TestVectorHashJoinBuildEquivalence(t *testing.T) {
	left := randVecTable(t, 440, 4000, 5)
	right := randVecTable(t, 441, 800, 6)
	mk := func() *HashJoinOp {
		return &HashJoinOp{
			LeftKeys: []int{0}, RightKeys: []int{0}, Type: InnerJoin,
		}
	}
	row := mk()
	row.Left = NewScan(left, nil, nil)
	row.Right = NewScan(right, nil, nil)
	vecd := mk()
	j := Vectorize(&HashJoinOp{
		Left: NewScan(left, nil, nil), Right: NewScan(right, nil, nil),
		LeftKeys: []int{0}, RightKeys: []int{0}, Type: InnerJoin,
	}).(*HashJoinOp)
	if _, ok := j.Right.(*RowAdapter); !ok {
		t.Fatalf("build side not vectorized: %T", j.Right)
	}
	_ = vecd
	requireEqualKeys(t, "hashjoin", sortedKeys(t, row), sortedKeys(t, j))
}

// TestVectorLimitEquivalence compares exact sequences (serial scans are
// deterministic) across offsets that straddle batch boundaries.
func TestVectorLimitEquivalence(t *testing.T) {
	tbl := randVecTable(t, 450, 5000, 11)
	for _, tc := range []struct{ off, lim int64 }{
		{0, 10}, {4990, 100}, {5, -1}, {0, 0}, {1023, 2},
	} {
		row := &LimitOp{Child: NewScan(tbl, nil, nil), Offset: tc.off, Limit: tc.lim}
		vecd := Vectorize(&LimitOp{Child: NewScan(tbl, nil, nil), Offset: tc.off, Limit: tc.lim})
		rrows, err := Drain(row)
		if err != nil {
			t.Fatal(err)
		}
		vrows, err := Drain(vecd)
		if err != nil {
			t.Fatal(err)
		}
		if len(rrows) != len(vrows) {
			t.Fatalf("off=%d lim=%d: %d vs %d rows", tc.off, tc.lim, len(rrows), len(vrows))
		}
		for i := range rrows {
			if rowKey(rrows[i]) != rowKey(vrows[i]) {
				t.Fatalf("off=%d lim=%d: row %d order differs", tc.off, tc.lim, i)
			}
		}
	}
}

// TestVectorizeScalarFuncFallsBack: a predicate with a FuncExpr keeps the
// row FilterOp (over a vectorized scan) and still computes correct results.
func TestVectorizeScalarFuncFallsBack(t *testing.T) {
	tbl := randVecTable(t, 460, 2000, 13)
	pred := func() Expr {
		return FuncExpr(func(r types.Row) (types.Value, error) {
			if r[0].IsNull() {
				return types.Null, nil
			}
			return types.NewBool(r[0].Int()%3 == 0), nil
		})
	}
	row := &FilterOp{Child: NewScan(tbl, nil, nil), Pred: pred()}
	vecd := Vectorize(&FilterOp{Child: NewScan(tbl, nil, nil), Pred: pred()})
	f, ok := vecd.(*FilterOp)
	if !ok {
		t.Fatalf("UDF filter must stay a row FilterOp, got %T", vecd)
	}
	if _, ok := f.Child.(*RowAdapter); !ok {
		t.Fatalf("scan under UDF filter should still vectorize, got %T", f.Child)
	}
	requireEqualKeys(t, "udf-filter", sortedKeys(t, row), sortedKeys(t, vecd))
}

// TestValuesThroughRowOperators pushes a row source that is not a columnar
// scan through Vectorize: nothing below it can run on vectors, so the
// filter, projection and limit stay row operators and hand the rows — NULLs
// included — through unchanged.
func TestValuesThroughRowOperators(t *testing.T) {
	data := []types.Row{
		{types.NewInt(1), types.Null},
		{types.Null, types.NewString("x")},
		{types.NewInt(3), types.NewString("y")},
	}
	sch := types.Schema{
		{Name: "a", Kind: types.KindInt, Nullable: true},
		{Name: "s", Kind: types.KindString, Nullable: true},
	}
	op := Vectorize(&LimitOp{Limit: -1, Child: &ProjectOp{
		Child: &FilterOp{Child: NewValues(sch, data), Pred: Const{V: types.NewBool(true)}},
		Exprs: []Expr{ColRef(0), ColRef(1)}, Out: sch,
	}})
	if _, ok := op.(*LimitOp); !ok {
		t.Fatalf("a tree over VALUES must stay on the row operators, got %T", op)
	}
	rows, err := Drain(op)
	if err != nil || len(rows) != 3 {
		t.Fatalf("rows %d err %v", len(rows), err)
	}
	for i := range data {
		if rowKey(rows[i]) != rowKey(data[i]) {
			t.Fatalf("row %d: %v != %v", i, rows[i], data[i])
		}
	}
}

// TestFilterRechunks verifies the FilterOp re-chunking invariant: every
// chunk except the last is exactly ChunkSize even under a selective
// predicate.
func TestFilterRechunks(t *testing.T) {
	n := ChunkSize*3 + 100
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	f := &FilterOp{
		Child: NewValues(intSchema("a"), rows),
		Pred:  cmpExpr(0, encoding.OpGE, types.NewInt(0)), // keeps all
	}
	checkChunks(t, f, n)
	// ~50% selective: still full chunks until the tail.
	f2 := &FilterOp{
		Child: NewValues(intSchema("a"), rows),
		Pred: FuncExpr(func(r types.Row) (types.Value, error) {
			return types.NewBool(r[0].Int()%2 == 0), nil
		}),
	}
	checkChunks(t, f2, (n+1)/2)
}

// TestLimitRechunks: LimitOp output comes in full chunks too.
func TestLimitRechunks(t *testing.T) {
	n := ChunkSize * 4
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	l := &LimitOp{Child: NewValues(intSchema("a"), rows), Offset: 100, Limit: int64(ChunkSize*2 + 7)}
	checkChunks(t, l, ChunkSize*2+7)
}

func checkChunks(t *testing.T, op Operator, want int) {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	total := 0
	for {
		ch, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ch == nil {
			break
		}
		if len(ch.Rows) != ChunkSize && total+len(ch.Rows) != want {
			t.Fatalf("partial chunk of %d rows before end of stream (total %d of %d)",
				len(ch.Rows), total+len(ch.Rows), want)
		}
		total += len(ch.Rows)
	}
	if total != want {
		t.Fatalf("total rows %d want %d", total, want)
	}
}

// TestChunkOwnership: rows returned by buffer-reusing operators must stay
// intact after further Next calls and after Close (the Chunk invariant
// that Drain relies on).
func TestChunkOwnership(t *testing.T) {
	tbl := randVecTable(t, 470, 4000, 17)
	op := Vectorize(&FilterOp{Child: NewScan(tbl, nil, nil), Pred: vecTestPred()})
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	ch, err := op.Next()
	if err != nil || ch == nil {
		t.Fatalf("first chunk: %v %v", ch, err)
	}
	saved := make([]string, len(ch.Rows))
	for i, r := range ch.Rows {
		saved[i] = rowKey(r)
	}
	held := ch.Rows
	for {
		nch, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if nch == nil {
			break
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	for i, r := range held {
		if rowKey(r) != saved[i] {
			t.Fatalf("row %d mutated after Next/Close: %s != %s", i, rowKey(r), saved[i])
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

func BenchmarkRowFilter(b *testing.B) {
	tbl := benchVecTable(b, 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &FilterOp{Child: NewScan(tbl, nil, []int{0, 1}), Pred: benchFilterPred()}
		if err := f.Open(); err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			ch, err := f.Next()
			if err != nil {
				b.Fatal(err)
			}
			if ch == nil {
				break
			}
			n += len(ch.Rows)
		}
		f.Close()
	}
}

func BenchmarkVectorFilter(b *testing.B) {
	tbl := benchVecTable(b, 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &VecFilterOp{Child: NewVecScan(tbl, nil, []int{0, 1}, 1), Pred: benchFilterPred()}
		if err := f.Open(); err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			vb, err := f.NextVec()
			if err != nil {
				b.Fatal(err)
			}
			if vb == nil {
				break
			}
			n += len(vb.Idx())
		}
		f.Close()
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

func BenchmarkRowProject(b *testing.B) {
	tbl := benchVecTable(b, 200_000)
	exprs, out := benchProjExprs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &ProjectOp{Child: NewScan(tbl, nil, []int{0, 1, 2}), Exprs: exprs, Out: out}
		if err := p.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			ch, err := p.Next()
			if err != nil {
				b.Fatal(err)
			}
			if ch == nil {
				break
			}
		}
		p.Close()
	}
}

func BenchmarkVectorProject(b *testing.B) {
	tbl := benchVecTable(b, 200_000)
	exprs, out := benchProjExprs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &VecProjectOp{Child: NewVecScan(tbl, nil, []int{0, 1, 2}, 1), Exprs: exprs, Out: out}
		if err := p.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			vb, err := p.NextVec()
			if err != nil {
				b.Fatal(err)
			}
			if vb == nil {
				break
			}
		}
		p.Close()
	}
}
