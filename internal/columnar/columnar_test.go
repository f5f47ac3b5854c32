package columnar

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
)

// insert adds one row the way an INSERT statement does: as a batch of one.
func insert(tbl *Table, row types.Row) error { return tbl.InsertBatch([]types.Row{row}) }

func salesSchema() types.Schema {
	return types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "region", Kind: types.KindString, Nullable: true},
		{Name: "sale_date", Kind: types.KindDate},
		{Name: "amount", Kind: types.KindFloat, Nullable: true},
	}
}

var regions = []string{"north", "south", "east", "west"}

// loadSales bulk-loads n rows with i spread over 365 days of 2016.
func loadSales(t testing.TB, tbl *Table, n int) {
	t.Helper()
	rows := make([]types.Row, 0, n)
	base, _ := types.ParseDate("2016-01-01")
	for i := 0; i < n; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(regions[i%len(regions)]),
			types.NewDate(base.Int() + int64(i%365)),
			types.NewFloat(float64(i%1000) / 4),
		})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
}

func newTestTable(t testing.TB, n int) *Table {
	t.Helper()
	tbl := NewTable(1, "sales", salesSchema(), Config{})
	loadSales(t, tbl, n)
	return tbl
}

func TestInsertAndCount(t *testing.T) {
	tbl := newTestTable(t, 5000)
	if tbl.SnapshotInfo().Rows != 5000 {
		t.Fatalf("rows %d", tbl.SnapshotInfo().Rows)
	}
	n, err := countWhere(tbl, nil)
	if err != nil || n != 5000 {
		t.Fatalf("count %d err %v", n, err)
	}
}

func TestScanEquality(t *testing.T) {
	tbl := newTestTable(t, 4096)
	rows, err := selectWhere(tbl, []Pred{{Col: 0, Op: encoding.OpEQ, Val: types.NewInt(1234)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 1234 {
		t.Fatalf("rows %v", rows)
	}
	if rows[0][1].Str() != regions[1234%4] {
		t.Fatalf("wrong region %v", rows[0][1])
	}
}

func TestScanStringPredicate(t *testing.T) {
	tbl := newTestTable(t, 4000)
	n, err := countWhere(tbl, []Pred{{Col: 1, Op: encoding.OpEQ, Val: types.NewString("north")}})
	if err != nil || n != 1000 {
		t.Fatalf("north count %d err %v", n, err)
	}
	n, _ = countWhere(tbl, []Pred{{Col: 1, Op: encoding.OpNE, Val: types.NewString("north")}})
	if n != 3000 {
		t.Fatalf("!north count %d", n)
	}
	n, _ = countWhere(tbl, []Pred{{Col: 1, Op: encoding.OpEQ, Val: types.NewString("atlantis")}})
	if n != 0 {
		t.Fatalf("phantom region matched %d", n)
	}
}

func TestScanConjunction(t *testing.T) {
	tbl := newTestTable(t, 4000)
	preds := []Pred{
		{Col: 0, Op: encoding.OpLT, Val: types.NewInt(100)},
		{Col: 1, Op: encoding.OpEQ, Val: types.NewString("south")},
	}
	rows, err := selectWhere(tbl, preds)
	if err != nil {
		t.Fatal(err)
	}
	// ids 0..99 with id%4==1 → 25 rows.
	if len(rows) != 25 {
		t.Fatalf("conjunction rows %d", len(rows))
	}
	for _, r := range rows {
		if r[0].Int() >= 100 || r[1].Str() != "south" {
			t.Fatalf("bad row %v", r)
		}
	}
}

func TestScanAgainstRowReference(t *testing.T) {
	// Cross-check the compressed scan against naive evaluation over the
	// same data, across operators and columns.
	const n = 3000
	tbl := newTestTable(t, n)
	base, _ := types.ParseDate("2016-01-01")
	ops := []encoding.CmpOp{encoding.OpEQ, encoding.OpNE, encoding.OpLT, encoding.OpLE, encoding.OpGT, encoding.OpGE}
	consts := []struct {
		col int
		val types.Value
	}{
		{0, types.NewInt(1500)},
		{0, types.NewInt(-5)},
		{1, types.NewString("east")},
		{2, types.NewDate(base.Int() + 100)},
		{3, types.NewFloat(100.25)},
	}
	for _, c := range consts {
		for _, op := range ops {
			got, err := countWhere(tbl, []Pred{{Col: c.col, Op: op, Val: c.val}})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for i := 0; i < n; i++ {
				var v types.Value
				switch c.col {
				case 0:
					v = types.NewInt(int64(i))
				case 1:
					v = types.NewString(regions[i%4])
				case 2:
					v = types.NewDate(base.Int() + int64(i%365))
				case 3:
					v = types.NewFloat(float64(i%1000) / 4)
				}
				if op.Eval(v, c.val) {
					want++
				}
			}
			if got != want {
				t.Errorf("col %d op %v val %v: got %d want %d", c.col, op, c.val, got, want)
			}
		}
	}
}

func TestNullHandling(t *testing.T) {
	tbl := NewTable(2, "n", salesSchema(), Config{})
	for i := 0; i < 100; i++ {
		amount := types.NewFloat(float64(i))
		if i%10 == 0 {
			amount = types.Null
		}
		err := insert(tbl, types.Row{
			types.NewInt(int64(i)), types.Null, types.NewDate(0), amount,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Comparisons never match NULL.
	n, _ := countWhere(tbl, []Pred{{Col: 3, Op: encoding.OpGE, Val: types.NewFloat(0)}})
	if n != 90 {
		t.Fatalf("GE over nullable column: %d want 90", n)
	}
	rows, _ := selectWhere(tbl, []Pred{{Col: 0, Op: encoding.OpEQ, Val: types.NewInt(10)}})
	if len(rows) != 1 || !rows[0][3].IsNull() {
		t.Fatalf("NULL did not round-trip: %v", rows)
	}
}

func TestDeleteWhere(t *testing.T) {
	tbl := newTestTable(t, 2000)
	n, err := deleteWhere(tbl, []Pred{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(500)}})
	if err != nil || n != 500 {
		t.Fatalf("deleted %d err %v", n, err)
	}
	if tbl.SnapshotInfo().Rows != 1500 {
		t.Fatalf("live %d", tbl.SnapshotInfo().Rows)
	}
	c, _ := countWhere(tbl, nil)
	if c != 1500 {
		t.Fatalf("scan sees %d", c)
	}
	// Deleting again is a no-op.
	n, _ = deleteWhere(tbl, []Pred{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(500)}})
	if n != 0 {
		t.Fatalf("re-delete found %d", n)
	}
}

func TestUpdateWhere(t *testing.T) {
	tbl := newTestTable(t, 1000)
	n, err := updateWhere(tbl,
		[]Pred{{Col: 1, Op: encoding.OpEQ, Val: types.NewString("west")}},
		map[int]types.Value{3: types.NewFloat(-1)},
	)
	if err != nil || n != 250 {
		t.Fatalf("updated %d err %v", n, err)
	}
	if tbl.SnapshotInfo().Rows != 1000 {
		t.Fatalf("live %d", tbl.SnapshotInfo().Rows)
	}
	c, _ := countWhere(tbl, []Pred{{Col: 3, Op: encoding.OpEQ, Val: types.NewFloat(-1)}})
	if c != 250 {
		t.Fatalf("updated rows visible: %d", c)
	}
}

func TestTruncateAndReuse(t *testing.T) {
	tbl := newTestTable(t, 3000)
	if err := tbl.Truncate(); err != nil {
		t.Fatal(err)
	}
	if tbl.SnapshotInfo().Rows != 0 {
		t.Fatal("rows after truncate")
	}
	loadSales(t, tbl, 100)
	if n, _ := countWhere(tbl, nil); n != 100 {
		t.Fatalf("after reuse: %d", n)
	}
}

func TestDataSkipping(t *testing.T) {
	// Clustered ids: each stride covers a narrow id range, so a tight
	// range predicate must skip nearly every stride.
	tbl := newTestTable(t, 64*page.StrideSize)
	tbl.ResetStats()
	n, err := countWhere(tbl, []Pred{
		{Col: 0, Op: encoding.OpGE, Val: types.NewInt(10 * page.StrideSize)},
		{Col: 0, Op: encoding.OpLT, Val: types.NewInt(11 * page.StrideSize)},
	})
	if err != nil || n != page.StrideSize {
		t.Fatalf("count %d err %v", n, err)
	}
	st := tbl.Stats()
	if st.StridesSkipped < 60 {
		t.Errorf("expected most strides skipped, got visited=%d skipped=%d",
			st.StridesVisited, st.StridesSkipped)
	}
	t.Logf("skipping: visited=%d skipped=%d", st.StridesVisited, st.StridesSkipped)
}

// TestDoubleColumnIsLossless: a DOUBLE column analyzed as fixed-point
// cents must not round a later value that is merely close to a cent —
// 861.99999999999989 used to come back as 862, match "= 862" and lose
// its place in sorted output.
func TestDoubleColumnIsLossless(t *testing.T) {
	tbl := NewTable(4, "amounts", types.Schema{{Name: "amount", Kind: types.KindFloat}}, Config{})
	var rows []types.Row
	for i := 0; i < 2000; i++ {
		rows = append(rows, types.Row{types.NewFloat(float64(i) / 2)})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	near := 861.99999999999989
	late := []float64{862.5, near, 862}
	for i := 2000; i < 2200; i++ { // seals the stride the three land in: open rows keep their values
		late = append(late, float64(i)/2)
	}
	for _, f := range late {
		if err := insert(tbl, types.Row{types.NewFloat(f)}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := countWhere(tbl, []Pred{{Col: 0, Op: encoding.OpEQ, Val: types.NewFloat(862)}})
	if err != nil || n != 2 { // row 1724 of the load, and the insert
		t.Fatalf("amount = 862 matches %d rows (err %v), want 2", n, err)
	}
	got, err := selectWhere(tbl, []Pred{{Col: 0, Op: encoding.OpGT, Val: types.NewFloat(861.75)}, {Col: 0, Op: encoding.OpLT, Val: types.NewFloat(862.75)}})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return types.Compare(got[i][0], got[j][0]) < 0 })
	want := []float64{near, 862, 862, 862.5, 862.5}
	if len(got) != len(want) {
		t.Fatalf("range holds %d rows %v, want %v", len(got), got, want)
	}
	for i, w := range want {
		if f := got[i][0].Float(); math.Float64bits(f) != math.Float64bits(w) {
			t.Fatalf("sorted row %d is %v, want %v exactly", i, f, w)
		}
	}
}

func TestCompressionReport(t *testing.T) {
	tbl := newTestTable(t, 50*page.StrideSize)
	r := tbl.Compression()
	if r.Ratio < 2 {
		t.Errorf("compression ratio %.2f below the paper's 2-3x band", r.Ratio)
	}
	if r.SynopsisBytes <= 0 || r.PageBytes <= 0 {
		t.Errorf("report incomplete: %+v", r)
	}
	t.Logf("compression: raw=%d compressed=%d ratio=%.1fx", r.RawBytes, r.CompressedBytes, r.Ratio)
}

func TestLateInsertDictionaryExtension(t *testing.T) {
	tbl := newTestTable(t, 2048)
	// A region never seen at load time lands in the dictionary extension.
	err := insert(tbl, types.Row{
		types.NewInt(99999), types.NewString("central"),
		types.NewDate(0), types.NewFloat(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := countWhere(tbl, []Pred{{Col: 1, Op: encoding.OpEQ, Val: types.NewString("central")}})
	if n != 1 {
		t.Fatalf("extension value not found: %d", n)
	}
	// Range predicates must still be correct with extension codes.
	n, _ = countWhere(tbl, []Pred{{Col: 1, Op: encoding.OpLT, Val: types.NewString("east")}})
	if n != 1 { // only "central" < "east"
		t.Fatalf("range over extension: %d", n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tbl := newTestTable(t, 10*page.StrideSize)
	batches := 0
	err := scanSerial(tbl, nil, func(b *Batch) bool {
		batches++
		return batches < 3
	})
	if err != nil || batches != 3 {
		t.Fatalf("batches %d err %v", batches, err)
	}
}

func TestScanBadPredicateColumn(t *testing.T) {
	tbl := newTestTable(t, 10)
	err := scanSerial(tbl, []Pred{{Col: 9, Op: encoding.OpEQ, Val: types.NewInt(1)}}, func(*Batch) bool { return true })
	if err == nil {
		t.Fatal("out-of-range predicate column must error")
	}
}

func TestBatchRowIDsAscending(t *testing.T) {
	tbl := newTestTable(t, 3000)
	last := int64(-1)
	scanSerial(tbl, nil, func(b *Batch) bool {
		for i := 0; i < b.Len(); i++ {
			if b.RowID(i) <= last {
				t.Fatalf("row ids not ascending: %d after %d", b.RowID(i), last)
			}
			last = b.RowID(i)
		}
		return true
	})
	if last != 2999 {
		t.Fatalf("last rid %d", last)
	}
}

// Property: a random conjunction over random data returns exactly the
// rows a naive evaluator returns.
func TestScanEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2500) + 10
		tbl := NewTable(9, "p", types.Schema{
			{Name: "a", Kind: types.KindInt},
			{Name: "b", Kind: types.KindString},
		}, Config{})
		rowsData := make([]types.Row, 0, n)
		for i := 0; i < n; i++ {
			rowsData = append(rowsData, types.Row{
				types.NewInt(int64(rng.Intn(100))),
				types.NewString(fmt.Sprintf("s%d", rng.Intn(10))),
			})
		}
		if err := tbl.InsertBatch(rowsData); err != nil {
			return false
		}
		ops := []encoding.CmpOp{encoding.OpEQ, encoding.OpNE, encoding.OpLT, encoding.OpLE, encoding.OpGT, encoding.OpGE}
		preds := []Pred{
			{Col: 0, Op: ops[rng.Intn(len(ops))], Val: types.NewInt(int64(rng.Intn(120) - 10))},
			{Col: 1, Op: ops[rng.Intn(len(ops))], Val: types.NewString(fmt.Sprintf("s%d", rng.Intn(12)))},
		}
		got, err := countWhere(tbl, preds)
		if err != nil {
			return false
		}
		want := 0
		for _, r := range rowsData {
			if preds[0].Op.Eval(r[0], preds[0].Val) && preds[1].Op.Eval(r[1], preds[1].Val) {
				want++
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkColumnarScanSelective(b *testing.B) {
	tbl := newTestTable(b, 64*page.StrideSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		countWhere(tbl, []Pred{
			{Col: 0, Op: encoding.OpGE, Val: types.NewInt(1000)},
			{Col: 0, Op: encoding.OpLT, Val: types.NewInt(2000)},
		})
	}
}

func BenchmarkColumnarScanFull(b *testing.B) {
	tbl := newTestTable(b, 64*page.StrideSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		countWhere(tbl, []Pred{{Col: 1, Op: encoding.OpEQ, Val: types.NewString("north")}})
	}
}
