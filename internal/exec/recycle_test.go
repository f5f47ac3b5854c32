package exec

import (
	"sync/atomic"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// strideTable is a table of the given number of full strides: a
// dictionary-encoded region, an integer k and a float v.
func strideTable(t testing.TB, strides int) *columnar.Table {
	t.Helper()
	schema := types.Schema{
		{Name: "r", Kind: types.KindString},
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindFloat},
	}
	tbl := columnar.NewTable(41, "strides", schema, columnar.Config{})
	rows := make([]types.Row, strides*page.StrideSize)
	for i := range rows {
		rows[i] = types.Row{types.NewString(dictRegions[i%len(dictRegions)]), types.NewInt(int64(i % 97)), types.NewFloat(float64(i%50) / 2)}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// groupByScan runs GROUP BY r, COUNT(*), SUM(k), SUM(v) over a scan of
// every column at dop, the region column on dictionary codes.
func groupByScan(t testing.TB, tbl *columnar.Table, dop int) {
	scan := NewScan(tbl, nil, nil)
	scan.Dop = dop
	scan.EnableCompressed()
	g := &GroupByOp{Child: scan, GroupBy: []Expr{ColRef(0)}, GroupCols: tbl.Schema()[:1], Dop: dop,
		Aggs: []AggSpec{{Func: AggCountStar, Name: "n"}, {Func: AggSum, Arg: ColRef(1), Name: "k"}, {Func: AggSum, Arg: ColRef(2), Name: "v"}}}
	rows, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(dictRegions) {
		t.Fatalf("%d groups, want %d", len(rows), len(dictRegions))
	}
}

// TestScanAllocsPerStride bounds what a warm scan under a group-by
// allocates for each stride it visits: the allocations of a 64-stride table
// less those of a 4-stride one, over the 60 strides between them. The scan
// takes its selection state from a per-worker scratch and decodes into
// pooled payloads, which the group-by returns once it has ingested a batch,
// so what is left per stride is the batch, its three column vectors and
// their list. Before the scratch and the pools (go1.24, 2 vCPU) this read
// 13.0 allocations a stride at dop 1 and 13.1 at dop 2; with them, 5.0 and
// 5.1. The race detector's pools drop a quarter of what they are given, so
// under -race it reads 6.3–6.7, inside the bound.
func TestScanAllocsPerStride(t *testing.T) {
	small, large := strideTable(t, 4), strideTable(t, 64)
	for _, dop := range []int{1, 2} {
		groupByScan(t, small, dop) // warm the pools and the scratch
		groupByScan(t, large, dop)
		a := testing.AllocsPerRun(10, func() { groupByScan(t, small, dop) })
		b := testing.AllocsPerRun(10, func() { groupByScan(t, large, dop) })
		per := (b - a) / 60
		t.Logf("dop %d: %.1f allocations a run over 4 strides, %.1f over 64: %.2f a stride", dop, a, b, per)
		if per > 9 {
			t.Errorf("dop %d: %.2f allocations a stride, want at most 9", dop, per)
		}
		// A bound the callback tightens over the first strides costs a
		// translation a worker a value, none a stride: the per-morsel read
		// is one atomic load.
		boundedScan(t, small, dop)
		boundedScan(t, large, dop)
		a = testing.AllocsPerRun(10, func() { boundedScan(t, small, dop) })
		b = testing.AllocsPerRun(10, func() { boundedScan(t, large, dop) })
		per = (b - a) / 60
		t.Logf("dop %d bounded: %.1f allocations a run over 4 strides, %.1f over 64: %.2f a stride", dop, a, b, per)
		if per >= 0.1 {
			t.Errorf("dop %d: a bounded scan allocates %.2f a stride, want 0", dop, per)
		}
	}
}

// boundedScan scans every stride of tbl at dop under a bound on k that its
// callback tightens to 96, 95 and 94 as the first three strides arrive.
func boundedScan(t testing.TB, tbl *columnar.Table, dop int) {
	b := columnar.NewBound(1, encoding.OpLE)
	snap := tbl.Snapshot()
	defer snap.Release()
	var seen atomic.Int64
	if err := snap.Scan(nil, b, dop, nil, func(int, *columnar.Batch) bool {
		if n := seen.Add(1); n <= 3 {
			b.Tighten(types.NewInt(97 - n))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRecycleBatchesOpHandsOutUnowned: a BatchesOp keeps the batches it
// was given, disowned, and hands out unowned copies, so neither a release
// of the batch it was given nor a consumer's release of what it pulled
// takes the held data from the next reader.
func TestRecycleBatchesOpHandsOutUnowned(t *testing.T) {
	v := vec.NewPooled(types.KindInt, vec.PoolCap)
	for i := range v.I64 {
		v.I64[i] = int64(i)
	}
	b := vec.NewBatch(intSchema("a"), []*vec.Vector{v}, vec.PoolCap)
	b.Own()
	op := NewBatches(intSchema("a"), []*vec.Batch{b})
	b.Release()
	for range 2 {
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		got, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rows := got.AppendRows(nil); len(rows) != vec.PoolCap || rows[700][0].Int() != 700 {
			t.Fatalf("hand-out rows %v", rows)
		}
		got.Release()
	}
}
