package columnar

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// buildParallelTable loads n rows spanning several sealed strides plus an
// open stride: (id INT, grp INT nullable, val FLOAT).
func buildParallelTable(t testing.TB, n int) *Table {
	t.Helper()
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "grp", Kind: types.KindInt, Nullable: true},
		{Name: "val", Kind: types.KindFloat},
	}
	tbl := NewTable(1, "ptab", schema, Config{})
	rows := make([]types.Row, 0, n)
	for i := 0; i < n; i++ {
		grp := types.NewInt(int64(i % 7))
		if i%13 == 0 {
			grp = types.Null
		}
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			grp,
			types.NewFloat(float64(i%100) * 0.5),
		})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// collectScan drains a serial scan into (rowid, id-value) pairs.
func collectScan(t *testing.T, tbl *Table, preds []Pred) map[int64]int64 {
	t.Helper()
	got := map[int64]int64{}
	err := scanSerial(tbl, preds, func(b *Batch) bool {
		for i := 0; i < b.Len(); i++ {
			got[b.RowID(i)] = b.Value(0, i).Int()
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParallelScanMatchesSerial(t *testing.T) {
	// 4 sealed strides + a partial open stride.
	tbl := buildParallelTable(t, 4*page.StrideSize+217)
	predSets := [][]Pred{
		nil,
		{{Col: 0, Op: encoding.OpGE, Val: types.NewInt(1000)}},
		{{Col: 1, Op: encoding.OpEQ, Val: types.NewInt(3)}},
		{{Col: 0, Op: encoding.OpGE, Val: types.NewInt(100)}, {Col: 0, Op: encoding.OpLT, Val: types.NewInt(2000)}},
		{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(-1)}}, // empty
	}
	for pi, preds := range predSets {
		want := collectScan(t, tbl, preds)
		for _, dop := range []int{1, 2, 3, 8, 64} {
			var mu sync.Mutex
			got := map[int64]int64{}
			err := scanDop(tbl, preds, dop, func(_ int, b *Batch) bool {
				local := make(map[int64]int64, b.Len())
				for i := 0; i < b.Len(); i++ {
					local[b.RowID(i)] = b.Value(0, i).Int()
				}
				mu.Lock()
				for k, v := range local {
					got[k] = v
				}
				mu.Unlock()
				return true
			})
			if err != nil {
				t.Fatalf("preds %d dop %d: %v", pi, dop, err)
			}
			if len(got) != len(want) {
				t.Fatalf("preds %d dop %d: %d rows, want %d", pi, dop, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("preds %d dop %d: row %d = %d, want %d", pi, dop, k, got[k], v)
				}
			}
		}
	}
}

// TestSealedTombstonesMatchNaive deletes rows at the word edges of a
// sealed stride — offsets 0, 63, 64 and 1023 — and one row of the open
// stride, then holds Scan at dop 1 and 2 to the decode-then-evaluate scan
// for an equality, a BETWEEN, an all-match predicate and none.
func TestSealedTombstonesMatchNaive(t *testing.T) {
	tbl := buildParallelTable(t, 2*page.StrideSize+100)
	base := int64(page.StrideSize) // stride 1 is sealed
	dead := []int64{base, base + 63, base + 64, base + 1023, 2*base + 5}
	if _, err := tbl.Change(func(*Snapshot) ([]int64, []*vec.Batch, error) { return dead, nil, nil }); err != nil {
		t.Fatal(err)
	}
	predSets := map[string][]Pred{
		"eq": {{Col: 1, Op: encoding.OpEQ, Val: types.NewInt(int64(base % 7))}},
		"between": {
			{Col: 0, Op: encoding.OpGE, Val: types.NewInt(base)},
			{Col: 0, Op: encoding.OpLE, Val: types.NewInt(2*base + 50)},
		},
		"all":  {{Col: 0, Op: encoding.OpGE, Val: types.NewInt(-1)}},
		"none": nil,
	}
	for name, preds := range predSets {
		want := map[int64]bool{}
		if err := scanNaive(tbl, preds, func(b *Batch) bool {
			for i := 0; i < b.Len(); i++ {
				want[b.RowID(i)] = true
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, rid := range dead {
			if want[rid] {
				t.Fatalf("%s: the naive scan returned deleted row %d", name, rid)
			}
		}
		for _, dop := range []int{1, 2} {
			var mu sync.Mutex
			got := map[int64]bool{}
			err := scanDop(tbl, preds, dop, func(_ int, b *Batch) bool {
				mu.Lock()
				defer mu.Unlock()
				for i := 0; i < b.Len(); i++ {
					got[b.RowID(i)] = true
				}
				return true
			})
			if err != nil {
				t.Fatalf("%s dop %d: %v", name, dop, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s dop %d: %d rows, naive scan %d", name, dop, len(got), len(want))
			}
			for rid := range want {
				if !got[rid] {
					t.Fatalf("%s dop %d: row %d missing", name, dop, rid)
				}
			}
		}
	}
}

func TestParallelScanPerWorkerState(t *testing.T) {
	tbl := buildParallelTable(t, 3*page.StrideSize+10)
	const dop = 4
	// Per-worker tallies written without locks: Scan guarantees a
	// worker never runs its callback concurrently with itself.
	counts := make([]int, dop)
	err := scanDop(tbl, nil, dop, func(w int, b *Batch) bool {
		if w < 0 || w >= dop {
			t.Errorf("worker index %d out of range", w)
			return false
		}
		counts[w] += b.Len()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != tbl.SnapshotInfo().Rows {
		t.Fatalf("workers saw %d rows, want %d", total, tbl.SnapshotInfo().Rows)
	}
}

func TestParallelScanCancel(t *testing.T) {
	tbl := buildParallelTable(t, 8*page.StrideSize)
	var delivered atomic.Int64
	err := scanDop(tbl, nil, 4, func(_ int, b *Batch) bool {
		return delivered.Add(1) < 2 // cancel after two batches
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := delivered.Load(); n >= 8 {
		t.Fatalf("cancellation did not stop the scan: %d batches", n)
	}
}

func TestParallelScanDeletesAndSkipping(t *testing.T) {
	tbl := buildParallelTable(t, 4*page.StrideSize)
	if _, err := deleteWhere(tbl, []Pred{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(100)}}); err != nil {
		t.Fatal(err)
	}
	preds := []Pred{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(int64(page.StrideSize))}}
	tbl.ResetStats()
	want := collectScan(t, tbl, preds)
	serialStats := tbl.Stats()
	tbl.ResetStats()
	var mu sync.Mutex
	var ids []int64
	err := scanDop(tbl, preds, 4, func(_ int, b *Batch) bool {
		mu.Lock()
		for i := 0; i < b.Len(); i++ {
			ids = append(ids, b.RowID(i))
		}
		mu.Unlock()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	parStats := tbl.Stats()
	if len(ids) != len(want) {
		t.Fatalf("parallel %d rows, serial %d", len(ids), len(want))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if _, ok := want[id]; !ok {
			t.Fatalf("row %d not in serial result", id)
		}
	}
	if parStats.StridesSkipped != serialStats.StridesSkipped {
		t.Fatalf("data skipping diverged: parallel %d serial %d",
			parStats.StridesSkipped, serialStats.StridesSkipped)
	}
}

// failAfterStore serves a limited number of page reads, then fails: the
// parallel scan must surface the storage fault as an error from any worker.
type failAfterStore struct {
	inner PageStore
	reads atomic.Int64
	limit int64
}

func (f *failAfterStore) WritePage(id page.ID, data []byte) error { return f.inner.WritePage(id, data) }
func (f *failAfterStore) DeletePage(id page.ID) error             { return f.inner.DeletePage(id) }
func (f *failAfterStore) DeletePages(table uint32) error          { return f.inner.DeletePages(table) }
func (f *failAfterStore) ReadPage(id page.ID) ([]byte, error) {
	if f.reads.Add(1) > f.limit {
		return nil, fmt.Errorf("injected storage fault")
	}
	return f.inner.ReadPage(id)
}

func TestParallelScanStorageFault(t *testing.T) {
	store := &failAfterStore{inner: NewMemStore(), limit: 1 << 30}
	schema := types.Schema{{Name: "id", Kind: types.KindInt}}
	tbl := NewTable(9, "faulty", schema, Config{Store: store, Pool: nil})
	var rows []types.Row
	for i := 0; i < 4*page.StrideSize; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	// Tiny pool so reads go to the store, then make the store fail.
	store.limit = store.reads.Load() // every further read fails
	err := scanDop(tbl, nil, 4, func(_ int, b *Batch) bool {
		for i := 0; i < b.Len(); i++ {
			_ = b.Value(0, i)
		}
		return true
	})
	if err == nil {
		t.Fatal("expected storage fault to surface as scan error")
	}
}
