package columnar

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
)

// ingestSchema: (batch INT, seq INT, val FLOAT) — batch tags every row
// with the insert that produced it, so visibility is checkable per batch.
func ingestSchema() types.Schema {
	return types.Schema{
		{Name: "batch", Kind: types.KindInt},
		{Name: "seq", Kind: types.KindInt},
		{Name: "val", Kind: types.KindFloat},
	}
}

func batchRows(batch, k int) []types.Row {
	rows := make([]types.Row, k)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(batch)),
			types.NewInt(int64(i)),
			types.NewFloat(float64(batch*k + i)),
		}
	}
	return rows
}

// TestSnapshotBatchAtomicity is the core isolation property: while
// writers insert K-row batches (half trickle InsertBatch, half
// BulkAppend), readers must never observe a partial batch — every batch
// id is visible with exactly 0 or K rows, on both the serial and the
// dop-8 parallel scan path. Batches of 700 rows straddle seals on a table
// at dop 1; batches of 2 600 rows, on a table at dop 2, begin mid-stride
// and seal two or three strides each, which the table's workers encode and
// seal a column each.
func TestSnapshotBatchAtomicity(t *testing.T) {
	for _, c := range []struct{ k, batchesPer, dop int }{{700, 25, 1}, {2600, 6, 2}} {
		t.Run(fmt.Sprintf("k=%d/dop=%d", c.k, c.dop), func(t *testing.T) {
			testBatchAtomicity(t, c.k, c.batchesPer, c.dop)
		})
	}
}

func testBatchAtomicity(t *testing.T, k, batchesPer, dop int) {
	const writers = 4
	tbl := NewTable(70, "ingest", ingestSchema(), Config{Dop: dop})
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for b := 0; b < batchesPer; b++ {
				id := w*batchesPer + b
				var err error
				if w%2 == 0 {
					err = tbl.InsertBatch(batchRows(id, k))
				} else {
					_, err = bulkRows(tbl, batchRows(id, k))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	check := func(counts map[int64]int) error {
		for id, n := range counts {
			if n != k {
				return fmt.Errorf("batch %d visible with %d rows, want %d", id, n, k)
			}
		}
		return nil
	}
	readerErr := make(chan error, 2)
	readerWG.Add(2)
	go func() { // serial scans
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			counts := map[int64]int{}
			err := scanSerial(tbl, nil, func(b *Batch) bool {
				for i := 0; i < b.Len(); i++ {
					counts[b.Value(0, i).Int()]++
				}
				return true
			})
			if err == nil {
				err = check(counts)
			}
			if err != nil {
				readerErr <- err
				return
			}
		}
	}()
	go func() { // parallel scans at dop 8
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var mu sync.Mutex
			counts := map[int64]int{}
			err := scanDop(tbl, nil, 8, func(_ int, b *Batch) bool {
				local := map[int64]int{}
				for i := 0; i < b.Len(); i++ {
					local[b.Value(0, i).Int()]++
				}
				mu.Lock()
				for id, n := range local {
					counts[id] += n
				}
				mu.Unlock()
				return true
			})
			if err == nil {
				err = check(counts)
			}
			if err != nil {
				readerErr <- err
				return
			}
		}
	}()
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}
	if got := tbl.SnapshotInfo().Rows; got != writers*batchesPer*k {
		t.Fatalf("final rows %d, want %d", got, writers*batchesPer*k)
	}
}

// TestSnapshotRepeatableCount: a pinned snapshot answers the same COUNT
// no matter how much ingest, delete and truncate activity happens after
// the pin — repeatable reads within one epoch.
func TestSnapshotRepeatableCount(t *testing.T) {
	tbl := NewTable(71, "repeat", ingestSchema(), Config{})
	if err := tbl.InsertBatch(batchRows(0, 3*page.StrideSize+100)); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	defer snap.Release()
	count := func() int {
		n := 0
		err := scanSerial(snap, nil, func(b *Batch) bool { n += b.Len(); return true })
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	want := count()
	if want != 3*page.StrideSize+100 {
		t.Fatalf("initial count %d", want)
	}
	// Mutate heavily behind the pin.
	if _, err := bulkRows(tbl, batchRows(1, 2*page.StrideSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := deleteWhere(tbl, []Pred{{Col: 1, Op: encoding.OpLT, Val: types.NewInt(50)}}); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != want {
		t.Fatalf("count after concurrent writes %d, want %d", got, want)
	}
	if err := tbl.Truncate(); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != want {
		t.Fatalf("count after truncate %d, want %d", got, want)
	}
	if snap.Rows() != want {
		t.Fatalf("snapshot Rows %d, want %d", snap.Rows(), want)
	}
	// The table itself reports the new epoch.
	if tbl.SnapshotInfo().Rows != 0 {
		t.Fatalf("table rows after truncate %d, want 0", tbl.SnapshotInfo().Rows)
	}
}

// TestTruncateDrainsBehindPinnedReader: Truncate publishes a fresh epoch
// immediately; the superseded epoch (and its pages) survive until the
// last pinned reader releases, then drain.
func TestTruncateDrainsBehindPinnedReader(t *testing.T) {
	tbl := NewTable(72, "drain", ingestSchema(), Config{})
	if err := tbl.InsertBatch(batchRows(0, 2*page.StrideSize)); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	if err := tbl.Truncate(); err != nil {
		t.Fatal(err)
	}
	info := tbl.SnapshotInfo()
	if info.Behind == 0 {
		t.Fatal("superseded epoch should be held behind the pinned reader")
	}
	// The pinned reader still scans the pre-truncate data, pages intact.
	n := 0
	if err := scanSerial(snap, []Pred{{Col: 1, Op: encoding.OpGE, Val: types.NewInt(0)}}, func(b *Batch) bool {
		for i := 0; i < b.Len(); i++ {
			_ = b.Row(i)
		}
		n += b.Len()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2*page.StrideSize {
		t.Fatalf("pinned reader saw %d rows, want %d", n, 2*page.StrideSize)
	}
	snap.Release()
	after := tbl.SnapshotInfo()
	if after.Behind != 0 {
		t.Fatalf("epochs still behind after release: %d", after.Behind)
	}
	if after.Drained <= info.Drained {
		t.Fatal("release of last pin should drain the superseded epoch")
	}
	// New ingest into the truncated table works and is isolated.
	if err := insert(tbl, types.Row{types.NewInt(9), types.NewInt(9), types.NewFloat(9)}); err != nil {
		t.Fatal(err)
	}
	if tbl.SnapshotInfo().Rows != 1 {
		t.Fatalf("rows after truncate+insert: %d", tbl.SnapshotInfo().Rows)
	}
}

// TestSnapshotRacingTruncateAndRebuild: scans race trickle inserts, bulk
// flushes and periodic Truncates. Any observed state must be a whole
// number of batches (no partial batch, no half-truncate), and scans must
// never error — the old epoch's pages must outlive the truncate while
// pinned.
func TestSnapshotRacingTruncateAndRebuild(t *testing.T) {
	const (
		k      = 500
		cycles = 120
	)
	tbl := NewTable(73, "race", ingestSchema(), Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writerErr atomic.Value
	writerDone := make(chan struct{})
	wg.Add(1)
	go func() { // writer: trickle + bulk + truncate mix, fixed work
		defer wg.Done()
		defer close(writerDone)
		for cycle := 0; cycle < cycles; cycle++ {
			var err error
			switch cycle % 5 {
			case 4:
				err = tbl.Truncate()
			case 2:
				_, err = bulkRows(tbl, batchRows(cycle, 3*k))
			default:
				err = tbl.InsertBatch(batchRows(cycle, k))
			}
			if err != nil {
				writerErr.Store(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				counts := map[int64]int{}
				var err error
				if r%2 == 0 {
					err = scanSerial(tbl, nil, func(b *Batch) bool {
						for i := 0; i < b.Len(); i++ {
							counts[b.Value(0, i).Int()]++
						}
						return true
					})
				} else {
					var mu sync.Mutex
					err = scanDop(tbl, nil, 8, func(_ int, b *Batch) bool {
						mu.Lock()
						for i := 0; i < b.Len(); i++ {
							counts[b.Value(0, i).Int()]++
						}
						mu.Unlock()
						return true
					})
				}
				if err != nil {
					t.Error(err)
					return
				}
				for id, n := range counts {
					if n != k && n != 3*k {
						t.Errorf("batch %d visible with %d rows, want %d or %d", id, n, k, 3*k)
						return
					}
				}
			}
		}(r)
	}
	<-writerDone
	close(stop)
	wg.Wait()
	if err := writerErr.Load(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSetPinsOncePerTable: a statement-scoped set returns the
// same pinned snapshot for repeated Get calls (self-join case) and
// releases everything exactly once.
func TestSnapshotSetPinsOncePerTable(t *testing.T) {
	tbl := NewTable(74, "set", ingestSchema(), Config{})
	if err := tbl.InsertBatch(batchRows(0, 100)); err != nil {
		t.Fatal(err)
	}
	set := NewSnapshotSet()
	s1 := set.Get(tbl)
	// A write between the two Gets must not change what the set serves.
	if err := tbl.InsertBatch(batchRows(1, 100)); err != nil {
		t.Fatal(err)
	}
	s2 := set.Get(tbl)
	if s1 != s2 {
		t.Fatal("SnapshotSet returned different snapshots for one table")
	}
	if s1.Rows() != 100 {
		t.Fatalf("pinned snapshot sees %d rows, want 100", s1.Rows())
	}
	set.ReleaseAll()
	if info := tbl.SnapshotInfo(); info.Behind != 0 {
		t.Fatalf("epochs behind after ReleaseAll: %d", info.Behind)
	}
}

// FuzzBulkAppend drives BulkAppend with schema-randomized batch shapes
// racing a mid-flight Truncate and a concurrent scan, checking the 0-or-K
// visibility invariant and that validation failures mutate nothing. When
// shape has bit 2 set, a Change races them too: it replaces the 50 seed
// rows (batch 0) with 50 rows of batch 2, so the reader's live count is a
// sum of whole statements only if it sees the seed rows or their
// replacements, never both and never part of either.
func FuzzBulkAppend(f *testing.F) {
	f.Add(uint16(10), uint8(3), false, int64(42))
	f.Add(uint16(1500), uint8(1), true, int64(-7))
	f.Add(uint16(0), uint8(9), true, int64(0))
	f.Add(uint16(1100), uint8(4), false, int64(5))
	f.Add(uint16(700), uint8(6), true, int64(11))
	f.Fuzz(func(t *testing.T, nRows uint16, shape uint8, truncate bool, seed int64) {
		k := int(nRows)
		tbl := NewTable(75, "fuzz", ingestSchema(), Config{})
		if err := tbl.InsertBatch(batchRows(0, 50)); err != nil {
			t.Fatal(err)
		}
		rows := batchRows(1, k)
		// Shape mutations: some produce invalid rows that must reject the
		// whole batch without tearing visible state.
		invalid := false
		if k > 0 {
			switch shape % 4 {
			case 1: // arity error in the middle
				rows[k/2] = rows[k/2][:2]
				invalid = true
			case 2: // type error at the end
				rows[k-1] = types.Row{types.NewString("x"), types.NewInt(seed), types.NewFloat(0)}
				invalid = true
			case 3: // nulls in a NOT NULL column
				rows[0] = types.Row{types.Null, types.NewInt(seed), types.NewFloat(1)}
				invalid = true
			}
		}
		var wg sync.WaitGroup
		if truncate {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := tbl.Truncate(); err != nil {
					t.Error(err)
				}
			}()
		}
		if shape&4 != 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := updateWhere(tbl, []Pred{{Col: 0, Op: encoding.OpEQ, Val: types.NewInt(0)}},
					map[int]types.Value{0: types.NewInt(2)}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts := map[int64]int{}
			err := scanSerial(tbl, nil, func(b *Batch) bool {
				for i := 0; i < b.Len(); i++ {
					counts[b.Value(0, i).Int()]++
				}
				return true
			})
			if err != nil {
				t.Error(err)
				return
			}
			if n := counts[0] + counts[2]; (n != 0 && n != 50) || (counts[0] != 0 && counts[2] != 0) {
				t.Errorf("seed batch torn: %d seed rows, %d replacements", counts[0], counts[2])
			}
			if n := counts[1]; n != 0 && n != k {
				t.Errorf("bulk batch torn: %d of %d rows", n, k)
			}
		}()
		n, err := bulkRows(tbl, rows)
		wg.Wait()
		if invalid {
			if err == nil {
				t.Fatal("invalid batch must be rejected")
			}
		} else if err != nil {
			t.Fatal(err)
		} else if n != k {
			t.Fatalf("appended %d, want %d", n, k)
		}
		// Post-race: the final state is consistent and fully scannable.
		final := 0
		if err := scanSerial(tbl, nil, func(b *Batch) bool {
			for i := 0; i < b.Len(); i++ {
				_ = b.Row(i)
			}
			final += b.Len()
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if final != tbl.SnapshotInfo().Rows {
			t.Fatalf("scan saw %d rows, SnapshotInfo reports %d", final, tbl.SnapshotInfo().Rows)
		}
	})
}
