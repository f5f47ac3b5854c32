package columnar

import (
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
)

// tailRows is openRow's first n rows, with column k NULL on every row from
// row from on when allNull is set.
func tailRows(n, from int, allNull bool) []types.Row {
	rows := make([]types.Row, n)
	for r := range rows {
		rows[r] = openRow(r)
		if allNull && r >= from {
			rows[r][1] = types.NullOf(types.KindInt)
		}
	}
	return rows
}

// checkTailPage checks that tbl's open stride rests as a page of exactly
// its rows in every column, and pins Compression().PageBytes to the sealed
// pages' MemSize plus the tail pages'.
func checkTailPage(t *testing.T, tbl *Table) {
	t.Helper()
	snap := tbl.Snapshot()
	defer snap.Release()
	st := snap.state()
	want := 0
	for ci := range st.cols {
		c := &st.cols[ci]
		open := st.rows % page.StrideSize
		switch {
		case open == 0 && c.tail != nil:
			t.Fatalf("column %d holds a tail of %d rows over no open row", ci, c.tail.Rows())
		case open > 0 && (c.tail == nil || c.tail.Rows() != open || int(c.tailSyn.RowCnt) != open):
			t.Fatalf("column %d: the open stride of %d rows has tail %v, entry %+v", ci, open, c.tail, c.tailSyn)
		}
		for s := range st.sealedStrides() {
			pg, err := tbl.loadPageGen(ci, c.gen, s)
			if err != nil {
				t.Fatal(err)
			}
			want += pg.MemSize()
		}
		if c.tail != nil {
			if len(c.tail.Marshal()) != c.tail.MemSize() {
				t.Fatalf("column %d: tail marshals to %d B, MemSize %d", ci, len(c.tail.Marshal()), c.tail.MemSize())
			}
			want += c.tail.MemSize()
		}
	}
	if got := tbl.Compression().PageBytes; got != want {
		t.Fatalf("PageBytes %d, want the pages' %d", got, want)
	}
}

// tailPreds is openPreds plus a BETWEEN (a GE and an LE conjunct) on each
// column it filters.
func tailPreds() [][]Pred {
	p := func(col int, op encoding.CmpOp, v types.Value) Pred { return Pred{Col: col, Op: op, Val: v} }
	f, i, s := types.NewFloat, types.NewInt, types.NewString
	return append(openPreds(),
		[]Pred{p(0, encoding.OpGE, i(40)), p(0, encoding.OpLE, i(1060))},
		[]Pred{p(1, encoding.OpGE, i(-20)), p(1, encoding.OpLE, i(20))},
		[]Pred{p(2, encoding.OpGE, f(0.05)), p(2, encoding.OpLE, f(0.5))},
		[]Pred{p(3, encoding.OpGE, s("v010")), p(3, encoding.OpLE, s("v030"))},
		[]Pred{p(4, encoding.OpGE, f(0.5)), p(4, encoding.OpLE, f(1.5))})
}

// checkTail runs checkAgainstReference over tailPreds, an IN list on each
// column over the delivered vectors, and a conjunct that spans every row
// of every stride, so the synopsis passes over its page: it must deliver
// the live rows exactly, the tail's among them, and count the rows of each
// stride scanned, a tail's n and not a stride's 1 024.
func checkTail(t *testing.T, tbl *Table, rows []types.Row) {
	t.Helper()
	checkTailPage(t, tbl)
	for _, preds := range tailPreds() {
		want := referenceIDs(rows, preds)
		for name, got := range scanIDs(t, tbl, preds) {
			if !slices.Equal(got, want) {
				t.Errorf("%v: %s selects %d ids, want %d", preds, name, len(got), len(want))
			}
		}
	}
	checkAgainstReference(t, tbl, rows)
	in := [][]types.Value{
		{types.NewInt(3), types.NewInt(1000), types.NewInt(1030)},
		{types.NewInt(-100), types.NewInt(0), types.NewInt(50_000)},
		{types.NewFloat(0.03), types.NewFloat(10.24)},
		{types.NewString("v007"), types.NewString("a-late-0"), types.NewString("absent")},
		{types.NewFloat(1), types.NewFloat(2.0 / 3)},
	}
	for dop := 1; dop <= 2; dop++ {
		var mu sync.Mutex
		got := make([]int, len(in))
		if err := scanDop(tbl, nil, dop, func(_ int, b *Batch) bool {
			vs := b.VectorsEnc(nil, nil)
			mu.Lock()
			defer mu.Unlock()
			for ci, set := range in {
				for k := 0; k < b.Len(); k++ {
					if v := vs[ci].Get(k); !v.IsNull() && slices.ContainsFunc(set, func(x types.Value) bool { return types.Compare(v, x) == 0 }) {
						got[ci]++
					}
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for ci, set := range in {
			want := 0
			for _, r := range rows {
				if !r[ci].IsNull() && slices.ContainsFunc(set, func(x types.Value) bool { return types.Compare(r[ci], x) == 0 }) {
					want++
				}
			}
			if got[ci] != want {
				t.Errorf("dop %d: IN %v on column %d counts %d rows, want %d", dop, set, ci, got[ci], want)
			}
		}
	}
	// id ≥ the smallest id spans every stride, so no page is read and the
	// selection is the stride's rows with the tombstones cleared.
	span := []Pred{{Col: 0, Op: encoding.OpGE, Val: types.NewInt(0)}}
	snap := tbl.Snapshot()
	defer snap.Release()
	st := snap.state()
	for dop := 1; dop <= 2; dop++ {
		tbl.ResetStats()
		var mu sync.Mutex
		var ids []int64
		if err := scanDop(snap, span, dop, func(_ int, b *Batch) bool {
			mu.Lock()
			defer mu.Unlock()
			for k := 0; k < b.Len(); k++ {
				if rid := b.RowID(k); rid >= int64(st.rows) {
					t.Fatalf("row id %d past the table's %d rows", rid, st.rows)
				}
				ids = append(ids, b.Value(0, k).Int())
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		slices.Sort(ids)
		if want := referenceIDs(rows, nil); !slices.Equal(ids, want) {
			t.Fatalf("dop %d: a spanning conjunct selects %d rows, want the %d live ones", dop, len(ids), len(want))
		}
		if s := tbl.Stats(); s.RowsScanned != uint64(st.rows) || s.PagesRead != 0 {
			t.Fatalf("dop %d: a spanning conjunct scanned %d rows and read %d pages, want %d and 0", dop, s.RowsScanned, s.PagesRead, st.rows)
		}
	}
}

// TestOpenStrideIsAPage: tails of 1, 2, 63, 64, 65 and 1 023 rows, alone
// and after a sealed stride, with NULLs and with a column NULL on every
// tail row, rest as pages and read like sealed strides: every comparison,
// BETWEEN and IN at dop 1 and 2 agree with ScanNaive and a plain Go
// filter, before and after tombstones in the tail, and after trickle
// inserts that reach a dictionary's extension, extend a frame of reference
// and rebuild one with the tail non-empty.
func TestOpenStrideIsAPage(t *testing.T) {
	for _, sealed := range []int{0, 1} {
		for _, n := range []int{1, 2, 63, 64, 65, page.StrideSize - 1} {
			for _, allNull := range []bool{false, true} {
				t.Run(fmt.Sprintf("sealed=%d/tail=%d/allNull=%v", sealed, n, allNull), func(t *testing.T) {
					from := sealed * page.StrideSize
					rows := tailRows(from+n, from, allNull)
					tbl := NewTable(90, "tail", openSchema(), Config{})
					if _, err := bulkRows(tbl, rows); err != nil {
						t.Fatal(err)
					}
					if syn := tbl.epochs.Current().State().cols[1].tailSyn; allNull && (!syn.AllNulls || int(syn.NullCnt) != n) {
						t.Fatalf("an all-NULL tail's entry is %+v", syn)
					}
					checkTail(t, tbl, rows)

					// Tombstones at the tail's first, middle and last row.
					dead := []int64{int64(from), int64(from + n/2), int64(from + n - 1)}
					for _, id := range dead {
						if _, err := deleteWhere(tbl, []Pred{{Col: 0, Op: encoding.OpEQ, Val: types.NewInt(id)}}); err != nil {
							t.Fatal(err)
						}
					}
					rows = slices.DeleteFunc(rows, func(r types.Row) bool { return slices.Contains(dead, r[0].Int()) })
					checkTail(t, tbl, rows)

					// Trickle inserts: extension-region strings, k above
					// and below its frame (an extension, then a rebuild).
					for i := 0; i < 3 && n+i < page.StrideSize; i++ {
						row := lateRow(from+n+i, i)
						if err := insert(tbl, row); err != nil {
							t.Fatal(err)
						}
						rows = append(rows, row)
					}
					// A column NULL on every row so far has a dictionary.
					if n+3 < page.StrideSize && !(allNull && sealed == 0) && tbl.Stats().Rebuilds == 0 {
						t.Fatal("no trickle insert rebuilt a frame")
					}
					checkTail(t, tbl, rows)
				})
			}
		}
	}
}

// TestTailRebuildRepacks: a rebuild re-encodes the tail through the new
// encoder into a new tail page, which a pinned epoch does not see.
func TestTailRebuildRepacks(t *testing.T) {
	rows := tailRows(page.StrideSize+300, 0, false)
	tbl := NewTable(91, "rebuild", openSchema(), Config{})
	if _, err := bulkRows(tbl, rows); err != nil {
		t.Fatal(err)
	}
	before := tbl.Snapshot()
	defer before.Release()
	old := before.state().cols[1].tail
	row := lateRow(len(rows), 0) // k = -50 000: below k's frame
	if err := insert(tbl, row); err != nil {
		t.Fatal(err)
	}
	if tbl.Stats().Rebuilds != 1 {
		t.Fatalf("%d rebuilds, want 1", tbl.Stats().Rebuilds)
	}
	after := tbl.Snapshot()
	defer after.Release()
	if now := after.state().cols[1].tail; now == old || now.Rows() != 301 || old.Rows() != 300 {
		t.Fatalf("tail of %d rows after the rebuild, %d before (same page %v)", now.Rows(), old.Rows(), now == old)
	}
	pinned, err := selectWhere(before, nil)
	if err != nil || !slices.EqualFunc(pinned, rows, sameRow) {
		t.Fatalf("the pinned epoch reads %d rows (err %v), not its %d", len(pinned), err, len(rows))
	}
	checkTail(t, tbl, append(rows, row))
}

// TestTailEpochsUnderAppends: an epoch pinned before each of 1 100 one-row
// appends, which cross one seal, reads exactly the rows before that append
// while the writer goes on; run it under -race.
func TestTailEpochsUnderAppends(t *testing.T) {
	const appends = 1100
	tbl := NewTable(92, "epochs", openSchema(), Config{})
	snaps := make(chan *Snapshot, appends)
	errs := make(chan error, appends)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for snap := range snaps {
				errs <- readEpoch(snap)
				snap.Release()
			}
		}()
	}
	for i := range appends {
		snaps <- tbl.Snapshot()
		if err := insert(tbl, openRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(snaps)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := tbl.Snapshot(); s.Rows() != appends {
		t.Fatalf("%d rows, want %d", s.Rows(), appends)
	} else {
		s.Release()
	}
}

// readEpoch checks that snap reads ids 0 to its row count less one, every
// column as openRow has it, through the scan and the vector decode.
func readEpoch(snap *Snapshot) error {
	n := snap.Rows()
	next := 0
	err := snap.Scan(nil, nil, 1, nil, func(_ int, b *Batch) bool {
		vs := b.VectorsEnc(nil, nil)
		for k := 0; k < b.Len(); k++ {
			want := openRow(next)
			for ci, v := range vs {
				if got := v.Get(k); got.IsNull() != want[ci].IsNull() || types.Compare(got, want[ci]) != 0 {
					return false
				}
			}
			next++
		}
		return true
	})
	if err == nil && next != n {
		err = fmt.Errorf("an epoch of %d rows read %d in order", n, next)
	}
	return err
}

// TestTailIsSkipped: a conjunct outside the tail's span skips the tail as
// it skips a sealed stride, reading no page of it.
func TestTailIsSkipped(t *testing.T) {
	tbl := NewTable(93, "skip", openSchema(), Config{})
	if _, err := bulkRows(tbl, tailRows(page.StrideSize+500, 0, false)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pred      Pred
		rows      int
		skippedAt int // the stride the synopsis skips
	}{
		{Pred{Col: 0, Op: encoding.OpLT, Val: types.NewInt(500)}, 500, 1},
		{Pred{Col: 0, Op: encoding.OpGE, Val: types.NewInt(1100)}, 424, 0},
	} {
		tbl.ResetStats()
		var visited []int
		n := 0
		if err := scanSerial(tbl, []Pred{c.pred}, func(b *Batch) bool {
			visited = append(visited, b.stride)
			n += b.Len()
			return true
		}); err != nil {
			t.Fatal(err)
		}
		s := tbl.Stats()
		if n != c.rows || s.StridesSkipped != 1 || s.StridesVisited != 1 || s.PagesRead != 1 || slices.Contains(visited, c.skippedAt) {
			t.Fatalf("%v: %d rows, strides %v delivered, %d skipped, %d visited, %d pages read; want %d rows, stride %d skipped, one visited, one page", c.pred, n, visited, s.StridesSkipped, s.StridesVisited, s.PagesRead, c.rows, c.skippedAt)
		}
	}
}

// Metadata that a release before tail pages wrote, for a table (id 7)
// of a BIGINT a = 0, 1, … and a nullable VARCHAR s = "s<i mod 3>", NULL
// on every fifth row: at 1 024 rows (one sealed stride, whose two pages
// follow, and an empty open stride) and at 1 027 (three open rows, held
// as uvarint codes).
const (
	goldenMeta1024 = "db5401016780108010b0e601000002db45010102ff03ff0b00018002ff09008008000000db4501020401030273300273310273320000010002cc018008000000"
	goldenPageA    = "5bda0100070000000000000000000004000010000000000100000d0000000100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000d4f9d868"
	goldenPageS    = "5bda0200070000000100000000000004000020000000000000000800104208218410420821841042082184104208218410420821841042082184104208218410420821841042082184104208218410420821841042082184104208218410420821841042082184104208218410420821841042082184104208218410420821841042082184104208218410420821841042082184104208218410420824489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224489204099224418224499020491224be28e89d"
	goldenMeta1027 = "db540101678610861088e701000002db450101028104840c00018102800a0080080003810a820a830a0100db4501020401030273300273310273320000010002cc01800800030002000101"
)

// TestPreTailMetadata: metadata written before tail pages opens when its
// open stride is empty and is refused with ErrOpenCodes when it holds
// codes.
func TestPreTailMetadata(t *testing.T) {
	schema := types.Schema{{Name: "a", Kind: types.KindInt}, {Name: "s", Kind: types.KindString, Nullable: true}}
	store := NewMemStore()
	for id, h := range map[page.ID]string{metaID(7): goldenMeta1024, {Table: 7, Column: 0}: goldenPageA, {Table: 7, Column: 1}: goldenPageS} {
		data, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WritePage(id, data); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := OpenTable(7, schema, Config{Store: store})
	if err != nil {
		t.Fatalf("a blob with an empty open stride: %v", err)
	}
	rows, err := selectWhere(tbl, nil)
	if err != nil || len(rows) != page.StrideSize {
		t.Fatalf("read %d rows (err %v), want %d", len(rows), err, page.StrideSize)
	}
	for i, r := range rows {
		want := types.NewString(fmt.Sprintf("s%d", i%3))
		if i%5 == 4 {
			want = types.NullOf(types.KindString)
		}
		if r[0].Int() != int64(i) || r[1].IsNull() != want.IsNull() || !want.IsNull() && r[1].Str() != want.Str() {
			t.Fatalf("row %d reads %v", i, r)
		}
	}
	data, err := hex.DecodeString(goldenMeta1027)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WritePage(metaID(7), data); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTable(7, schema, Config{Store: store}); !errors.Is(err, ErrOpenCodes) {
		t.Fatalf("a blob holding open codes: err %v, want ErrOpenCodes", err)
	}
}

// sameRow reports whether a and b hold equal values, NULLs alike.
func sameRow(a, b types.Row) bool {
	return slices.EqualFunc(a, b, func(x, y types.Value) bool {
		return x.IsNull() == y.IsNull() && types.Compare(x, y) == 0
	})
}
