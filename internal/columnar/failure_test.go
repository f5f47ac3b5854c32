package columnar

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
)

// faultStore injects storage failures: writes fail after failAfter
// successful ones; reads fail when failReads is set.
type faultStore struct {
	inner     PageStore
	writes    int
	failAfter int
	failReads bool
}

func (f *faultStore) WritePage(id page.ID, data []byte) error {
	f.writes++
	if f.failAfter >= 0 && f.writes > f.failAfter {
		return fmt.Errorf("faultStore: simulated write failure on %v", id)
	}
	return f.inner.WritePage(id, data)
}

func (f *faultStore) ReadPage(id page.ID) ([]byte, error) {
	if f.failReads {
		return nil, fmt.Errorf("faultStore: simulated read failure on %v", id)
	}
	return f.inner.ReadPage(id)
}

func (f *faultStore) DeletePage(id page.ID) error { return f.inner.DeletePage(id) }

func (f *faultStore) DeletePages(table uint32) error { return f.inner.DeletePages(table) }

// TestSealFailureSurfacesOnInsert: an append whose page write fails — the
// first to the fourth of the append's writes, with and without a rebuild
// of the frame of reference inside the append (a value below its base,
// which rewrites the sealed stride first) — returns the error and leaves
// the table exactly as its last epoch was: no epoch published, the same
// image (counts, raw bytes, encoders, pages, synopsis, tails), no page
// delete queued, and the same rows read back. A retry of the same rows
// then appends them all.
func TestSealFailureSurfacesOnInsert(t *testing.T) {
	schema := types.Schema{{Name: "a", Kind: types.KindInt}, {Name: "f", Kind: types.KindFloat, Nullable: true}}
	rows := func(from, n int, lo int64) []types.Row {
		out := make([]types.Row, n)
		for i := range out {
			x := lo + int64(from+i)
			out[i] = types.Row{types.NewInt(x), types.NewFloat(float64(x) / 4)}
			if i%7 == 3 {
				out[i][1] = types.NullOf(types.KindFloat)
			}
		}
		return out
	}
	for _, rebuild := range []bool{false, true} {
		for failAfter := 0; failAfter <= 3; failAfter++ {
			name := fmt.Sprintf("rebuild %v, write %d fails", rebuild, failAfter+1)
			fs := &faultStore{inner: NewMemStore(), failAfter: -1}
			tbl := NewTable(50, "f", schema, Config{Store: fs})
			first := rows(0, page.StrideSize+100, 1000) // one sealed stride and a tail
			if err := tbl.InsertBatch(first); err != nil {
				t.Fatal(err)
			}
			lo := int64(1000)
			if rebuild {
				lo = -5000
			}
			second := rows(len(first), 4*page.StrideSize, lo)
			image, epoch := imageOf(t, tbl), tbl.SnapshotInfo().Epoch
			fs.writes, fs.failAfter = 0, failAfter
			if err := tbl.InsertBatch(second); err == nil {
				t.Fatalf("%s: write failure during seal must surface", name)
			}
			after := imageOf(t, tbl)
			after.Rebuilds = image.Rebuilds // a failed rebuild is still counted
			if !reflect.DeepEqual(after, image) {
				t.Fatalf("%s: the failed append changed the table:\n%+v\nwas\n%+v", name, after, image)
			}
			if e := tbl.SnapshotInfo().Epoch; e != epoch {
				t.Fatalf("%s: epoch %d -> %d, want none published", name, epoch, e)
			}
			tbl.mu.Lock()
			pending := len(tbl.pending)
			tbl.mu.Unlock()
			if pending != 0 {
				t.Fatalf("%s: %d page deletes queued", name, pending)
			}
			if got, err := selectWhere(tbl, nil); err != nil || !reflect.DeepEqual(got, first) {
				t.Fatalf("%s: after the failure %d rows read (%v), want the first %d", name, len(got), err, len(first))
			}
			fs.failAfter = -1
			if err := tbl.InsertBatch(second); err != nil {
				t.Fatalf("%s: retry: %v", name, err)
			}
			want := append(slices.Clone(first), second...)
			if got, err := selectWhere(tbl, nil); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: after the retry %d rows read (%v), want %d", name, len(got), err, len(want))
			}
			if n := tbl.SnapshotInfo().Rows; n != len(want) {
				t.Fatalf("%s: %d rows after the retry, want %d", name, n, len(want))
			}
		}
	}
}

// TestAllNullFirstAppendRechooses: a BIGINT column whose first append is
// all NULL gets a dictionary (there is nothing to frame), and chooses
// again once values arrive: 3 000 one-row inserts of distinct values after
// two NULLs leave a frame of reference, no dictionary (the encoder bytes of
// the same values loaded alone), and every value in place.
func TestAllNullFirstAppendRechooses(t *testing.T) {
	tbl := NewTable(53, "n", types.Schema{{Name: "x", Kind: types.KindInt, Nullable: true}}, Config{})
	want := []types.Row{{types.NullOf(types.KindInt)}, {types.NullOf(types.KindInt)}}
	if err := tbl.InsertBatch(want); err != nil {
		t.Fatal(err)
	}
	if cc := tbl.ColumnCompressionReport()[0]; cc.Encoding != encoding.KindDict.String() {
		t.Fatalf("all-NULL column encoded as %q", cc.Encoding)
	}
	for i := range 3000 {
		row := types.Row{types.NewInt(int64(7*i + 1))}
		if err := tbl.InsertBatch([]types.Row{row}); err != nil {
			t.Fatal(err)
		}
		want = append(want, row)
	}
	// DictBytes is the encoder's size: a frame of reference's constant.
	framed := NewTable(54, "v", tbl.Schema(), Config{})
	if err := framed.InsertBatch(want[2:]); err != nil {
		t.Fatal(err)
	}
	cc, fc := tbl.ColumnCompressionReport()[0], framed.ColumnCompressionReport()[0]
	if cc.Encoding == encoding.KindDict.String() || cc.DictBytes != fc.DictBytes {
		t.Fatalf("after 3 000 values the column is %q with %d encoder bytes; the values alone make %q with %d", cc.Encoding, cc.DictBytes, fc.Encoding, fc.DictBytes)
	}
	if got, err := selectWhere(tbl, nil); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %d rows (%v), want %d", len(got), err, len(want))
	}
}

func TestReadFailureSurfacesOnScan(t *testing.T) {
	fs := &faultStore{inner: NewMemStore(), failAfter: -1}
	tbl := NewTable(51, "f", types.Schema{{Name: "a", Kind: types.KindInt}}, Config{Store: fs})
	var rows []types.Row
	for i := 0; i < 2*page.StrideSize; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	fs.failReads = true
	// a >= 1 leaves out stride 0's smallest value, so the synopsis cannot
	// show it to hold for every row there and the page must be read.
	err := scanSerial(tbl, []Pred{{Col: 0, Op: encoding.OpGE, Val: types.NewInt(1)}}, func(*Batch) bool { return true })
	if err == nil {
		t.Fatal("read failure during scan must surface")
	}
	// Without predicates the scan touches no pages until materialization:
	// the failure surfaces when the batch decodes values.
	err = scanSerial(tbl, nil, func(b *Batch) bool {
		b.Row(0)
		return true
	})
	if err == nil {
		t.Fatal("read failure during materialization must surface as error, not panic")
	}
	// The naive path surfaces it too.
	if err := scanNaive(tbl, []Pred{{Col: 0, Op: encoding.OpGE, Val: types.NewInt(0)}}, func(*Batch) bool { return true }); err == nil {
		t.Fatal("read failure during naive scan must surface")
	}
}

func TestCorruptPageDetectedOnLoad(t *testing.T) {
	store := NewMemStore()
	tbl := NewTable(52, "c", types.Schema{{Name: "a", Kind: types.KindInt}}, Config{Store: store})
	var rows []types.Row
	for i := 0; i < page.StrideSize; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	// Corrupt the sealed page in place.
	id := page.ID{Table: 52, Column: 0, Stride: 0}
	data, err := store.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[40] ^= 0xFF
	store.WritePage(id, corrupt)
	// a >= 1 does not hold for every row of the stride, so its page is read.
	err = scanSerial(tbl, []Pred{{Col: 0, Op: encoding.OpGE, Val: types.NewInt(1)}}, func(*Batch) bool { return true })
	if err == nil {
		t.Fatal("checksum mismatch must surface as a scan error")
	}
}

func TestConcurrentScansShareTable(t *testing.T) {
	tbl := newTestTable(t, 8*page.StrideSize)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			n, err := countWhere(tbl, []Pred{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(int64(1000 * (g + 1)))}})
			if err == nil && n != 1000*(g+1) {
				err = fmt.Errorf("goroutine %d saw %d rows", g, n)
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveAndOpenTable persists a table (sealed pages + dictionaries +
// open stride + tombstones) and reopens it from the store, verifying
// query equivalence — the §II.E portability mechanism.
func TestSaveAndOpenTable(t *testing.T) {
	store := NewMemStore()
	orig := NewTable(60, "sales", salesSchema(), Config{Store: store})
	loadSales(t, orig, 3000) // 2 sealed strides + open stride
	if _, err := deleteWhere(orig, []Pred{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(100)}}); err != nil {
		t.Fatal(err)
	}
	// A late value lands in the dictionary extension region.
	if err := insert(orig, types.Row{
		types.NewInt(99999), types.NewString("central"), types.NewDate(0), types.NewFloat(1),
	}); err != nil {
		t.Fatal(err)
	}
	if err := orig.SaveMeta(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenTable(60, salesSchema(), Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.SnapshotInfo().Rows != orig.SnapshotInfo().Rows {
		t.Fatalf("rows %d vs %d", reopened.SnapshotInfo().Rows, orig.SnapshotInfo().Rows)
	}
	queries := [][]Pred{
		nil,
		{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(500)}},
		{{Col: 1, Op: encoding.OpEQ, Val: types.NewString("north")}},
		{{Col: 1, Op: encoding.OpEQ, Val: types.NewString("central")}},
		{{Col: 1, Op: encoding.OpLT, Val: types.NewString("east")}},
		{{Col: 3, Op: encoding.OpGT, Val: types.NewFloat(100)}},
	}
	for _, preds := range queries {
		want, err := countWhere(orig, preds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := countWhere(reopened, preds)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("preds %v: reopened %d vs original %d", preds, got, want)
		}
	}
	// The reopened table accepts further writes.
	if err := insert(reopened, types.Row{
		types.NewInt(100000), types.NewString("north"), types.NewDate(1), types.NewFloat(2),
	}); err != nil {
		t.Fatal(err)
	}
	// Errors: opening a missing table, schema mismatch.
	if _, err := OpenTable(61, salesSchema(), Config{Store: store}); err == nil {
		t.Fatal("missing meta must fail")
	}
	if _, err := OpenTable(60, salesSchema()[:2], Config{Store: store}); err == nil {
		t.Fatal("schema arity mismatch must fail")
	}
}
