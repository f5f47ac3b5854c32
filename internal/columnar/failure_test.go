package columnar

import (
	"fmt"
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

func TestSealFailureSurfacesOnInsert(t *testing.T) {
	fs := &faultStore{inner: NewMemStore(), failAfter: 2}
	tbl := NewTable(50, "f", types.Schema{{Name: "a", Kind: types.KindInt}}, Config{Store: fs})
	var rows []types.Row
	for i := 0; i < 4*page.StrideSize; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	err := tbl.InsertBatch(rows)
	if err == nil {
		t.Fatal("write failure during seal must surface")
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
	err := tbl.Scan([]Pred{{Col: 0, Op: encoding.OpGE, Val: types.NewInt(0)}}, func(*Batch) bool { return true })
	if err == nil {
		t.Fatal("read failure during scan must surface")
	}
	// Without predicates the scan touches no pages until materialization:
	// the failure surfaces when the batch decodes values.
	err = tbl.Scan(nil, func(b *Batch) bool {
		b.Row(0)
		return true
	})
	if err == nil {
		t.Fatal("read failure during materialization must surface as error, not panic")
	}
	// The naive path surfaces it too.
	if err := tbl.ScanNaive([]Pred{{Col: 0, Op: encoding.OpGE, Val: types.NewInt(0)}}, func(*Batch) bool { return true }); err == nil {
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
	err = tbl.Scan([]Pred{{Col: 0, Op: encoding.OpGE, Val: types.NewInt(0)}}, func(*Batch) bool { return true })
	if err == nil {
		t.Fatal("checksum mismatch must surface as a scan error")
	}
}

func TestConcurrentScansShareTable(t *testing.T) {
	tbl := newTestTable(t, 8*page.StrideSize)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			n, err := tbl.CountWhere([]Pred{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(int64(1000 * (g + 1)))}})
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
	if _, err := orig.DeleteWhere([]Pred{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(100)}}); err != nil {
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
	if reopened.Rows() != orig.Rows() {
		t.Fatalf("rows %d vs %d", reopened.Rows(), orig.Rows())
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
		want, err := orig.CountWhere(preds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.CountWhere(preds)
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
