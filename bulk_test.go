package dashdb_test

import (
	"sync"
	"testing"

	"dashdb"
	"dashdb/internal/workload"
)

func TestBulkLoader(t *testing.T) {
	db := dashdb.Open(dashdb.Options{BufferPoolBytes: 8 << 20})
	if _, err := db.Exec(`CREATE TABLE events (id BIGINT NOT NULL, kind VARCHAR(8), amt DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	b, err := db.Bulk("events", dashdb.BulkOptions{MaxRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"click", "view", "buy"}
	const n = 3503
	for i := 0; i < n; i++ {
		row := dashdb.Row{
			dashdb.NewInt(int64(i)),
			dashdb.NewString(kinds[i%3]),
			dashdb.NewFloat(float64(i) * 0.25),
		}
		if err := b.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if b.Pending() >= 1000 {
		t.Fatalf("auto-flush did not run: %d pending", b.Pending())
	}
	total, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("finish total %d, want %d", total, n)
	}
	r, err := db.Query(`SELECT COUNT(*) FROM events`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != n {
		t.Fatalf("count %d, want %d", r.Rows[0][0].Int(), n)
	}
	// Flush stats surfaced through the snapshot monitor.
	info, ok := db.SnapshotInfo("events")
	if !ok {
		t.Fatal("SnapshotInfo missing")
	}
	if info.BulkFlushes < 3 || info.BulkRows != n {
		t.Fatalf("bulk counters: %+v", info)
	}
	// Bad rows fail at Add and don't poison flushed data.
	if err := b.Add(dashdb.Row{dashdb.NewInt(1)}); err == nil {
		t.Fatal("Add after Finish must fail")
	}
	b2, _ := db.Bulk("events", dashdb.BulkOptions{})
	if err := b2.Add(dashdb.Row{dashdb.Null, dashdb.NewString("x"), dashdb.NewFloat(0)}); err == nil {
		t.Fatal("NULL into NOT NULL column must fail at Add")
	}
	if _, err := db.Bulk("nope", dashdb.BulkOptions{}); err == nil {
		t.Fatal("Bulk on a missing table must fail")
	}
}

// TestBulkLoaderRacingQueries: loader goroutines flush while queries run;
// every count is a whole number of flushes (MaxRows-sized batches except
// the final partial, which only appears after Finish).
func TestBulkLoaderRacingQueries(t *testing.T) {
	db := dashdb.Open(dashdb.Options{BufferPoolBytes: 8 << 20})
	if _, err := db.Exec(`CREATE TABLE stream (id BIGINT NOT NULL, v DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	const (
		flushRows = 512
		total     = 16 * flushRows
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		b, err := db.Bulk("stream", dashdb.BulkOptions{MaxRows: flushRows})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < total; i++ {
			if err := b.Add(dashdb.Row{dashdb.NewInt(int64(i)), dashdb.NewFloat(float64(i))}); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := b.Finish(); err != nil {
			t.Error(err)
		}
	}()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sess.Query(`SELECT COUNT(*) FROM stream`)
				if err != nil {
					t.Error(err)
					return
				}
				if n := res.Rows[0][0].Int(); n%flushRows != 0 {
					t.Errorf("count %d is not a whole number of %d-row flushes", n, flushRows)
					return
				}
			}
		}()
	}
	<-done
	close(stop)
	wg.Wait()
	r, err := db.Query(`SELECT COUNT(*) FROM stream`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != total {
		t.Fatalf("final count %d, want %d", r.Rows[0][0].Int(), total)
	}
}

// loadFinancial creates the financial schema in db and loads its accounts
// and transactions through DB.Bulk with the default flush thresholds,
// which is how the benchmark harness sets up its single-node workloads.
func loadFinancial(tb testing.TB, db *dashdb.DB, defs []workload.TableDef, data [][]dashdb.Row) {
	tb.Helper()
	for ti, td := range defs {
		if _, err := db.Engine().CreateTable(td.Name, td.Schema); err != nil {
			tb.Fatal(err)
		}
		bl, err := db.Bulk(td.Name, dashdb.BulkOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		for _, r := range data[ti] {
			if err := bl.Add(r); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := bl.Finish(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestBulkLoadGrowsFramesInPlace: the 150 000 date-clustered transactions
// arrive in three flushes, each reaching past the frames of reference of
// txn_id and txn_date. The frames grow upward in place, so the load
// rebuilds nothing and the widths follow the data's own spans: 7 years of
// days in 12 bits, 150 000 ids in 18.
func TestBulkLoadGrowsFramesInPlace(t *testing.T) {
	fin := workload.NewFinancial(150_000, 1)
	db := dashdb.Open(dashdb.Options{})
	defer db.Close()
	loadFinancial(t, db, fin.Tables(), [][]dashdb.Row{fin.Accounts(), fin.Transactions()})
	tbl, ok := db.Engine().Table("transactions")
	if !ok {
		t.Fatal("transactions missing")
	}
	if n := tbl.Stats().Rebuilds; n != 0 {
		t.Errorf("load rebuilt %d columns, want 0", n)
	}
	want := map[string]uint{"txn_id": 18, "txn_date": 12}
	for _, c := range tbl.ColumnCompressionReport() {
		if w, ok := want[c.Name]; ok && (c.Encoding != "MINUS" || c.WidthBits != w) {
			t.Errorf("%s: %s at %d bits, want MINUS at %d", c.Name, c.Encoding, c.WidthBits, w)
		}
	}
}

// BenchmarkBulkLoad loads the financial dataset (3 000 accounts and 150 000
// transactions) as TestBulkLoadGrowsFramesInPlace does; rows/s counts both
// tables.
func BenchmarkBulkLoad(b *testing.B) {
	fin := workload.NewFinancial(150_000, 1)
	defs := fin.Tables()
	data := [][]dashdb.Row{fin.Accounts(), fin.Transactions()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := dashdb.Open(dashdb.Options{})
		loadFinancial(b, db, defs, data)
		db.Close()
	}
	rows := len(data[0]) + len(data[1])
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
