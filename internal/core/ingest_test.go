package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// Concurrent-ingest isolation suite: trickle INSERTs and bulk multi-row
// INSERT flushes race the full query mix (filter, cross join, group by)
// at several parallelism degrees. Every query must observe a
// statement-consistent snapshot — a whole number of batches — no matter
// how the writers interleave.

// multiRowInsert renders "INSERT INTO t VALUES (batch,0,v),...,(batch,k-1,v)".
func multiRowInsert(table string, batch, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
	for i := 0; i < k; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d, %d, %d.5)", batch, i, (batch+i)%100)
	}
	return b.String()
}

func TestMultiRowInsertValues(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `CREATE TABLE mr (batch BIGINT NOT NULL, seq BIGINT NOT NULL, val DOUBLE)`)
	r := mustExec(t, s, multiRowInsert("mr", 0, 257))
	if r.RowsAffected != 257 {
		t.Fatalf("rows affected %d, want 257", r.RowsAffected)
	}
	r = mustExec(t, s, `SELECT COUNT(*), MIN(seq), MAX(seq) FROM mr`)
	row := r.Rows[0]
	if row[0].Int() != 257 || row[1].Int() != 0 || row[2].Int() != 256 {
		t.Fatalf("got %v", row)
	}
	// Parameterized multi-row VALUES through the prepared path.
	if _, err := s.ExecParams(`INSERT INTO mr VALUES (?, ?, ?), (?, ?, ?)`,
		types.NewInt(1), types.NewInt(0), types.NewFloat(1.5),
		types.NewInt(1), types.NewInt(1), types.NewFloat(2.5)); err != nil {
		t.Fatal(err)
	}
	r = mustExec(t, s, `SELECT COUNT(*) FROM mr WHERE batch = 1`)
	if r.Rows[0][0].Int() != 2 {
		t.Fatalf("param batch count %d", r.Rows[0][0].Int())
	}
	// A multi-row INSERT with one bad row applies nothing.
	if _, err := s.Exec(`INSERT INTO mr VALUES (2, 0, 1.0), (2, NULL, 2.0)`); err == nil {
		t.Fatal("NULL into NOT NULL column must fail")
	}
	r = mustExec(t, s, `SELECT COUNT(*) FROM mr WHERE batch = 2`)
	if r.Rows[0][0].Int() != 0 {
		t.Fatalf("failed batch left %d rows visible", r.Rows[0][0].Int())
	}
}

// TestConcurrentIngestQueryMix runs trickle and bulk writers against
// readers executing COUNT, filtered COUNT, GROUP BY and a self cross
// join, at dop 1, 2 and 8. Invariants per statement snapshot:
//   - COUNT(*) is a multiple of the batch size k
//   - SUM over GROUP BY counts equals the COUNT in the same statement's
//     epoch (group-by and count agree batch-wise: each is a multiple of k)
//   - the self cross join returns exactly COUNT(*)^2 for some consistent
//     count — a perfect square of a multiple of k — because both scans of
//     one statement pin the same epoch
func TestConcurrentIngestQueryMix(t *testing.T) {
	const (
		k          = 300
		writers    = 2
		batchesPer = 20
	)
	db := newDB(t)
	setup := db.NewSession()
	mustExec(t, setup, `CREATE TABLE feed (batch BIGINT NOT NULL, seq BIGINT NOT NULL, val DOUBLE)`)

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			sess := db.NewSession()
			for b := 0; b < batchesPer; b++ {
				id := w*batchesPer + b
				var err error
				if w%2 == 0 {
					// Trickle: single statement, k rows, one epoch.
					_, err = sess.Exec(multiRowInsert("feed", id, k))
				} else {
					// Bulk path: direct BulkAppend flush on the table.
					tbl, ok := db.Table("feed")
					if !ok {
						t.Error("feed table missing")
						return
					}
					rows := make([]types.Row, k)
					for i := range rows {
						rows[i] = types.Row{
							types.NewInt(int64(id)),
							types.NewInt(int64(i)),
							types.NewFloat(float64(i)),
						}
					}
					var b *vec.Batch
					if b, err = columnar.LanesOf(tbl.Schema(), rows); err == nil {
						_, err = tbl.BulkAppend(b)
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for _, dop := range []int{1, 2, 8} {
		readerWG.Add(1)
		go func(dop int) {
			defer readerWG.Done()
			sess := db.NewSession()
			if _, err := sess.Exec(fmt.Sprintf("SET PARALLELISM %d", dop)); err != nil {
				t.Error(err)
				return
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0: // plain + filtered count in one snapshot each
					r, err := sess.Query(`SELECT COUNT(*) FROM feed`)
					if err != nil {
						t.Error(err)
						return
					}
					if n := r.Rows[0][0].Int(); n%k != 0 {
						t.Errorf("dop %d: COUNT(*) %d not a multiple of %d", dop, n, k)
						return
					}
				case 1: // group by batch: every visible batch is whole
					r, err := sess.Query(`SELECT batch, COUNT(*) FROM feed GROUP BY batch`)
					if err != nil {
						t.Error(err)
						return
					}
					for _, row := range r.Rows {
						if row[1].Int() != k {
							t.Errorf("dop %d: batch %d visible with %d rows, want %d",
								dop, row[0].Int(), row[1].Int(), k)
							return
						}
					}
				case 2: // self cross join: both sides share the epoch
					r, err := sess.Query(
						`SELECT COUNT(*) FROM (SELECT batch FROM feed WHERE seq = 0) a, (SELECT batch FROM feed WHERE seq = 0) b`)
					if err != nil {
						t.Error(err)
						return
					}
					n := r.Rows[0][0].Int()
					// One seq=0 row per batch, so the join returns
					// batches^2 — a perfect square.
					var root int64
					for root*root < n {
						root++
					}
					if root*root != n {
						t.Errorf("dop %d: cross join count %d is not a perfect square — scans saw different epochs", dop, n)
						return
					}
				}
			}
		}(dop)
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if t.Failed() {
		return
	}
	r := mustExec(t, setup, `SELECT COUNT(*) FROM feed`)
	want := int64(writers * batchesPer * k)
	if got := r.Rows[0][0].Int(); got != want {
		t.Fatalf("final count %d, want %d", got, want)
	}
	// MON_SNAPSHOTS reflects the activity: the table advanced epochs and
	// recorded the bulk flushes.
	r = mustExec(t, setup, `SELECT epoch, pinned_readers, bulk_flushes, bulk_rows FROM mon_snapshots WHERE table_name = 'FEED'`)
	if len(r.Rows) != 1 {
		t.Fatalf("mon_snapshots rows: %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row[0].Int() < int64(writers*batchesPer) {
		t.Fatalf("epoch %d after %d batches", row[0].Int(), writers*batchesPer)
	}
	if row[2].Int() != batchesPer || row[3].Int() != int64(batchesPer*k) {
		t.Fatalf("bulk counters: flushes %d rows %d", row[2].Int(), row[3].Int())
	}
}

// TestTruncateRacingQueries: TRUNCATE through the epoch swap — readers
// racing a truncating writer always see either a whole number of batches
// or the empty table, never an error or a partial state.
func TestTruncateRacingQueries(t *testing.T) {
	const k = 250
	db := newDB(t)
	setup := db.NewSession()
	mustExec(t, setup, `CREATE TABLE tr (batch BIGINT NOT NULL, seq BIGINT NOT NULL, val DOUBLE)`)

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		sess := db.NewSession()
		for cycle := 0; cycle < 30; cycle++ {
			if cycle%4 == 3 {
				if _, err := sess.Exec(`TRUNCATE TABLE tr`); err != nil {
					t.Error(err)
					return
				}
				continue
			}
			if _, err := sess.Exec(multiRowInsert("tr", cycle, k)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < 3; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			sess := db.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sess.Query(`SELECT COUNT(*) FROM tr`)
				if err != nil {
					t.Error(err)
					return
				}
				if n := res.Rows[0][0].Int(); n%k != 0 {
					t.Errorf("COUNT(*) %d not a multiple of %d across truncate", n, k)
					return
				}
			}
		}()
	}
	<-writerDone
	close(stop)
	readerWG.Wait()
}

// TestDropRacingQueries: DROP TABLE while readers hold pinned snapshots —
// in-flight statements complete against their epoch; later statements see
// the catalog change.
func TestDropRacingQueries(t *testing.T) {
	db := newDB(t)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE dr (batch BIGINT NOT NULL, seq BIGINT NOT NULL, val DOUBLE)`)
	mustExec(t, s, multiRowInsert("dr", 0, 2000))

	tbl, ok := db.Table("dr")
	if !ok {
		t.Fatal("dr missing")
	}
	snap := tbl.Snapshot()
	defer snap.Release()

	mustExec(t, s, `DROP TABLE dr`)
	if _, err := s.Query(`SELECT COUNT(*) FROM dr`); err == nil {
		t.Fatal("query after DROP must fail")
	}
	// The pinned snapshot still reads the dropped table's data: pages are
	// reclaimed only when the epoch drains.
	n := 0
	if err := snap.Scan(nil, nil, 1, nil, func(_ int, b *columnar.Batch) bool { n += b.Len(); return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("pinned reader saw %d rows after DROP, want 2000", n)
	}
}
