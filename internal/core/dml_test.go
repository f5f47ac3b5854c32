package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Write-path suite: an UPDATE or a DELETE is one columnar Change. A
// statement that fails changes nothing, one that succeeds publishes one
// epoch, and statements racing on one table apply one after another — an
// UPDATE never loses, multiplies or resurrects a row.

// dmlTable creates t (id, v), both NOT NULL, holding (1,10), (2,20),
// (3,30).
func dmlTable(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := newDB(t)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (id BIGINT NOT NULL, v BIGINT NOT NULL)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)
	return db, s
}

// dump renders t's rows in id order.
func dump(t *testing.T, s *Session) string {
	t.Helper()
	return fmt.Sprint(mustExec(t, s, `SELECT id, v FROM t ORDER BY id`).Rows)
}

// TestUpdateFailureChangesNothing: an UPDATE refused by the schema or by
// its SET expression — on one row, or on the second of three matched rows —
// leaves every row and the epoch as they were.
func TestUpdateFailureChangesNothing(t *testing.T) {
	for _, stmt := range []string{
		`UPDATE t SET v = NULL WHERE id = 2`,
		`UPDATE t SET v = CASE WHEN id = 2 THEN NULL ELSE v + 1 END`,
		`UPDATE t SET v = 10 / (id - 2)`,
	} {
		db, s := dmlTable(t)
		tbl, _ := db.Table("t")
		before, epoch := dump(t, s), tbl.SnapshotInfo().Epoch
		if _, err := s.Exec(stmt); err == nil {
			t.Fatalf("%s: succeeded", stmt)
		}
		if after := dump(t, s); after != before {
			t.Fatalf("%s: rows %s -> %s", stmt, before, after)
		}
		if n := mustExec(t, s, `SELECT COUNT(*) FROM t`).Rows[0][0].Int(); n != 3 {
			t.Fatalf("%s: COUNT(*) = %d, want 3", stmt, n)
		}
		if got := tbl.SnapshotInfo().Epoch; got != epoch {
			t.Fatalf("%s: epoch %d -> %d, want unchanged", stmt, epoch, got)
		}
	}
}

// TestUpdateDeletePublishOneEpoch: one UPDATE and one DELETE each advance
// the table's epoch by exactly one, so no reader can pin between the
// delete and the re-insert of an UPDATE.
func TestUpdateDeletePublishOneEpoch(t *testing.T) {
	db, s := dmlTable(t)
	tbl, _ := db.Table("t")
	for _, stmt := range []string{
		`UPDATE t SET v = v + 1 WHERE id >= 2`,
		`DELETE FROM t WHERE id = 3`,
	} {
		epoch := tbl.SnapshotInfo().Epoch
		mustExec(t, s, stmt)
		if got := tbl.SnapshotInfo().Epoch; got != epoch+1 {
			t.Fatalf("%s: epoch %d -> %d, want one publish", stmt, epoch, got)
		}
	}
	if got, want := dump(t, s), "[(1, 10) (2, 21)]"; got != want {
		t.Fatalf("rows %s, want %s", got, want)
	}
}

// raceUpdates runs sessions × runs of `UPDATE t SET v = v + 1 WHERE id = 1`
// concurrently, plus DELETE FROM t WHERE id = 1 once after the first
// update when del is set. Each session stops at the first COUNT(*) above
// one, so a table that multiplies rows fails fast instead of growing, and
// at the first row it sees again after the DELETE has returned.
func raceUpdates(t *testing.T, sessions, runs int, del bool) *Session {
	t.Helper()
	db := newDB(t)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (id BIGINT NOT NULL, v BIGINT NOT NULL)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 0)`)
	var wg sync.WaitGroup
	errs := make(chan error, sessions+1)
	first := make(chan struct{})
	var once sync.Once
	var deleted atomic.Bool
	for range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ss := db.NewSession()
			for range runs {
				gone := deleted.Load()
				if _, err := ss.Exec(`UPDATE t SET v = v + 1 WHERE id = 1`); err != nil {
					errs <- err
					return
				}
				once.Do(func() { close(first) })
				r, err := ss.Exec(`SELECT COUNT(*) FROM t`)
				if err != nil {
					errs <- err
					return
				}
				if n := r.Rows[0][0].Int(); n > 1 || (n != 1 && !del) || (n != 0 && gone) {
					errs <- fmt.Errorf("after an UPDATE the table holds %d rows (deleted: %v)", n, gone)
					return
				}
			}
		}()
	}
	if del {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-first
			if _, err := db.NewSession().Exec(`DELETE FROM t WHERE id = 1`); err != nil {
				errs <- err
			}
			deleted.Store(true)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return s
}

// TestUpdateConcurrentSessions: 4 sessions × 25 increments of one row end
// with that one row, incremented 100 times.
func TestUpdateConcurrentSessions(t *testing.T) {
	s := raceUpdates(t, 4, 25, false)
	if got := dump(t, s); got != "[(1, 100)]" {
		t.Fatalf("rows %s, want [(1, 100)]", got)
	}
}

// TestUpdateRacingDelete: a DELETE racing the increments removes the row
// for good — no UPDATE that matched it before the DELETE re-inserts it.
// The race is run several times, since one run rarely lands a DELETE
// inside an UPDATE.
func TestUpdateRacingDelete(t *testing.T) {
	for range 8 {
		s := raceUpdates(t, 4, 25, true)
		if got := dump(t, s); got != "[]" {
			t.Fatalf("rows %s after the DELETE, want none", got)
		}
	}
}
