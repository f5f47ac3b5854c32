package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dashdb/internal/types"
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

// TestUpdateMatchesModel: UPDATEs whose SET is a constant, an expression
// and NULL, over a dictionary VARCHAR, a frame-of-reference BIGINT and a
// fixed-point DOUBLE column, matching rows in three sealed strides and the
// tail, leave what a plain-Go model of the table holds. The statements run
// twice in one session, so the second pass updates rows the first one
// re-inserted; under -race a new row read from a scan batch's pooled
// payload after its release would show.
func TestUpdateMatchesModel(t *testing.T) {
	const n = 3*1024 + 428
	db := newDB(t)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE u (id BIGINT NOT NULL, s VARCHAR(16), n BIGINT, d DOUBLE)`)
	model := make([]types.Row, n)
	var values []string
	for i := range model {
		model[i] = types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("s%02d", i%30)), types.NewInt(int64(3 * i)), types.NewFloat(float64(i) / 4)}
		values = append(values, fmt.Sprintf("(%d, 's%02d', %d, %g)", i, i%30, 3*i, float64(i)/4))
	}
	mustExec(t, s, `INSERT INTO u VALUES `+strings.Join(values, ", "))
	tbl, _ := db.Table("u")
	for ci, want := range []string{"MINUS", "FREQ-DICT", "MINUS", "MINUS"} {
		if got := tbl.ColumnCompressionReport()[ci].Encoding; got != want {
			t.Fatalf("column %d is %s, want %s", ci, got, want)
		}
	}
	null := func(k types.Kind) types.Value { return types.NullOf(k) }
	updates := []struct {
		stmt  string
		match func(id int64) bool
		set   func(r types.Row)
	}{
		{`UPDATE u SET s = 'new', n = n + 1000 WHERE id BETWEEN 500 AND 1500`,
			func(id int64) bool { return id >= 500 && id <= 1500 },
			func(r types.Row) {
				r[1] = types.NewString("new")
				if !r[2].IsNull() {
					r[2] = types.NewInt(r[2].Int() + 1000)
				}
			}},
		{`UPDATE u SET d = NULL, s = s || 'x' WHERE id >= 3000`,
			func(id int64) bool { return id >= 3000 },
			func(r types.Row) { r[3], r[1] = null(types.KindFloat), types.NewString(r[1].Str()+"x") }},
		{`UPDATE u SET n = NULL, d = d * 2 WHERE id < 100 OR id BETWEEN 2000 AND 2100`,
			func(id int64) bool { return id < 100 || id >= 2000 && id <= 2100 },
			func(r types.Row) {
				r[2] = null(types.KindInt)
				if !r[3].IsNull() {
					r[3] = types.NewFloat(r[3].Float() * 2)
				}
			}},
	}
	for pass := range 2 {
		for _, u := range updates {
			matched := 0
			for _, r := range model {
				if u.match(r[0].Int()) {
					u.set(r)
					matched++
				}
			}
			if got := mustExec(t, s, u.stmt).RowsAffected; got != int64(matched) {
				t.Fatalf("pass %d: %s: %d rows updated, want %d", pass, u.stmt, got, matched)
			}
			got := mustExec(t, s, `SELECT id, s, n, d FROM u ORDER BY id`).Rows
			if len(got) != n {
				t.Fatalf("pass %d: %s: %d rows, want %d", pass, u.stmt, len(got), n)
			}
			for i, r := range got {
				for j, v := range r {
					if w := model[i][j]; v.IsNull() != w.IsNull() || !v.IsNull() && !types.Equal(v, w) {
						t.Fatalf("pass %d: %s: row %d is %v, model %v", pass, u.stmt, i, r, model[i])
					}
				}
			}
		}
	}
}

// TestInsertSelectRefusedWritesNothing: an INSERT … SELECT of 3 000 rows,
// which a scan hands over as three batches, inserts none of them when the
// last batch holds a NULL for a NOT NULL column, with a column list or
// without; the same rows without the NULL all land.
func TestInsertSelectRefusedWritesNothing(t *testing.T) {
	db := newDB(t)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE src (x BIGINT, y BIGINT)`)
	mustExec(t, s, `CREATE TABLE dst (a BIGINT NOT NULL, b BIGINT)`)
	mustExec(t, s, `INSERT INTO src VALUES `+nullLastValues(3000))
	for _, q := range []string{`INSERT INTO dst SELECT x, y FROM src`, `INSERT INTO dst (b, a) SELECT y, x FROM src`} {
		if _, err := s.Exec(q); err == nil {
			t.Fatalf("%s: accepted a NULL into a NOT NULL column", q)
		}
		if n := mustExec(t, s, `SELECT COUNT(*) FROM dst`).Rows[0][0].Int(); n != 0 {
			t.Fatalf("%s: %d rows inserted, want 0", q, n)
		}
	}
	if got := mustExec(t, s, `INSERT INTO dst (b, a) SELECT y, x FROM src WHERE x IS NOT NULL`).RowsAffected; got != 2999 {
		t.Fatalf("%d rows inserted, want 2 999", got)
	}
	if r := mustExec(t, s, `SELECT COUNT(*), SUM(a), SUM(b) FROM dst`).Rows[0]; r[0].Int() != 2999 || r[1].Int() != 2999*2998/2 || r[2].Int() != 2*2999*2998/2 {
		t.Fatalf("dst holds %v", r)
	}
}

// nullLastValues is a VALUES list of n rows (i, 2i) whose last row is
// (NULL, 2i).
func nullLastValues(n int) string {
	values := make([]string, n)
	for i := range values {
		values[i] = fmt.Sprintf("(%d, %d)", i, 2*i)
	}
	values[n-1] = fmt.Sprintf("(NULL, %d)", 2*(n-1))
	return strings.Join(values, ", ")
}

// TestCTASKindPastNullBatch: a CTAS column the plan leaves untyped takes
// the kind of its first non-NULL value, which here arrives only after a
// whole batch of NULLs.
func TestCTASKindPastNullBatch(t *testing.T) {
	db := newDB(t)
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE src (x BIGINT)`)
	values := make([]string, 2000)
	for i := range values {
		values[i] = fmt.Sprintf("(%d)", i)
	}
	mustExec(t, s, `INSERT INTO src VALUES `+strings.Join(values, ", "))
	mustExec(t, s, `CREATE TABLE c AS SELECT NULL AS v FROM src UNION ALL SELECT x FROM src`)
	tbl, _ := db.Table("c")
	if k := tbl.Schema()[0].Kind; k != types.KindInt {
		t.Fatalf("CTAS column is %v, want BIGINT", k)
	}
	if r := mustExec(t, s, `SELECT COUNT(*), COUNT(v), SUM(v) FROM c`).Rows[0]; r[0].Int() != 4000 || r[1].Int() != 2000 || r[2].Int() != 1999*2000/2 {
		t.Fatalf("c holds %v", r)
	}
}

// BenchmarkInSubquery times WHERE a IN (SELECT …) with 20 000 outer rows
// and a 5 000-row subquery: the subquery's answer is a set built once, so
// each outer value is one lookup.
func BenchmarkInSubquery(b *testing.B) {
	db := newDB(b)
	s := db.NewSession()
	mustExec(b, s, `CREATE TABLE o (a BIGINT)`)
	mustExec(b, s, `CREATE TABLE i (v BIGINT)`)
	for _, load := range []struct {
		table string
		n     int
	}{{"o", 20000}, {"i", 5000}} {
		values := make([]string, load.n)
		for k := range values {
			values[k] = fmt.Sprintf("(%d)", 3*k)
		}
		mustExec(b, s, `INSERT INTO `+load.table+` VALUES `+strings.Join(values, ", "))
	}
	b.ResetTimer()
	for range b.N {
		if n := mustExec(b, s, `SELECT COUNT(*) FROM o WHERE a IN (SELECT v FROM i)`).Rows[0][0].Int(); n != 5000 {
			b.Fatalf("%d matches, want 5 000", n)
		}
	}
}
