package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dashdb/internal/mem"
	"dashdb/internal/types"
)

// TestMemoryGovernorSQL drives the memory governor through the SQL
// surface: SET SORTHEAP/HASHHEAP cap the session, spilled queries stay
// correct, EXPLAIN ANALYZE and MON_MEMORY report the pressure, and the
// spill directory is empty once the queries finish.
func TestMemoryGovernorSQL(t *testing.T) {
	dir := t.TempDir()
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2, TempDir: dir})
	defer db.Close()
	s := db.NewSession()
	seedSales(t, s, 20_000)

	want := mustExec(t, s, `SELECT id FROM sales ORDER BY amount, id`)

	// Byte-size suffixes lex as number+ident; SET must glue them back.
	if r := mustExec(t, s, `SET SORTHEAP 64KB`); r.Message != "SORTHEAP 65536" {
		t.Fatalf("SET SORTHEAP 64KB: %q", r.Message)
	}
	mustExec(t, s, `SET HASHHEAP 64KB`)
	if _, err := s.Exec(`SET SORTHEAP banana`); err == nil {
		t.Fatal("SET SORTHEAP banana should fail")
	}

	got := mustExec(t, s, `SELECT id FROM sales ORDER BY amount, id`)
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("spilled sort row count %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if got.Rows[i][0].Int() != want.Rows[i][0].Int() {
			t.Fatalf("row %d: spilled sort %d, in-memory %d", i, got.Rows[i][0].Int(), want.Rows[i][0].Int())
		}
	}

	r := mustExec(t, s, `EXPLAIN ANALYZE SELECT id FROM sales ORDER BY amount`)
	if plan := planText(r); !strings.Contains(plan, "[spill: runs=") {
		t.Fatalf("analyze plan missing spill annotation:\n%s", plan)
	}

	r = mustExec(t, s, `SELECT heap, spill_runs, spill_bytes FROM mon_memory ORDER BY heap`)
	var sawSortSpill bool
	for _, row := range r.Rows {
		if row[0].Str() == "SORTHEAP" && row[1].Int() > 0 && row[2].Int() > 0 {
			sawSortSpill = true
		}
	}
	if !sawSortSpill {
		t.Fatalf("MON_MEMORY shows no SORTHEAP spill: %v", r.Rows)
	}

	if left, _ := filepath.Glob(filepath.Join(dir, "*"+mem.SpillSuffix)); len(left) > 0 {
		t.Fatalf("spill files left behind: %v", left)
	}

	if r := mustExec(t, s, `SET SORTHEAP DEFAULT`); r.Message != "SORTHEAP AUTO" {
		t.Fatalf("SET SORTHEAP DEFAULT: %q", r.Message)
	}
}

// TestTopKDoesNotSpill runs the benchmark's topk shape — 22 000
// transactions, ORDER BY amount DESC, txn_id FETCH FIRST 100 ROWS ONLY —
// under a 1 MiB SORTHEAP. The same sort without the limit spills there
// (TestSortHeapStepping has the arithmetic). The limit bounds the sort to
// 100 rows, so it never buffers more than 200 and one batch and spills
// nothing, and it returns the unbounded sort's first 100 rows.
func TestTopKDoesNotSpill(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, TempDir: t.TempDir()})
	defer db.Close()
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE transactions (txn_id BIGINT NOT NULL, amount DOUBLE)`)
	var b strings.Builder
	b.WriteString("INSERT INTO transactions VALUES ")
	const n = 22_000
	for i := range n {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d, %d.%02d)", i*7919%n, i*104729%2000, i%100)
	}
	mustExec(t, s, b.String())
	mustExec(t, s, `SET SORTHEAP 1MB`)

	const full = `SELECT txn_id, amount FROM transactions ORDER BY amount DESC, txn_id`
	const topk = full + ` FETCH FIRST 100 ROWS ONLY`
	want, got := mustExec(t, s, full).Rows[:100], mustExec(t, s, topk).Rows
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("top 100 differ from the full sort's first 100:\n%v\n%v", got, want)
	}
	sortLine := func(q string) string {
		for _, line := range strings.Split(planText(mustExec(t, s, "EXPLAIN ANALYZE "+q)), "\n") {
			if strings.Contains(line, "SORT [") {
				return line
			}
		}
		t.Fatalf("no SORT line for %s", q)
		return ""
	}
	if line := sortLine(full); !strings.Contains(line, "[spill: runs=") {
		t.Fatalf("the unbounded sort does not spill under a 1 MiB SORTHEAP: %s", line)
	}
	if line := sortLine(topk); !strings.Contains(line, "SORT [2 keys] [top 100]") || strings.Contains(line, "[spill:") {
		t.Fatalf("the bounded sort must spill nothing: %s", line)
	}
}

// TestDistinctSpills checks duplicate elimination under the governor:
// SELECT DISTINCT and UNION run on the group-by's hash table, so an 8 KB
// HASHHEAP makes them spill, return the in-memory rows and leave the temp
// dir empty.
func TestDistinctSpills(t *testing.T) {
	dir := t.TempDir()
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2, TempDir: dir})
	defer db.Close()
	s := db.NewSession()
	seedSales(t, s, 20_000)
	queries := []string{
		`SELECT DISTINCT amount, region, sale_date FROM sales`,
		`SELECT id, region FROM sales WHERE id < 3000 UNION SELECT id, region FROM sales WHERE id >= 2000 AND id < 6000`,
	}
	var want []*Result
	for _, q := range queries {
		want = append(want, mustExec(t, s, q))
	}
	mustExec(t, s, `SET HASHHEAP 8KB`)
	for i, q := range queries {
		got := mustExec(t, s, q)
		if !reflect.DeepEqual(got.Rows, want[i].Rows) {
			t.Fatalf("%s: spilled result (%d rows) differs from in-memory (%d rows)", q, len(got.Rows), len(want[i].Rows))
		}
		plan := planText(mustExec(t, s, `EXPLAIN ANALYZE `+q))
		if !strings.Contains(plan, "aggregates]") || !strings.Contains(plan, "[spill: runs=") {
			t.Fatalf("%s: no spilling group-by in the plan:\n%s", q, plan)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*"+mem.SpillSuffix)); len(left) > 0 {
		t.Fatalf("spill files left behind: %v", left)
	}
}

// TestMemoryGovernorEnvKnobs covers the DASHDB_SORTHEAP/DASHDB_HASHHEAP
// environment overrides used by the verify.sh low-memory gate.
func TestMemoryGovernorEnvKnobs(t *testing.T) {
	os.Setenv("DASHDB_SORTHEAP", "1MB")
	os.Setenv("DASHDB_HASHHEAP", "1MB")
	defer os.Unsetenv("DASHDB_SORTHEAP")
	defer os.Unsetenv("DASHDB_HASHHEAP")

	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2, TempDir: t.TempDir()})
	defer db.Close()
	heaps, _ := db.MemBroker().Stats()
	for _, h := range heaps {
		if h.BudgetBytes != 1<<20 {
			t.Fatalf("%s budget %d, want %d", h.Heap, h.BudgetBytes, 1<<20)
		}
	}
}

// joinLine returns the plan's HASH JOIN line.
func joinLine(plan string) string {
	for _, line := range strings.Split(plan, "\n") {
		if strings.Contains(line, "HASH JOIN") {
			return line
		}
	}
	return ""
}

// TestJoinSpillsSQL drives the Grace join through the SQL surface: an INNER
// and a LEFT join whose build side exceeds an 8 KB HASHHEAP, inline and
// behind a view (a view body is governed like any other block), and a
// keyless theta join, whose build is charged like any other, spill, return
// the default-heap rows, show up in EXPLAIN ANALYZE and MON_MEMORY, and
// leave the temp dir empty.
func TestJoinSpillsSQL(t *testing.T) {
	dir := t.TempDir()
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2, TempDir: dir})
	defer db.Close()
	s := db.NewSession()
	seedSales(t, s, 6000)
	mustExec(t, s, `CREATE TABLE reps (rep_id BIGINT NOT NULL, name VARCHAR(16))`)
	var b strings.Builder
	b.WriteString("INSERT INTO reps VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d, 'rep-%d')", 2*i, i)
	}
	mustExec(t, s, b.String())
	mustExec(t, s, `CREATE VIEW sales_reps AS SELECT s.id, s.region, r.name FROM sales s JOIN reps r ON s.id = r.rep_id`)
	queries := []string{
		`SELECT s.id, s.region, r.name FROM sales s JOIN reps r ON s.id = r.rep_id ORDER BY s.id`,
		`SELECT s.id, r.name FROM sales s LEFT JOIN reps r ON s.id = r.rep_id ORDER BY s.id`,
		`SELECT region, COUNT(*), MIN(name) FROM sales_reps GROUP BY region ORDER BY region`,
		`SELECT a.rep_id, b.name FROM reps a JOIN reps b ON b.rep_id BETWEEN a.rep_id - 2 AND a.rep_id + 2 WHERE a.rep_id < 400 ORDER BY 1, 2`,
	}
	var want []*Result
	for _, q := range queries {
		want = append(want, mustExec(t, s, q))
		if line := joinLine(planText(mustExec(t, s, `EXPLAIN ANALYZE `+q))); line == "" || strings.Contains(line, "[spill:") {
			t.Fatalf("%s: default heap must join in memory: %q", q, line)
		}
	}
	mustExec(t, s, `SET HASHHEAP 8KB`)
	for i, q := range queries {
		got := mustExec(t, s, q)
		if len(got.Rows) == 0 || !reflect.DeepEqual(got.Rows, want[i].Rows) {
			t.Fatalf("%s: spilled result (%d rows) differs from in-memory (%d rows)", q, len(got.Rows), len(want[i].Rows))
		}
		plan := planText(mustExec(t, s, `EXPLAIN ANALYZE `+q))
		if !strings.Contains(joinLine(plan), "[spill: runs=") {
			t.Fatalf("%s: join did not spill:\n%s", q, plan)
		}
	}
	r := mustExec(t, s, `SELECT spill_runs FROM mon_memory WHERE heap = 'HASHHEAP'`)
	if len(r.Rows) != 1 || r.Rows[0][0].Int() == 0 {
		t.Fatalf("MON_MEMORY shows no HASHHEAP spill: %v", r.Rows)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*"+mem.SpillSuffix)); len(left) > 0 {
		t.Fatalf("spill files left behind: %v", left)
	}
}

// TestSumOverflowSQL: an integer SUM whose total does not fit BIGINT is an
// error (it wrapped: these five rows read 1), whichever way the statement
// runs; a total that fits is exact even when a prefix, a worker's partial or
// a spilled partial did not, and AVG reads the same exact total.
func TestSumOverflowSQL(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2, TempDir: t.TempDir()})
	defer db.Close()
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE o (k INT, i BIGINT)`)
	mustExec(t, s, `INSERT INTO o VALUES (1, 9223372036854775807), (1, 9223372036854775807), (1, 1), (1, 1), (1, 1),
		(2, 9223372036854775807), (2, 9223372036854775807), (2, -9223372036854775807), (2, -9223372036854775807), (2, 5)`)
	for _, heap := range []string{"", "SET HASHHEAP 4KB"} {
		if heap != "" {
			mustExec(t, s, heap)
		}
		for _, q := range []string{`SELECT SUM(i) FROM o`, `SELECT k, SUM(i) FROM o GROUP BY k`, `SELECT SUM(i) FROM o WHERE k = 1`} {
			if _, err := s.Exec(q); err == nil || !strings.Contains(err.Error(), "exec: integer overflow in SUM") {
				t.Fatalf("%s %s: err = %v, want exec: integer overflow in SUM", heap, q, err)
			}
		}
		r := mustExec(t, s, `SELECT SUM(i), AVG(i), COUNT(*) FROM o WHERE k = 2`)
		if got := r.Rows[0]; got[0].Kind() != types.KindInt || got[0].Int() != 5 || got[1].Float() != 1 || got[2].Int() != 5 {
			t.Fatalf("%s: SUM, AVG, COUNT over k = 2: %v, want 5, 1, 5", heap, got)
		}
		r = mustExec(t, s, `SELECT AVG(i) FROM o WHERE k = 1`)
		if got, want := r.Rows[0][0].Float(), 3689348814741910323.8; math.Abs(got-want) > 1e-9*want {
			t.Fatalf("%s: AVG over the overflowing rows = %v, want %v", heap, got, want)
		}
	}
}

// TestAggregateOfLiteralSQL: a literal or `?` argument compiles to a constant
// vector of one value; the float-family aggregates (moments, covariance,
// MEDIAN, PERCENTILE) read it for every row of a batch, grouped or not.
func TestAggregateOfLiteralSQL(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2, TempDir: t.TempDir()})
	defer db.Close()
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE c (k INT, x DOUBLE)`)
	mustExec(t, s, `INSERT INTO c VALUES (1, 1), (1, 2), (1, 3), (2, 4), (2, 6)`)
	r := mustExec(t, s, `SELECT STDDEV(1), VAR_SAMP(7), MEDIAN(5), COVAR_POP(x, 2), SUM(2), COUNT(1), MIN(3), STDDEV(NULL) FROM c`)
	want := []float64{0, 0, 5, 0, 10, 5, 3}
	for i, w := range want {
		if got, ok := r.Rows[0][i].AsFloat(); !ok || got != w {
			t.Fatalf("column %d = %v, want %v (row %v)", i, r.Rows[0][i], w, r.Rows[0])
		}
	}
	if !r.Rows[0][7].IsNull() {
		t.Fatalf("STDDEV(NULL) = %v, want NULL", r.Rows[0][7])
	}
	r, err := s.ExecParams(`SELECT k, MEDIAN(?), STDDEV_POP(?) FROM c GROUP BY k ORDER BY k`, types.NewFloat(2.5), types.NewInt(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][1].Float() != 2.5 || r.Rows[1][1].Float() != 2.5 || r.Rows[0][2].Float() != 0 || r.Rows[1][2].Float() != 0 {
		t.Fatalf("MEDIAN(?), STDDEV_POP(?) by k = %v, want 2.5 and 0 twice", r.Rows)
	}
}
