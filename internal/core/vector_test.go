package core

import (
	"fmt"
	"strings"
	"testing"

	"dashdb/internal/types"
)

func planOf(t *testing.T, s *Session, q string) string {
	t.Helper()
	r := mustExec(t, s, q)
	plan := ""
	for _, row := range r.Rows {
		plan += row[0].Str() + "\n"
	}
	return plan
}

// TestExplainVectorized: plans whose expressions compile to vector kernels
// are tagged [vectorized] end to end — including non-pushable predicates,
// which become vectorized FILTER nodes above the scan.
func TestExplainVectorized(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 100)
	plan := planOf(t, s, `EXPLAIN SELECT id, amount + id FROM sales WHERE amount + id > 50`)
	for _, want := range []string{
		"FILTER [vectorized]",
		"COLUMNAR SCAN SALES [vectorized]",
		"PROJECT",
	} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
	if strings.Contains(plan, "[row]") {
		t.Fatalf("fully kernel-compatible plan should have no [row] nodes:\n%s", plan)
	}
	// Pushable predicates vanish into the scan and stay vectorized.
	plan = planOf(t, s, `EXPLAIN SELECT region FROM sales WHERE id < 10`)
	if !strings.Contains(plan, "[vectorized]") || !strings.Contains(plan, "pushdown") {
		t.Fatalf("pushdown plan not vectorized:\n%s", plan)
	}
	// Vector-ingesting aggregation is tagged on the GROUP BY node.
	plan = planOf(t, s, `EXPLAIN SELECT region, SUM(amount) FROM sales GROUP BY region`)
	if !strings.Contains(plan, "GROUP BY [1 keys, 1 aggregates] [vectorized]") {
		t.Fatalf("group-by plan not vector-ingesting:\n%s", plan)
	}
}

// TestExplainRowFallbacks: an operator holding a stateful expression (a UDX)
// calls it one position at a time and EXPLAIN says so with [row]; a pure
// scalar function is [vectorized] like any kernel, and nothing around either
// leaves the batch engine. MEDIAN ingests batches on one worker, and SORT
// is [row] only over a stateful key.
func TestExplainRowFallbacks(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2})
	if err := db.RegisterFunction("TRIPLE", 1, 1, func(args []types.Value) (types.Value, error) {
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewInt(args[0].Int() * 3), nil
	}); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	seedSales(t, s, 100)

	// Pure scalar function in the WHERE clause: nothing is tagged [row].
	plan := planOf(t, s, `EXPLAIN SELECT id FROM sales WHERE UPPER(region) = 'NORTH'`)
	for _, want := range []string{"PROJECT ID [vectorized]", "FILTER [vectorized]", "COLUMNAR SCAN SALES [vectorized]"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("scalar-func filter: plan missing %q:\n%s", want, plan)
		}
	}

	// UDX filter: [row]. A UDX in the select list tags the PROJECT.
	plan = planOf(t, s, `EXPLAIN SELECT TRIPLE(id) FROM sales WHERE TRIPLE(id) > 30`)
	if !strings.Contains(plan, "FILTER [row]") || !strings.Contains(plan, "PROJECT TRIPLE [row]") {
		t.Fatalf("UDX filter and projection must be [row]:\n%s", plan)
	}

	// MEDIAN is holistic: one ingest worker whatever the session's degree,
	// over the same batch ingest; a stateful argument tags the GROUP BY.
	plan = planOf(t, s, `EXPLAIN SELECT MEDIAN(amount) FROM sales`)
	if !strings.Contains(plan, "GROUP BY [0 keys, 1 aggregates] [vectorized]\n") || strings.Contains(plan, "[dop=") {
		t.Fatalf("MEDIAN group-by must ingest batches on one worker:\n%s", plan)
	}
	plan = planOf(t, s, `EXPLAIN SELECT region, SUM(TRIPLE(id)) FROM sales GROUP BY region`)
	if !strings.Contains(plan, "GROUP BY [1 keys, 1 aggregates] [row] [compressed]\n") {
		t.Fatalf("a UDX aggregate argument must tag the group-by [row], one worker:\n%s", plan)
	}

	// SORT keeps typed columns: [vectorized] over a bare or hidden column
	// key, [row] when a key is stateful, which it evaluates once per batch.
	plan = planOf(t, s, `EXPLAIN SELECT id FROM sales ORDER BY amount`)
	if !strings.Contains(plan, "SORT [1 keys] [vectorized]") {
		t.Fatalf("sort on a hidden column key must be [vectorized]:\n%s", plan)
	}
	plan = planOf(t, s, `EXPLAIN SELECT id FROM sales ORDER BY TRIPLE(id) DESC`)
	if !strings.Contains(plan, "SORT [1 keys] [row]") {
		t.Fatalf("sort on a UDX key must be [row]:\n%s", plan)
	}
	r := mustExec(t, s, `SELECT id FROM sales ORDER BY TRIPLE(id) DESC`)
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i-1][0].Int() < r.Rows[i][0].Int() {
			t.Fatalf("ORDER BY TRIPLE(id) DESC out of order at %d: %v", i, r.Rows[i-1:i+1])
		}
	}
}

// TestPredicateCliffStaysClosed: a predicate with no vector kernel in the
// WHERE of a GROUP BY on a dictionary column costs its own evaluation and
// nothing else — the group-by above it still ingests batches and groups on
// codes, at the session's degree when the predicate is pure (IS NULL, LIKE,
// IN, a scalar function, CASE, CAST) and on one worker when it is stateful
// (a UDX is never called from two goroutines) — and returns what a plain
// loop over the loaded rows does.
func TestPredicateCliffStaysClosed(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2})
	if err := db.RegisterFunction("TRIPLE", 1, 1, func(args []types.Value) (types.Value, error) {
		return types.NewInt(args[0].Int() * 3), nil
	}); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE txn (id BIGINT NOT NULL, status VARCHAR(16), amount DOUBLE)`)
	type txn struct {
		id     int64
		status string // "" = NULL
		amount float64
		noAmt  bool
	}
	statuses := []string{"settled", "pending", "failed", "settling", ""}
	rows := make([]txn, 3000)
	var ins strings.Builder
	ins.WriteString("INSERT INTO txn VALUES ")
	for i := range rows {
		// Quarters sum exactly, and CAST truncating or rounding agree on them.
		r := txn{id: int64(i), status: statuses[(i*7)%len(statuses)], amount: float64(i%300) + 0.25, noAmt: i%11 == 0}
		rows[i] = r
		st, amt := "NULL", "NULL"
		if r.status != "" {
			st = "'" + r.status + "'"
		}
		if !r.noAmt {
			amt = fmt.Sprintf("%.2f", r.amount)
		}
		if i > 0 {
			ins.WriteString(",")
		}
		fmt.Fprintf(&ins, "(%d, %s, %s)", r.id, st, amt)
	}
	mustExec(t, s, ins.String())

	big := func(r txn) bool { return !r.noAmt && r.amount > 100 }
	for _, tc := range []struct {
		pred     string
		stateful bool
		keep     func(r txn) bool
	}{
		{`status IS NOT NULL`, false, func(r txn) bool { return r.status != "" }},
		{`status LIKE 'sett%'`, false, func(r txn) bool { return strings.HasPrefix(r.status, "sett") }},
		{`status IN ('settled', 'pending')`, false, func(r txn) bool { return r.status == "settled" || r.status == "pending" }},
		{`UPPER(status) = 'SETTLED'`, false, func(r txn) bool { return r.status == "settled" }},
		{`CASE WHEN amount > 100 THEN 1 ELSE 0 END = 1`, false, big},
		{`CAST(amount AS INTEGER) > 100`, false, func(r txn) bool { return !r.noAmt && int64(r.amount) > 100 }},
		{`COALESCE(amount, 0) > 100`, false, big},
		{`amount + 0 BETWEEN 100.25 AND 1000`, false, big},
		{`TRIPLE(id) > 3000`, true, func(r txn) bool { return r.id*3 > 3000 }},
		{`id > (SELECT MIN(id) + 1000 FROM txn)`, true, func(r txn) bool { return r.id > 1000 }},
	} {
		q := `SELECT status, COUNT(*), SUM(amount) FROM txn WHERE ` + tc.pred + ` GROUP BY status`
		type agg struct {
			n   int64
			sum float64
			any bool // a non-NULL amount was summed
		}
		want := map[string]*agg{}
		for _, r := range rows {
			if !tc.keep(r) {
				continue
			}
			a := want[r.status]
			if a == nil {
				a = &agg{}
				want[r.status] = a
			}
			a.n++
			if !r.noAmt {
				a.sum, a.any = a.sum+r.amount, true
			}
		}
		res := mustExec(t, s, q)
		if len(res.Rows) != len(want) || len(want) == 0 {
			t.Fatalf("%s: %d groups, want %d", tc.pred, len(res.Rows), len(want))
		}
		for _, row := range res.Rows {
			key := ""
			if !row[0].IsNull() {
				key = row[0].Str()
			}
			a := want[key]
			if a == nil || row[1].Int() != a.n || row[2].IsNull() == a.any || a.any && row[2].Float() != a.sum {
				t.Fatalf("%s: group %q = %v, want %+v", tc.pred, key, row, a)
			}
		}

		lines := planLines(t, s, q)
		plan := strings.Join(lines, "\n")
		tag, dop := "FILTER [vectorized]", " [dop=2]"
		if tc.stateful {
			tag, dop = "FILTER [row]", ""
		}
		filter := -1
		for i, l := range lines {
			if strings.Contains(l, tag) {
				filter = i
			}
		}
		if filter < 0 || !strings.Contains(plan, "GROUP BY [1 keys, 2 aggregates] [vectorized] [compressed]"+dop+"\n") {
			t.Fatalf("%s: want a %s under a batch-ingesting, code-keyed group-by%s:\n%s", tc.pred, tag, dop, plan)
		}
		if !strings.Contains(lines[filter+1], "PARALLEL COLUMNAR SCAN TXN [dop=2] [vectorized] [compressed]") {
			t.Fatalf("%s: the scan under the filter keeps its degree and its codes:\n%s", tc.pred, plan)
		}
	}
}

// TestVectorizedResultsMatchRow runs the same queries whose plans differ in
// vectorization and cross-checks the results against hand-computed values,
// so fallbacks and kernels agree on semantics.
func TestVectorizedResultsMatchRow(t *testing.T) {
	db := newDB(t)
	if err := db.RegisterFunction("TRIPLE", 1, 1, func(args []types.Value) (types.Value, error) {
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewInt(args[0].Int() * 3), nil
	}); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	seedSales(t, s, 200)

	// Vectorized filter+project (amount = (id%100).5, so amount+id > 50).
	r := mustExec(t, s, `SELECT COUNT(*) FROM sales WHERE amount + id > 50`)
	want := int64(0)
	for i := 0; i < 200; i++ {
		if float64(i%100)+0.5+float64(i) > 50 {
			want++
		}
	}
	if r.Rows[0][0].Int() != want {
		t.Fatalf("vectorized filter count %v want %d", r.Rows[0][0], want)
	}

	// Row-fallback UDX filter over the same data.
	r = mustExec(t, s, `SELECT COUNT(*) FROM sales WHERE TRIPLE(id) > 30`)
	if got := r.Rows[0][0].Int(); got != 189 { // ids 11..199
		t.Fatalf("UDX filter count %d want 189", got)
	}

	// MEDIAN (row ingest) next to vector-ingestable aggregates.
	r = mustExec(t, s, `SELECT MEDIAN(id), SUM(id), COUNT(*) FROM sales`)
	if r.Rows[0][0].Float() != 99.5 || r.Rows[0][1].Int() != 199*200/2 || r.Rows[0][2].Int() != 200 {
		t.Fatalf("median/sum/count %v", r.Rows[0])
	}

	// Three-valued logic through the AND/OR kernels with NULLs.
	mustExec(t, s, `CREATE TABLE t3 (a BIGINT, b BIGINT)`)
	mustExec(t, s, `INSERT INTO t3 VALUES (1, 1), (1, NULL), (NULL, 1), (NULL, NULL), (0, 1)`)
	r = mustExec(t, s, `SELECT COUNT(*) FROM t3 WHERE a = 1 AND b = 1`)
	if r.Rows[0][0].Int() != 1 {
		t.Fatalf("AND with NULLs: %v", r.Rows[0])
	}
	r = mustExec(t, s, `SELECT COUNT(*) FROM t3 WHERE a = 1 OR b = 1`)
	if r.Rows[0][0].Int() != 4 {
		t.Fatalf("OR with NULLs: %v", r.Rows[0])
	}
	// Short-circuit semantics: division by zero on the right is masked by
	// a false left operand, in both engines.
	r = mustExec(t, s, `SELECT COUNT(*) FROM t3 WHERE a <> 0 AND 10 / a > 1`)
	if r.Rows[0][0].Int() != 2 {
		t.Fatalf("guarded division: %v", r.Rows[0])
	}
	if _, err := s.Exec(`SELECT COUNT(*) FROM t3 WHERE 10 / a > 1`); err == nil {
		t.Fatal("unguarded division by zero must error")
	}
}
