package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dashdb/internal/types"
)

// planLines runs EXPLAIN and returns the plan as strings.
func planLines(t *testing.T, s *Session, q string) []string {
	t.Helper()
	r := mustExec(t, s, "EXPLAIN "+q)
	var lines []string
	for _, row := range r.Rows {
		lines = append(lines, row[0].Str())
	}
	return lines
}

// TestSetParallelism covers the per-session override: SET PARALLELISM n,
// the WLM clamp, AUTO reset, and rejection of bad values.
func TestSetParallelism(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2, MaxConcurrentQueries: 4})
	s := db.NewSession()

	if got := s.Parallelism(); got != 2 {
		t.Fatalf("default dop %d, want engine config 2", got)
	}
	r := mustExec(t, s, "SET PARALLELISM 3")
	if r.Message != "PARALLELISM 3" || s.Parallelism() != 3 {
		t.Fatalf("override failed: %q, dop %d", r.Message, s.Parallelism())
	}
	// Requests above the WLM admission limit clamp to it.
	mustExec(t, s, "SET PARALLELISM 100")
	if got := s.Parallelism(); got != 4 {
		t.Fatalf("WLM clamp: dop %d, want 4", got)
	}
	// DOP is an accepted alias; AUTO restores the engine default.
	mustExec(t, s, "SET DOP AUTO")
	if got := s.Parallelism(); got != 2 {
		t.Fatalf("AUTO reset: dop %d, want 2", got)
	}
	if _, err := s.Exec("SET PARALLELISM banana"); err == nil {
		t.Fatal("non-integer degree must be rejected")
	}
	if _, err := s.Exec("SET PARALLELISM -2"); err == nil {
		t.Fatal("negative degree must be rejected")
	}
	// Sessions are independent.
	s2 := db.NewSession()
	mustExec(t, s, "SET PARALLELISM 4")
	if s2.Parallelism() != 2 {
		t.Fatalf("override leaked across sessions: %d", s2.Parallelism())
	}
}

// TestParallelPlanAndResults checks that a mergeable scan+aggregate query
// runs its group-by and scan at the session's degree (visible in EXPLAIN)
// and returns exactly the serial result set, rows and order — with a
// residual vector filter, or a pure scalar function with no kernel, in
// between too; non-mergeable aggregates stay serial, and a stateful filter
// (a UDX) keeps the group-by on one worker without taking it, or the scan,
// off the batch engine.
func TestParallelPlanAndResults(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 1})
	if err := db.RegisterFunction("MAGNITUDE", 1, 1, func(args []types.Value) (types.Value, error) {
		return types.NewInt(max(args[0].Int(), -args[0].Int())), nil
	}); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE m (g BIGINT, v BIGINT, f DOUBLE)`)
	var b strings.Builder
	b.WriteString("INSERT INTO m VALUES ")
	for i := 0; i < 5000; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d, %d, %d.5)", i%7, i*31%1000, i%50)
	}
	mustExec(t, s, b.String())

	q := `SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(f) FROM m WHERE v >= 100 GROUP BY g`

	serial := mustExec(t, s, q)
	for _, line := range planLines(t, s, q) {
		if strings.Contains(line, "PARALLEL") {
			t.Fatalf("dop=1 plan must be serial: %q", line)
		}
	}

	mustExec(t, s, "SET PARALLELISM 4")
	plan := strings.Join(planLines(t, s, q), "\n")
	if !strings.Contains(plan, "GROUP BY [1 keys, 5 aggregates] [vectorized] [dop=4]") ||
		!strings.Contains(plan, "PARALLEL COLUMNAR SCAN M [dop=4] [vectorized]") ||
		!strings.Contains(plan, "pushdown: V >= 100") {
		t.Fatalf("plan does not run group-by and scan at dop 4:\n%s", plan)
	}

	// Key-ordered emit: identical rows in identical order at every degree.
	par := mustExec(t, s, q)
	if !reflect.DeepEqual(serial.Rows, par.Rows) {
		t.Fatalf("parallel result diverged\n got %v\nwant %v", par.Rows, serial.Rows)
	}

	// MEDIAN has no exact merge: the plan must stay serial even at dop=4.
	mq := `SELECT g, MEDIAN(v) FROM m GROUP BY g`
	mplan := strings.Join(planLines(t, s, mq), "\n")
	if strings.Contains(mplan, "PARALLEL") {
		t.Fatalf("MEDIAN must stay on the serial path:\n%s", mplan)
	}
	// A residual (non-pushable) vector filter between scan and group-by is
	// pulled by every worker.
	rq := `SELECT g, COUNT(*) FROM m WHERE v + f > 200 GROUP BY g`
	rplan := strings.Join(planLines(t, s, rq), "\n")
	if !strings.Contains(rplan, "GROUP BY [1 keys, 1 aggregates] [vectorized] [dop=4]") ||
		!strings.Contains(rplan, "FILTER [vectorized]") ||
		!strings.Contains(rplan, "PARALLEL COLUMNAR SCAN M [dop=4]") {
		t.Fatalf("residual vector filter must not serialize the plan:\n%s", rplan)
	}
	// A pure scalar function has no kernel of its own, yet runs over the
	// batch on whichever worker pulled it: the group-by keeps its degree.
	fq := `SELECT g, COUNT(*) FROM m WHERE ABS(v) > 200 GROUP BY g`
	fplan := strings.Join(planLines(t, s, fq), "\n")
	if !strings.Contains(fplan, "GROUP BY [1 keys, 1 aggregates] [vectorized] [dop=4]\n") ||
		!strings.Contains(fplan, "FILTER [vectorized]\n") ||
		!strings.Contains(fplan, "PARALLEL COLUMNAR SCAN M [dop=4]") {
		t.Fatalf("a pure scalar-function filter must not serialize the plan:\n%s", fplan)
	}
	// A stateful filter evaluates inside the same pipeline too: the group-by
	// still ingests batches, on one worker (no dop tag — a UDX is never
	// called from two goroutines), over the parallel scan.
	uq := `SELECT g, COUNT(*) FROM m WHERE MAGNITUDE(v) > 200 GROUP BY g`
	uplan := strings.Join(planLines(t, s, uq), "\n")
	if !strings.Contains(uplan, "GROUP BY [1 keys, 1 aggregates] [vectorized]\n") ||
		!strings.Contains(uplan, "FILTER [row]\n") ||
		!strings.Contains(uplan, "PARALLEL COLUMNAR SCAN M [dop=4]") {
		t.Fatalf("a stateful filter must keep the group-by on one batch-ingest worker:\n%s", uplan)
	}
	if pure, udx := mustExec(t, s, fq), mustExec(t, s, uq); !reflect.DeepEqual(pure.Rows, udx.Rows) {
		t.Fatalf("ABS on four workers and the UDX on one disagree\n got %v\nwant %v", pure.Rows, udx.Rows)
	}
	for _, q := range []string{rq, fq, uq} {
		mustExec(t, s, "SET PARALLELISM 4")
		at4 := mustExec(t, s, q)
		mustExec(t, s, "SET PARALLELISM AUTO")
		auto := mustExec(t, s, q)
		if !reflect.DeepEqual(at4.Rows, auto.Rows) {
			t.Fatalf("%s diverged across dop settings\n got %v\nwant %v", q, at4.Rows, auto.Rows)
		}
	}
}

// TestParallelChildWallWithinParent checks that operator wall times stay
// elapsed times when four workers pull the scan and filter at once: every
// node's time is non-zero and no larger than its parent's, which is what
// lets a reader subtract children to get an operator's self time.
func TestParallelChildWallWithinParent(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 4})
	s := db.NewSession()
	seedSales(t, s, 50_000)
	r := mustExec(t, s, `EXPLAIN ANALYZE SELECT region, COUNT(*), SUM(amount) FROM sales WHERE amount + id > 100 GROUP BY region`)
	plan := planText(r)
	for _, want := range []string{"[vectorized] [compressed] [dop=4]", "FILTER [vectorized]", "PARALLEL COLUMNAR SCAN SALES [dop=4]"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
	ops := r.Stats.Ops
	for i := 1; i < len(ops); i++ {
		if ops[i].Depth != ops[i-1].Depth+1 {
			t.Fatalf("expected a single chain of operators:\n%s", plan)
		}
		if ops[i].Wall <= 0 || ops[i].Wall > ops[i-1].Wall {
			t.Fatalf("%q took %v under a parent that took %v:\n%s", ops[i].Name, ops[i].Wall, ops[i-1].Wall, plan)
		}
	}
}
