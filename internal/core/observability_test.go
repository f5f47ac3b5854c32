package core

import (
	"regexp"
	"strings"
	"testing"
)

// normalizeTimes replaces wall-clock durations in plan output so format
// assertions are deterministic.
var timeRE = regexp.MustCompile(`time=[0-9][^)\]]*`)

func normalizeTimes(s string) string { return timeRE.ReplaceAllString(s, "time=T") }

func planText(r *Result) string {
	var b strings.Builder
	for _, row := range r.Rows {
		b.WriteString(row[0].Str())
		b.WriteString("\n")
	}
	return b.String()
}

func TestExplainAnalyzeFormat(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 4})
	s := db.NewSession()
	seedSales(t, s, 50_000)
	r := mustExec(t, s, `EXPLAIN ANALYZE SELECT region, COUNT(*), SUM(amount) FROM sales WHERE amount >= 10 GROUP BY region`)
	plan := normalizeTimes(planText(r))
	for _, want := range []string{
		"GROUP BY [1 keys, 2 aggregates] [vectorized] [compressed] [dop=4] (actual rows=4 batches=1 time=T) [code-keys=1]",
		"PARALLEL COLUMNAR SCAN SALES [dop=4] [vectorized] [compressed] [pushdown: AMOUNT >= 10] (est rows=",
		") (actual rows=45000 batches=",
		"[strides: ",
		" visited, ",
		" skipped, skip=",
		"(total: rows=4, time=T)",
	} {
		if !strings.Contains(plan, want) {
			t.Fatalf("analyze plan missing %q:\n%s", want, plan)
		}
	}
	if r.Stats == nil || len(r.Stats.Ops) == 0 {
		t.Fatal("EXPLAIN ANALYZE must attach a query record with operator stats")
	}
}

func TestExplainAnalyzeSkipRatio(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2})
	s := db.NewSession()
	seedSales(t, s, 50_000) // several sealed strides; id is stride-clustered
	r := mustExec(t, s, `EXPLAIN ANALYZE SELECT COUNT(*) FROM sales WHERE id < 100`)
	plan := planText(r)
	m := regexp.MustCompile(`\[strides: (\d+) visited, (\d+) skipped, skip=([0-9.]+)%\]`).FindStringSubmatch(plan)
	if m == nil {
		t.Fatalf("no stride annotation in plan:\n%s", plan)
	}
	if m[2] == "0" {
		t.Fatalf("selective scan should skip sealed strides via synopsis:\n%s", plan)
	}
}

func TestExplainPlainUnchangedByAnalyzeSupport(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 100)
	plan := planText(mustExec(t, s, `EXPLAIN SELECT id FROM sales WHERE id < 10`))
	if strings.Contains(plan, "actual rows") || strings.Contains(plan, "strides:") {
		t.Fatalf("plain EXPLAIN must not carry runtime annotations:\n%s", plan)
	}
}

func TestMonQueryHistory(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 100)
	mustExec(t, s, `SELECT region, COUNT(*) FROM sales GROUP BY region`)
	r := mustExec(t, s, `SELECT sql_text, rows_returned, status, slow FROM mon_query_history`)
	found := false
	for _, row := range r.Rows {
		if strings.Contains(row[0].Str(), "GROUP BY region") {
			found = true
			if row[1].Int() != 4 {
				t.Fatalf("rows_returned %d", row[1].Int())
			}
			if row[2].Str() != "ok" {
				t.Fatalf("status %q", row[2].Str())
			}
			if row[3].Bool() {
				t.Fatal("fast query marked slow")
			}
		}
	}
	if !found {
		t.Fatal("executed query not present in MON_QUERY_HISTORY")
	}
}

func TestMonQueryHistoryRecordsErrors(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 10)
	if _, err := s.Exec(`SELECT nope FROM sales`); err == nil {
		t.Fatal("expected unknown-column error")
	}
	r := mustExec(t, s, `SELECT status, error FROM mon_query_history WHERE status = 'error'`)
	if len(r.Rows) != 1 || r.Rows[0][1].Str() == "" {
		t.Fatalf("failed query must be recorded with its error, got %d rows", len(r.Rows))
	}
}

func TestSlowQueryLog(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 500)
	mustExec(t, s, `SET SLOW_QUERY_THRESHOLD_MS 0`) // everything is slow
	mustExec(t, s, `SELECT COUNT(*) FROM sales WHERE amount > 50`)
	r := mustExec(t, s, `SELECT sql_text, slow, plan FROM mon_query_history WHERE slow`)
	if len(r.Rows) == 0 {
		t.Fatal("no slow queries recorded with a zero threshold")
	}
	last := r.Rows[len(r.Rows)-1]
	if !strings.Contains(last[0].Str(), "COUNT(*)") {
		t.Fatalf("unexpected slow query %q", last[0].Str())
	}
	if !strings.Contains(last[2].Str(), "actual rows=") {
		t.Fatalf("slow query must carry its EXPLAIN ANALYZE text, got %q", last[2].Str())
	}
}

func TestSetSlowThresholdValidation(t *testing.T) {
	s := newDB(t).NewSession()
	if _, err := s.Exec(`SET SLOW_QUERY_THRESHOLD_MS -5`); err == nil {
		t.Fatal("negative threshold must be rejected")
	}
	mustExec(t, s, `SET SLOW_QUERY_THRESHOLD_MS 250`)
}

func TestMonViewSchemas(t *testing.T) {
	s := newDB(t).NewSession()
	cases := []struct {
		view string
		cols string
	}{
		{"mon_query_history", "query_id sql_text start_time elapsed_ms rows_returned dop shards status error slow plan"},
		{"mon_operator_stats", "query_id op_seq depth operator rows_out batches elapsed_ms strides_visited strides_skipped skip_pct"},
		{"mon_bufferpool", "hits misses evictions hit_ratio bytes_in pages_cached used_bytes capacity_bytes"},
		{"mon_wlm", "admitted queued rejected active waiting peak_concurrency concurrency_limit queue_wait_ms"},
	}
	for _, c := range cases {
		r := mustExec(t, s, "SELECT * FROM "+c.view)
		if got := strings.Join(r.Columns, " "); got != c.cols {
			t.Fatalf("%s schema:\ngot  %s\nwant %s", c.view, got, c.cols)
		}
	}
}

func TestMonOperatorStats(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2})
	s := db.NewSession()
	seedSales(t, s, 20_000)
	mustExec(t, s, `EXPLAIN ANALYZE SELECT region, COUNT(*) FROM sales WHERE amount >= 10 GROUP BY region`)
	r := mustExec(t, s, `SELECT operator, rows_out, strides_visited FROM mon_operator_stats WHERE strides_visited > 0`)
	if len(r.Rows) == 0 {
		t.Fatal("no scan operator stats recorded")
	}
	op := r.Rows[0]
	if !strings.Contains(op[0].Str(), "COLUMNAR SCAN") {
		t.Fatalf("stride stats on non-scan operator %q", op[0].Str())
	}
	if op[1].Int() == 0 {
		t.Fatal("scan rows_out not recorded")
	}
}

func TestMonWLMAndBufferPool(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 20_000) // enough rows to seal strides so scans hit the pool
	mustExec(t, s, `SELECT COUNT(*) FROM sales`)
	mustExec(t, s, `SELECT SUM(amount) FROM sales WHERE id >= 0`)
	r := mustExec(t, s, `SELECT admitted FROM mon_wlm`)
	if r.Rows[0][0].Int() < 2 {
		t.Fatalf("admitted %d, want >= 2", r.Rows[0][0].Int())
	}
	r = mustExec(t, s, `SELECT hits, misses FROM mon_bufferpool`)
	if r.Rows[0][0].Int()+r.Rows[0][1].Int() == 0 {
		t.Fatal("buffer pool saw no traffic")
	}
}
