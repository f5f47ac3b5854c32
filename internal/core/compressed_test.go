package core

import (
	"fmt"
	"strings"
	"testing"

	"dashdb/internal/sql"
)

// TestMonCompressionView checks the MON_COMPRESSION monitoring view: one
// row per (table, column) with encoder kind, dictionary cardinality and
// code width, plus the table-level page/dict/synopsis byte breakdown.
func TestMonCompressionView(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 2_000)
	r := mustExec(t, s, `SELECT * FROM MON_COMPRESSION`)
	if len(r.Columns) != 14 {
		t.Fatalf("columns %v", r.Columns)
	}
	var region map[string]string
	for _, row := range r.Rows {
		if strings.EqualFold(row[0].Str(), "sales") && strings.EqualFold(row[1].Str(), "region") {
			region = map[string]string{
				"encoding":    row[2].Str(),
				"cardinality": fmt.Sprint(row[3].Int()),
				"width":       fmt.Sprint(row[4].Int()),
			}
			if row[5].Int() <= 0 {
				t.Fatalf("encoder_bytes must be positive, got %v", row[5])
			}
			if row[6].Int() <= 0 || row[7].Int() <= 0 {
				t.Fatalf("table raw/page bytes must be positive: %v", row)
			}
		}
	}
	if region == nil {
		t.Fatalf("no SALES.REGION row in MON_COMPRESSION:\n%v", r.Rows)
	}
	if region["encoding"] != "FREQ-DICT" {
		t.Fatalf("region encoding = %q, want FREQ-DICT", region["encoding"])
	}
	if region["cardinality"] != "4" {
		t.Fatalf("region cardinality = %s, want 4 (north/south/east/west)", region["cardinality"])
	}
	if region["width"] == "0" {
		t.Fatalf("region code width must be non-zero")
	}
}

// TestMonCompressionColumnPages: MON_COMPRESSION's per-column page bytes
// sum to the table's, a fat-tail column (values below 1 000 but for
// every 97th, past ten million) reports the codes its pages patch, the
// tail's among them, while columns with no outlier report none, and only
// the column whose values never descend (the ids) reports line pages, one
// a stride, the tail's too.
func TestMonCompressionColumnPages(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `CREATE TABLE ft (id BIGINT, uni BIGINT, fat BIGINT)`)
	const rows = 3_000 // two sealed strides and an open one
	var b strings.Builder
	for i := 0; i < rows; i++ {
		if i%500 == 0 {
			if i > 0 {
				mustExec(t, s, b.String())
			}
			b.Reset()
			b.WriteString("INSERT INTO ft VALUES ")
		} else {
			b.WriteString(", ")
		}
		fat := (i * 7919) % 1_000
		if i%97 == 0 {
			fat = 10_000_000 + i
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", i, (i*7919)%1_000, fat)
	}
	mustExec(t, s, b.String())
	r := mustExec(t, s, `SELECT column_name, table_page_bytes, column_page_bytes, column_patched_codes, column_sorted_pages FROM MON_COMPRESSION WHERE table_name = 'FT'`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows %v", r.Rows)
	}
	sum, patched, sorted := int64(0), map[string]int64{}, map[string]int64{}
	for _, row := range r.Rows {
		sum += row[2].Int()
		patched[strings.ToLower(row[0].Str())] = row[3].Int()
		sorted[strings.ToLower(row[0].Str())] = row[4].Int()
	}
	if table := r.Rows[0][1].Int(); sum != table {
		t.Fatalf("column page bytes sum to %d, table_page_bytes is %d", sum, table)
	}
	// Every 97th row is an outlier: 22 of them in the two sealed strides
	// and 9 in the tail's 952 rows.
	if patched["fat"] != 31 || patched["uni"] != 0 || patched["id"] != 0 {
		t.Fatalf("patched codes %v, want fat 31 and none elsewhere", patched)
	}
	if sorted["id"] != 3 || sorted["uni"] != 0 || sorted["fat"] != 0 {
		t.Fatalf("sorted pages %v, want id 3 and none elsewhere", sorted)
	}
}

// TestExplainCompressedTags checks the static EXPLAIN annotations: scans
// over dictionary columns, residual filters answerable in code space, and
// group-bys on a dictionary key are tagged [compressed]; with
// DisableCompressedExec the tags disappear.
func TestExplainCompressedTags(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 4})
	s := db.NewSession()
	seedSales(t, s, 2_000)

	r := mustExec(t, s, `EXPLAIN SELECT region FROM sales WHERE region = 'north' OR region = 'south'`)
	plan := planText(r)
	for _, want := range []string{
		"FILTER [vectorized] [compressed]",
		"[vectorized] [compressed]", // the scan
	} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}

	r = mustExec(t, s, `EXPLAIN SELECT region, COUNT(*) FROM sales GROUP BY region`)
	if plan = planText(r); !strings.Contains(plan, "GROUP BY [1 keys, 1 aggregates] [vectorized] [compressed] [dop=4]") {
		t.Fatalf("group-by plan missing [compressed]:\n%s", plan)
	}

	// Escape hatch: compressed execution disabled end to end.
	off := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 4, DisableCompressedExec: true}).NewSession()
	seedSales(t, off, 2_000)
	for _, q := range []string{
		`EXPLAIN SELECT region FROM sales WHERE region = 'north' OR region = 'south'`,
		`EXPLAIN SELECT region, COUNT(*) FROM sales GROUP BY region`,
	} {
		if plan := planText(mustExec(t, off, q)); strings.Contains(plan, "[compressed]") {
			t.Fatalf("DisableCompressedExec plan still tagged:\n%s", plan)
		}
	}
}

// TestExplainAnalyzeCompressedCounters checks the runtime counters: rows
// filtered in code space, encoded rows reaching the projection, and code
// key positions in joins and group-bys.
func TestExplainAnalyzeCompressedCounters(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 1})
	s := db.NewSession()
	seedSales(t, s, 2_000)

	r := mustExec(t, s, `EXPLAIN ANALYZE SELECT region FROM sales WHERE region = 'north' OR region = 'east'`)
	plan := planText(r)
	if !strings.Contains(plan, "[code-rows=") {
		t.Fatalf("analyze plan missing filter code-rows counter:\n%s", plan)
	}
	if !strings.Contains(plan, "[encoded-rows=") {
		t.Fatalf("analyze plan missing projection encoded-rows counter:\n%s", plan)
	}

	mustExec(t, s, `CREATE TABLE regions (name VARCHAR(16), zone VARCHAR(8))`)
	mustExec(t, s, `INSERT INTO regions VALUES ('north','cold'),('south','warm'),('east','mild'),('west','mild')`)
	r = mustExec(t, s, `EXPLAIN ANALYZE SELECT r.zone, COUNT(*) FROM sales s JOIN regions r ON s.region = r.name GROUP BY r.zone`)
	if plan = planText(r); !strings.Contains(plan, "HASH JOIN (INNER) [compressed]") || !strings.Contains(plan, "[code-keys=1] [ids=direct]") {
		t.Fatalf("join analyze plan missing code-key annotations:\n%s", plan)
	}
	// An INT key has no dictionary: its key ids come from hashing words.
	r = mustExec(t, s, `EXPLAIN ANALYZE SELECT COUNT(*) FROM sales a JOIN sales b ON a.id = b.id`)
	if plan = planText(r); !strings.Contains(plan, "[ids=words]") || strings.Contains(plan, "[code-keys=") {
		t.Fatalf("INT-key join analyze plan missing [ids=words]:\n%s", plan)
	}
}

// TestCompressedParityQueries runs the same statements against a default
// engine and one with DisableCompressedExec and requires bit-identical
// results: operate-on-compressed-data execution is a pure optimization.
func TestCompressedParityQueries(t *testing.T) {
	mk := func(disable bool) *Session {
		db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2, DisableCompressedExec: disable})
		s := db.NewSession()
		seedSales(t, s, 3_000)
		mustExec(t, s, `CREATE TABLE regions (name VARCHAR(16), zone VARCHAR(8))`)
		mustExec(t, s, `INSERT INTO regions VALUES ('north','cold'),('south','warm'),('east','mild'),('west','mild')`)
		return s
	}
	on, off := mk(false), mk(true)
	queries := []string{
		`SELECT COUNT(*) FROM sales WHERE region = 'north'`,
		`SELECT COUNT(*) FROM sales WHERE region <> 'north'`,
		`SELECT COUNT(*) FROM sales WHERE region = 'north' OR region = 'west'`,
		`SELECT COUNT(*) FROM sales WHERE region >= 'south'`,
		`SELECT COUNT(*) FROM sales WHERE region = 'nowhere'`,
		`SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region ORDER BY region`,
		`SELECT region, COUNT(*) FROM sales WHERE amount > 40 GROUP BY region ORDER BY region`,
		`SELECT r.zone, COUNT(*) FROM sales s JOIN regions r ON s.region = r.name GROUP BY r.zone ORDER BY r.zone`,
		`SELECT s.region, r.zone FROM sales s LEFT JOIN regions r ON s.region = r.name WHERE s.id < 8 ORDER BY s.id`,
		`SELECT DISTINCT region FROM sales ORDER BY region`,
		`SELECT region FROM sales WHERE id < 20 ORDER BY id`,
	}
	for _, q := range queries {
		a, b := mustExec(t, on, q), mustExec(t, off, q)
		if got, want := fmt.Sprint(a.Rows), fmt.Sprint(b.Rows); got != want {
			t.Fatalf("parity violation for %q:\ncompressed: %s\ndecoded:    %s", q, got, want)
		}
	}
}

// TestHeldLeavesCompressedParity: the held leaves — a CTE read twice and
// from inside a subquery, DUAL, a FROM-less SELECT — answer alike with
// compressed execution on and off, and as the statement with each CTE
// written out in place.
func TestHeldLeavesCompressedParity(t *testing.T) {
	mk := func(disable bool) *Session {
		s := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2, DisableCompressedExec: disable}).NewSession()
		seedSales(t, s, 3_000)
		s.SetDialect(sql.DialectOracle) // for DUAL
		return s
	}
	on, off := mk(false), mk(true)
	const n = `(SELECT region, COUNT(*) AS c FROM sales WHERE region <> 'west' GROUP BY region)`
	const few = `(SELECT id, region FROM sales WHERE amount > 95)`
	cases := []struct{ q, inlined string }{
		{`WITH n AS ` + n + ` SELECT a.region, a.c + b.c FROM n a JOIN n b ON a.region = b.region ORDER BY a.region`,
			`SELECT a.region, a.c + b.c FROM ` + n + ` a JOIN ` + n + ` b ON a.region = b.region ORDER BY a.region`},
		{`WITH f AS ` + few + ` SELECT region, COUNT(*) FROM sales WHERE region IN (SELECT region FROM f WHERE id < 500) GROUP BY region ORDER BY region`,
			`SELECT region, COUNT(*) FROM sales WHERE region IN (SELECT region FROM ` + few + ` f WHERE id < 500) GROUP BY region ORDER BY region`},
		{`WITH f AS ` + few + ` SELECT (SELECT COUNT(*) FROM f WHERE region = 'north'), COUNT(*) FROM f`,
			`SELECT (SELECT COUNT(*) FROM ` + few + ` f WHERE region = 'north'), COUNT(*) FROM ` + few + ` f`},
		{`SELECT 1 + 2, UPPER(dummy) FROM dual`, `SELECT 3, 'X'`},
		{`WITH f AS ` + few + ` SELECT (SELECT MAX(id) FROM f), 7 * 6`,
			`SELECT (SELECT MAX(id) FROM ` + few + ` f), 42`},
	}
	for _, tc := range cases {
		got := fmt.Sprint(mustExec(t, on, tc.q).Rows)
		if off := fmt.Sprint(mustExec(t, off, tc.q).Rows); got != off {
			t.Errorf("parity violation for %q:\ncompressed: %s\ndecoded:    %s", tc.q, got, off)
		}
		if want := fmt.Sprint(mustExec(t, on, tc.inlined).Rows); got != want || got == "[]" {
			t.Errorf("%q: %s, inlined %s", tc.q, got, want)
		}
	}
}
