package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dashdb/internal/sql"
	"dashdb/internal/types"
)

func newDB(t testing.TB) *DB {
	t.Helper()
	return Open(Config{BufferPoolBytes: 16 << 20})
}

func mustExec(t testing.TB, s *Session, q string) *Result {
	t.Helper()
	r, err := s.Exec(q)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return r
}

// seedSales creates and loads a small sales table.
func seedSales(t testing.TB, s *Session, n int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE sales (id BIGINT NOT NULL, region VARCHAR(16), amount DOUBLE, sale_date DATE)`)
	regions := []string{"north", "south", "east", "west"}
	var b strings.Builder
	b.WriteString("INSERT INTO sales VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d, '%s', %d.5, DATE '2016-%02d-%02d')",
			i, regions[i%4], i%100, i%12+1, i%28+1)
	}
	mustExec(t, s, b.String())
}

func TestCreateInsertSelect(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 200)
	r := mustExec(t, s, `SELECT id, region FROM sales WHERE id < 5 ORDER BY id`)
	if len(r.Rows) != 5 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	if r.Rows[0][0].Int() != 0 || r.Rows[0][1].Str() != "north" {
		t.Fatalf("first row %v", r.Rows[0])
	}
	if r.Columns[0] != "ID" { // unquoted identifiers canonicalize to uppercase
		t.Fatalf("columns %v", r.Columns)
	}
}

func TestWhereVariants(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 400)
	cases := []struct {
		q    string
		want int
	}{
		{`SELECT * FROM sales WHERE region = 'north'`, 100},
		{`SELECT * FROM sales WHERE region <> 'north'`, 300},
		{`SELECT * FROM sales WHERE id BETWEEN 10 AND 19`, 10},
		{`SELECT * FROM sales WHERE id IN (1, 3, 5)`, 3},
		{`SELECT * FROM sales WHERE id NOT IN (1, 3, 5) AND id < 10`, 7},
		{`SELECT * FROM sales WHERE region LIKE 'n%'`, 100},
		{`SELECT * FROM sales WHERE region LIKE '%st'`, 200},
		{`SELECT * FROM sales WHERE id < 10 OR id >= 390`, 20},
		{`SELECT * FROM sales WHERE NOT (id < 390)`, 10},
		{`SELECT * FROM sales WHERE amount IS NULL`, 0},
		{`SELECT * FROM sales WHERE amount IS NOT NULL`, 400},
		{`SELECT * FROM sales WHERE id = 7 AND region = 'west'`, 1},
		{`SELECT * FROM sales WHERE id = 7 AND region = 'north'`, 0},
	}
	for _, c := range cases {
		r := mustExec(t, s, c.q)
		if len(r.Rows) != c.want {
			t.Errorf("%s: got %d want %d", c.q, len(r.Rows), c.want)
		}
	}
}

func TestAggregation(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 400)
	r := mustExec(t, s, `
		SELECT region, COUNT(*) cnt, SUM(amount) total, AVG(amount) avg_amt,
		       MIN(id) min_id, MAX(id) max_id
		FROM sales GROUP BY region ORDER BY region`)
	if len(r.Rows) != 4 {
		t.Fatalf("groups %d", len(r.Rows))
	}
	if r.Rows[0][0].Str() != "east" {
		t.Fatalf("group order %v", r.Rows[0])
	}
	for _, row := range r.Rows {
		if row[1].Int() != 100 {
			t.Fatalf("count %v", row)
		}
	}
	// HAVING
	r = mustExec(t, s, `SELECT region, COUNT(*) FROM sales WHERE id < 100 GROUP BY region HAVING COUNT(*) > 24 ORDER BY 1`)
	if len(r.Rows) != 4 {
		t.Fatalf("having rows %d", len(r.Rows))
	}
	// Global aggregate.
	r = mustExec(t, s, `SELECT COUNT(*), SUM(id) FROM sales`)
	if r.Rows[0][0].Int() != 400 || r.Rows[0][1].Int() != 400*399/2 {
		t.Fatalf("global agg %v", r.Rows[0])
	}
}

func TestJoin(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 100)
	mustExec(t, s, `CREATE TABLE regions (name VARCHAR(16) NOT NULL, manager VARCHAR(32))`)
	mustExec(t, s, `INSERT INTO regions VALUES ('north','alice'),('south','bob'),('east','carol')`)
	r := mustExec(t, s, `
		SELECT s.id, r.manager FROM sales s JOIN regions r ON s.region = r.name
		WHERE s.id < 8 ORDER BY s.id`)
	if len(r.Rows) != 6 { // ids 0..7 minus the two 'west' rows (3, 7)
		t.Fatalf("join rows %d: %v", len(r.Rows), r.Rows)
	}
	// LEFT JOIN preserves west.
	r = mustExec(t, s, `
		SELECT s.id, r.manager FROM sales s LEFT JOIN regions r ON s.region = r.name
		WHERE s.id < 8 ORDER BY s.id`)
	if len(r.Rows) != 8 {
		t.Fatalf("left join rows %d", len(r.Rows))
	}
	var westRow types.Row
	for _, row := range r.Rows {
		if row[0].Int() == 3 {
			westRow = row
		}
	}
	if !westRow[1].IsNull() {
		t.Fatalf("west manager should be NULL: %v", westRow)
	}
	// RIGHT JOIN.
	r = mustExec(t, s, `
		SELECT s.id, r.manager FROM sales s RIGHT JOIN regions r ON s.region = r.name
		WHERE s.id IS NULL OR s.id < 4 ORDER BY r.manager`)
	if len(r.Rows) != 3 {
		t.Fatalf("right join rows %d: %v", len(r.Rows), r.Rows)
	}
	// A WHERE conjunct over an outer join's null-supplying side filters the
	// joined rows. Pushed into that side's scan it let south and west
	// through null-extended (100 rows), and every region through with no
	// sale (3 rows).
	for q, want := range map[string]int64{
		`SELECT COUNT(*) FROM sales s LEFT JOIN regions r ON s.region = r.name WHERE r.manager <> 'bob'`: 50,
		`SELECT COUNT(*) FROM sales s RIGHT JOIN regions r ON s.region = r.name WHERE s.id >= 1000`:      0,
	} {
		if r = mustExec(t, s, q); r.Rows[0][0].Int() != want {
			t.Errorf("%s: %v, want %d", q, r.Rows[0][0], want)
		}
	}
}

// TestOuterJoinResidual: an outer join's ON conjuncts beyond its keys run
// inside the join, so a preserved row is padded only when none of its key
// matches passes them — keyed or keyless, LEFT or RIGHT.
func TestOuterJoinResidual(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `CREATE TABLE a (k BIGINT, x BIGINT)`)
	mustExec(t, s, `CREATE TABLE b (k BIGINT, y BIGINT)`)
	mustExec(t, s, `INSERT INTO a VALUES (1, 1), (2, 5), (3, 9)`)
	mustExec(t, s, `INSERT INTO b VALUES (1, 3), (2, 2), (2, 7)`)
	left := "1 1 1 3|2 5 2 7|3 9 NULL NULL"
	for _, c := range []struct{ q, want, plan string }{
		{`SELECT * FROM a LEFT JOIN b ON a.k = b.k AND a.x < b.y`, left, "HASH JOIN (LEFT OUTER) [residual]"},
		{`SELECT * FROM a RIGHT JOIN b ON a.k = b.k AND a.x < b.y`, "1 1 1 3|2 5 2 7|NULL NULL 2 2", "HASH JOIN (LEFT OUTER) [build=left] [residual]"},
		{`SELECT * FROM a LEFT JOIN b ON a.k + 0 = b.k AND a.x < b.y`, left, "HASH JOIN (LEFT OUTER) [no keys] [residual]"},
	} {
		var got []string
		for _, row := range mustExec(t, s, c.q).Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			got = append(got, strings.Join(cells, " "))
		}
		sort.Strings(got)
		if strings.Join(got, "|") != c.want {
			t.Errorf("%s: %q, want %q", c.q, strings.Join(got, "|"), c.want)
		}
		if plan := planText(mustExec(t, s, `EXPLAIN `+c.q)); !strings.Contains(plan, c.plan) {
			t.Errorf("%s: no %q in\n%s", c.q, c.plan, plan)
		}
	}
}

func TestUpdateDelete(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 100)
	r := mustExec(t, s, `UPDATE sales SET amount = amount + 1000 WHERE region = 'east'`)
	if r.RowsAffected != 25 {
		t.Fatalf("updated %d", r.RowsAffected)
	}
	r = mustExec(t, s, `SELECT COUNT(*) FROM sales WHERE amount > 999`)
	if r.Rows[0][0].Int() != 25 {
		t.Fatalf("post-update count %v", r.Rows[0])
	}
	r = mustExec(t, s, `DELETE FROM sales WHERE id >= 50`)
	if r.RowsAffected != 50 {
		t.Fatalf("deleted %d", r.RowsAffected)
	}
	r = mustExec(t, s, `SELECT COUNT(*) FROM sales`)
	if r.Rows[0][0].Int() != 50 {
		t.Fatalf("post-delete count %v", r.Rows[0])
	}
}

func TestSubqueries(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 100)
	r := mustExec(t, s, `SELECT COUNT(*) FROM sales WHERE amount > (SELECT AVG(amount) FROM sales)`)
	if r.Rows[0][0].Int() == 0 || r.Rows[0][0].Int() == 100 {
		t.Fatalf("scalar subquery comparison degenerate: %v", r.Rows[0])
	}
	r = mustExec(t, s, `SELECT COUNT(*) FROM sales WHERE region IN (SELECT region FROM sales WHERE id = 0)`)
	if r.Rows[0][0].Int() != 25 {
		t.Fatalf("IN subquery %v", r.Rows[0])
	}
	r = mustExec(t, s, `SELECT 1 FROM sales WHERE EXISTS (SELECT * FROM sales WHERE id = 99) AND id = 0`)
	if len(r.Rows) != 1 {
		t.Fatalf("EXISTS %v", r.Rows)
	}
	// Derived table.
	r = mustExec(t, s, `SELECT cnt FROM (SELECT COUNT(*) AS cnt FROM sales) t`)
	if r.Rows[0][0].Int() != 100 {
		t.Fatalf("derived table %v", r.Rows[0])
	}
}

func TestCTEAndUnion(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 100)
	r := mustExec(t, s, `
		WITH hot AS (SELECT id FROM sales WHERE amount > 90),
		     cold AS (SELECT id FROM sales WHERE amount < 5)
		SELECT COUNT(*) FROM hot UNION ALL SELECT COUNT(*) FROM cold`)
	if len(r.Rows) != 2 {
		t.Fatalf("union rows %d", len(r.Rows))
	}
	// UNION dedups.
	r = mustExec(t, s, `SELECT region FROM sales UNION SELECT region FROM sales`)
	if len(r.Rows) != 4 {
		t.Fatalf("union distinct %d", len(r.Rows))
	}
}

func TestViewsRecordDialect(t *testing.T) {
	db := newDB(t)
	s := db.NewSession()
	seedSales(t, s, 40)
	// Create the view under Oracle dialect using NVL.
	mustExec(t, s, `SET SQL_DIALECT = 'ORACLE'`)
	mustExec(t, s, `CREATE VIEW v_sales AS SELECT id, NVL(region, 'unknown') r FROM sales`)
	// Switch to ANSI: NVL is not available, but the view still compiles
	// under its recorded creation dialect (§II.C.2).
	mustExec(t, s, `SET SQL_DIALECT = 'ANSI'`)
	if _, err := s.Exec(`SELECT NVL(region,'x') FROM sales`); err == nil {
		t.Fatal("NVL must not resolve under ANSI")
	}
	r := mustExec(t, s, `SELECT COUNT(*) FROM v_sales`)
	if r.Rows[0][0].Int() != 40 {
		t.Fatalf("view rows %v", r.Rows[0])
	}
}

// TestViewBodyInheritsSession: a view body is compiled as one more block of
// the statement that references it, differing only in dialect — it resolves
// the engine's registered UDFs and plans at the session's parallelism.
// (Its governor is covered by TestJoinSpillsSQL.)
func TestViewBodyInheritsSession(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 2})
	defer db.Close()
	if err := db.RegisterFunction("TWICE", 1, 1, func(args []types.Value) (types.Value, error) {
		return types.NewInt(2 * args[0].Int()), nil
	}); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	seedSales(t, s, 400)
	t.Run("udf", func(t *testing.T) {
		mustExec(t, s, `CREATE VIEW v_twice AS SELECT id, TWICE(id) AS d FROM sales`)
		if r := mustExec(t, s, `SELECT d FROM v_twice WHERE id = 21`); len(r.Rows) != 1 || r.Rows[0][0].Int() != 42 {
			t.Fatalf("UDF inside a view: %v", r.Rows)
		}
	})
	t.Run("parallelism", func(t *testing.T) {
		mustExec(t, s, `CREATE VIEW v_regions AS SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM sales GROUP BY region`)
		if r := mustExec(t, s, `SELECT region, n FROM v_regions ORDER BY region`); len(r.Rows) != 4 || r.Rows[0][1].Int() != 100 {
			t.Fatalf("group-by inside a view: %v", r.Rows)
		}
		if plan := planText(mustExec(t, s, `EXPLAIN SELECT region, n FROM v_regions`)); !strings.Contains(plan, "GROUP BY [1 keys, 2 aggregates] [vectorized] [compressed] [dop=2]") {
			t.Fatalf("group-by inside a view lost the session's parallelism:\n%s", plan)
		}
	})
}

func TestOracleDialect(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `SET SQL_DIALECT = 'ORACLE'`)
	// DUAL + ROWNUM + NVL + DECODE.
	r := mustExec(t, s, `SELECT NVL(NULL, 'fallback'), DECODE(2, 1, 'one', 2, 'two', 'other') FROM DUAL`)
	if r.Rows[0][0].Str() != "fallback" || r.Rows[0][1].Str() != "two" {
		t.Fatalf("oracle functions %v", r.Rows[0])
	}
	seedSales(t, s, 100)
	r = mustExec(t, s, `SELECT id FROM sales WHERE ROWNUM <= 7`)
	if len(r.Rows) != 7 {
		t.Fatalf("rownum rows %d", len(r.Rows))
	}
	// (+) outer join.
	mustExec(t, s, `CREATE TABLE mgr (region VARCHAR2(16), boss VARCHAR2(16))`)
	mustExec(t, s, `INSERT INTO mgr VALUES ('north', 'zelda')`)
	r = mustExec(t, s, `SELECT s.id, m.boss FROM sales s, mgr m WHERE s.region = m.region (+) AND s.id < 4 ORDER BY s.id`)
	if len(r.Rows) != 4 {
		t.Fatalf("(+) join rows %d", len(r.Rows))
	}
	if r.Rows[0][1].Str() != "zelda" || !r.Rows[1][1].IsNull() {
		t.Fatalf("(+) join values %v %v", r.Rows[0], r.Rows[1])
	}
	// Empty string is NULL under VARCHAR2 semantics.
	r = mustExec(t, s, `SELECT NVL('', 'was-null') FROM DUAL`)
	if r.Rows[0][0].Str() != "was-null" {
		t.Fatalf("'' must be NULL under Oracle: %v", r.Rows[0])
	}
	// Sequences with NEXTVAL/CURRVAL.
	mustExec(t, s, `CREATE SEQUENCE seq1 START WITH 10 INCREMENT BY 5`)
	r = mustExec(t, s, `SELECT seq1.NEXTVAL FROM DUAL`)
	if r.Rows[0][0].Int() != 10 {
		t.Fatalf("nextval %v", r.Rows[0])
	}
	r = mustExec(t, s, `SELECT seq1.CURRVAL, seq1.NEXTVAL FROM DUAL`)
	if r.Rows[0][0].Int() != 10 || r.Rows[0][1].Int() != 15 {
		t.Fatalf("currval/nextval %v", r.Rows[0])
	}
	// TRUNCATE + anonymous block.
	mustExec(t, s, `BEGIN INSERT INTO mgr VALUES ('south', 'yan'); INSERT INTO mgr VALUES ('east', 'xi'); END`)
	r = mustExec(t, s, `SELECT COUNT(*) FROM mgr`)
	if r.Rows[0][0].Int() != 3 {
		t.Fatalf("block inserts %v", r.Rows[0])
	}
}

func TestNetezzaDialect(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `SET SQL_DIALECT = 'NETEZZA'`)
	seedSales(t, s, 100)
	// LIMIT/OFFSET + :: cast + ISNULL/NOTNULL + ORDER BY ordinal.
	r := mustExec(t, s, `SELECT id, amount::INT4 FROM sales ORDER BY 1 LIMIT 5 OFFSET 10`)
	if len(r.Rows) != 5 || r.Rows[0][0].Int() != 10 {
		t.Fatalf("limit/offset %v", r.Rows)
	}
	if r.Rows[0][1].Kind() != types.KindInt {
		t.Fatalf(":: cast kind %v", r.Rows[0][1].Kind())
	}
	r = mustExec(t, s, `SELECT COUNT(*) FROM sales WHERE amount NOTNULL`)
	if r.Rows[0][0].Int() != 100 {
		t.Fatalf("NOTNULL %v", r.Rows[0])
	}
	// BOOLEAN type + ISTRUE.
	mustExec(t, s, `CREATE TABLE flags (id INT4, ok BOOLEAN)`)
	mustExec(t, s, `INSERT INTO flags VALUES (1, TRUE), (2, FALSE), (3, NULL)`)
	r = mustExec(t, s, `SELECT COUNT(*) FROM flags WHERE ok ISTRUE`)
	if r.Rows[0][0].Int() != 1 {
		t.Fatalf("ISTRUE %v", r.Rows[0])
	}
	// GROUP BY output column name.
	r = mustExec(t, s, `SELECT region AS reg, COUNT(*) FROM sales GROUP BY reg ORDER BY 1`)
	if len(r.Rows) != 4 {
		t.Fatalf("group by alias %d", len(r.Rows))
	}
	// JOIN USING.
	mustExec(t, s, `CREATE TABLE r2 (region VARCHAR(16), x INT4)`)
	mustExec(t, s, `INSERT INTO r2 VALUES ('north', 1)`)
	r = mustExec(t, s, `SELECT COUNT(*) FROM sales JOIN r2 USING (region)`)
	if r.Rows[0][0].Int() != 25 {
		t.Fatalf("USING join %v", r.Rows[0])
	}
	// Netezza functions.
	r = mustExec(t, s, `SELECT STRPOS('hello','ll'), POW(2, 10), TO_HEX(255), INT4AND(12, 10)`)
	if r.Rows[0][0].Int() != 3 || r.Rows[0][1].Float() != 1024 || r.Rows[0][2].Str() != "ff" || r.Rows[0][3].Int() != 8 {
		t.Fatalf("netezza funcs %v", r.Rows[0])
	}
	// OVERLAPS.
	r = mustExec(t, s, `SELECT COUNT(*) FROM sales WHERE (DATE '2016-01-01', DATE '2016-03-01') OVERLAPS (DATE '2016-02-01', DATE '2016-04-01') AND id = 0`)
	if r.Rows[0][0].Int() != 1 {
		t.Fatalf("overlaps %v", r.Rows[0])
	}
	// CREATE TEMP TABLE.
	mustExec(t, s, `CREATE TEMP TABLE scratch (a INT4)`)
	mustExec(t, s, `INSERT INTO scratch VALUES (1)`)
	r = mustExec(t, s, `SELECT COUNT(*) FROM scratch`)
	if r.Rows[0][0].Int() != 1 {
		t.Fatalf("temp table %v", r.Rows[0])
	}
}

func TestDB2Dialect(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `SET SQL_DIALECT = 'DB2'`)
	// VALUES statement.
	r := mustExec(t, s, `VALUES (1, 'a'), (2, 'b')`)
	if len(r.Rows) != 2 || r.Rows[1][1].Str() != "b" {
		t.Fatalf("VALUES %v", r.Rows)
	}
	// NEXT VALUE FOR.
	mustExec(t, s, `CREATE SEQUENCE s1`)
	r = mustExec(t, s, `VALUES NEXT VALUE FOR s1`)
	if r.Rows[0][0].Int() != 1 {
		t.Fatalf("NEXT VALUE %v", r.Rows[0])
	}
	r = mustExec(t, s, `VALUES PREVIOUS VALUE FOR s1`)
	if r.Rows[0][0].Int() != 1 {
		t.Fatalf("PREVIOUS VALUE %v", r.Rows[0])
	}
	// DECLARE GLOBAL TEMPORARY TABLE.
	mustExec(t, s, `DECLARE GLOBAL TEMPORARY TABLE gtt (a INT) ON COMMIT PRESERVE ROWS`)
	mustExec(t, s, `INSERT INTO gtt VALUES (42)`)
	r = mustExec(t, s, `SELECT a FROM gtt`)
	if r.Rows[0][0].Int() != 42 {
		t.Fatalf("GTT %v", r.Rows[0])
	}
	// CREATE ALIAS.
	mustExec(t, s, `CREATE ALIAS g2 FOR gtt`)
	r = mustExec(t, s, `SELECT COUNT(*) FROM g2`)
	if r.Rows[0][0].Int() != 1 {
		t.Fatalf("alias %v", r.Rows[0])
	}
	// DECFLOAT functions + FETCH FIRST.
	mustExec(t, s, `CREATE TABLE d (v DECFLOAT)`)
	mustExec(t, s, `INSERT INTO d VALUES (1.5), (2.5), (3.5)`)
	r = mustExec(t, s, `SELECT NORMALIZE_DECFLOAT(v) FROM d ORDER BY v DESC FETCH FIRST 2 ROWS ONLY`)
	if len(r.Rows) != 2 || r.Rows[0][0].Float() != 3.5 {
		t.Fatalf("decfloat/fetch %v", r.Rows)
	}
	r = mustExec(t, s, `VALUES COMPARE_DECFLOAT(1.0, 2.0)`)
	if r.Rows[0][0].Int() != -1 {
		t.Fatalf("compare_decfloat %v", r.Rows[0])
	}
	// DB2 aggregation names.
	r = mustExec(t, s, `SELECT VARIANCE(v), STDDEV(v) FROM d`)
	if r.Rows[0][0].Float() <= 0 {
		t.Fatalf("variance %v", r.Rows[0])
	}
}

func TestDialectGating(t *testing.T) {
	s := newDB(t).NewSession()
	// Oracle-only constructs must fail under ANSI.
	for _, q := range []string{
		`SELECT 1 FROM DUAL`,
		`SELECT ROWNUM FROM t`,
		`SELECT a FROM t WHERE a (+) = 1`,
	} {
		if _, err := s.Exec(q); err == nil {
			t.Errorf("%s must fail under ANSI", q)
		}
	}
	mustExec(t, s, `SET SQL_DIALECT = 'DB2'`)
	if _, err := s.Exec(`SELECT 1 FROM x LIMIT 3`); err == nil {
		t.Error("LIMIT must fail under DB2 (use FETCH FIRST)")
	}
}

func TestStatisticalAggregatesSQL(t *testing.T) {
	s := newDB(t).NewSession()
	mustExec(t, s, `CREATE TABLE nums (v DOUBLE)`)
	mustExec(t, s, `INSERT INTO nums VALUES (2),(4),(4),(4),(5),(5),(7),(9)`)
	r := mustExec(t, s, `SELECT STDDEV_POP(v), VAR_POP(v), MEDIAN(v) FROM nums`)
	if r.Rows[0][0].Float() != 2 || r.Rows[0][1].Float() != 4 || r.Rows[0][2].Float() != 4.5 {
		t.Fatalf("stats %v", r.Rows[0])
	}
	r = mustExec(t, s, `SELECT PERCENTILE_CONT(0.5) WITHIN GROUP (ORDER BY v) FROM nums`)
	if r.Rows[0][0].Float() != 4.5 {
		t.Fatalf("percentile_cont %v", r.Rows[0])
	}
}

func TestExplain(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 50)
	r := mustExec(t, s, `EXPLAIN SELECT region, COUNT(*) FROM sales WHERE id < 10 GROUP BY region`)
	plan := ""
	for _, row := range r.Rows {
		plan += row[0].Str() + "\n"
	}
	if !strings.Contains(plan, "COLUMNAR SCAN SALES") {
		t.Fatalf("plan missing scan: %s", plan)
	}
	if !strings.Contains(plan, "pushdown") {
		t.Fatalf("plan missing pushdown: %s", plan)
	}
	if !strings.Contains(plan, "GROUP BY") {
		t.Fatalf("plan missing group: %s", plan)
	}
}

func TestCreateTableAsSelect(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 60)
	mustExec(t, s, `CREATE TABLE north_sales AS (SELECT id, amount FROM sales WHERE region = 'north')`)
	r := mustExec(t, s, `SELECT COUNT(*) FROM north_sales`)
	if r.Rows[0][0].Int() != 15 {
		t.Fatalf("CTAS rows %v", r.Rows[0])
	}
}

func TestDropAndIfExists(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 10)
	mustExec(t, s, `DROP TABLE sales`)
	if _, err := s.Exec(`SELECT * FROM sales`); err == nil {
		t.Fatal("dropped table still queryable")
	}
	if _, err := s.Exec(`DROP TABLE sales`); err == nil {
		t.Fatal("double drop must error")
	}
	mustExec(t, s, `DROP TABLE IF EXISTS sales`)
}

func TestCaseExpression(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 240) // amounts span 0.5..99.5 so all three bands occur
	r := mustExec(t, s, `
		SELECT CASE WHEN amount > 50 THEN 'high' WHEN amount > 20 THEN 'mid' ELSE 'low' END band,
		       COUNT(*)
		FROM sales GROUP BY 1 ORDER BY 1`)
	if len(r.Rows) != 3 {
		t.Fatalf("case bands %v", r.Rows)
	}
	r = mustExec(t, s, `SELECT CASE region WHEN 'north' THEN 1 ELSE 0 END FROM sales WHERE id = 0`)
	if r.Rows[0][0].Int() != 1 {
		t.Fatalf("simple case %v", r.Rows[0])
	}
}

func TestScalarFunctionsSQL(t *testing.T) {
	s := newDB(t).NewSession()
	r := mustExec(t, s, `SELECT UPPER('abc'), LOWER('DEF'), LENGTH('hello'), SUBSTR('hello', 2, 3),
		COALESCE(NULL, NULL, 'x'), NULLIF(1, 1), ABS(-5), MOD(10, 3), ROUND(2.567, 2)`)
	row := r.Rows[0]
	if row[0].Str() != "ABC" || row[1].Str() != "def" || row[2].Int() != 5 || row[3].Str() != "ell" {
		t.Fatalf("string funcs %v", row)
	}
	if row[4].Str() != "x" || !row[5].IsNull() || row[6].Int() != 5 || row[7].Int() != 1 {
		t.Fatalf("misc funcs %v", row)
	}
	if row[8].Float() != 2.57 {
		t.Fatalf("round %v", row[8])
	}
}

func TestDateFunctions(t *testing.T) {
	s := newDB(t).NewSession()
	r := mustExec(t, s, `SELECT YEAR(DATE '2016-06-15'), MONTH(DATE '2016-06-15'), DAY(DATE '2016-06-15')`)
	if r.Rows[0][0].Int() != 2016 || r.Rows[0][1].Int() != 6 || r.Rows[0][2].Int() != 15 {
		t.Fatalf("date parts %v", r.Rows[0])
	}
	// Date arithmetic.
	r = mustExec(t, s, `SELECT DATE '2016-06-15' + 10, DATE '2016-06-15' - DATE '2016-06-01'`)
	if r.Rows[0][0].String() != "2016-06-25" || r.Rows[0][1].Int() != 14 {
		t.Fatalf("date arith %v", r.Rows[0])
	}
}

func TestDistinct(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 40)
	r := mustExec(t, s, `SELECT DISTINCT region FROM sales ORDER BY region`)
	if len(r.Rows) != 4 {
		t.Fatalf("distinct %d", len(r.Rows))
	}
	r = mustExec(t, s, `SELECT COUNT(DISTINCT region) FROM sales`)
	if r.Rows[0][0].Int() != 4 {
		t.Fatalf("count distinct %v", r.Rows[0])
	}
}

func TestWLMAdmission(t *testing.T) {
	db := Open(Config{MaxConcurrentQueries: 2})
	s := db.NewSession()
	seedSales(t, s, 10)
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func() {
			sess := db.NewSession()
			sess.Exec(`SELECT COUNT(*) FROM sales`)
			done <- true
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	st := db.WLM().Stats()
	if st.Peak > 2 {
		t.Fatalf("WLM peak %d exceeds limit", st.Peak)
	}
	if st.Admitted < 8 {
		t.Fatalf("admitted %d", st.Admitted)
	}
}

func TestErrorPaths(t *testing.T) {
	s := newDB(t).NewSession()
	for _, q := range []string{
		`SELECT * FROM missing_table`,
		`SELECT bad_col FROM missing`,
		`CREATE TABLE t (a NOTATYPE)`,
		`INSERT INTO nowhere VALUES (1)`,
		`SELECT COUNT(*) FRM x`,
		`UPDATE nowhere SET a = 1`,
		`SELECT region, COUNT(*) FROM sales`,
	} {
		if _, err := s.Exec(q); err == nil {
			t.Errorf("%s must fail", q)
		}
	}
	seedSales(t, s, 4)
	// Non-grouped column reference.
	if _, err := s.Exec(`SELECT region, id, COUNT(*) FROM sales GROUP BY region`); err == nil {
		t.Error("non-grouped column must fail")
	}
}

func TestInsertFromSelect(t *testing.T) {
	s := newDB(t).NewSession()
	seedSales(t, s, 20)
	mustExec(t, s, `CREATE TABLE archive (id BIGINT, region VARCHAR(16))`)
	r := mustExec(t, s, `INSERT INTO archive SELECT id, region FROM sales WHERE id < 5`)
	if r.RowsAffected != 5 {
		t.Fatalf("insert-select %d", r.RowsAffected)
	}
}

func TestSessionDialectIsolation(t *testing.T) {
	db := newDB(t)
	s1, s2 := db.NewSession(), db.NewSession()
	mustExec(t, s1, `SET SQL_DIALECT = 'ORACLE'`)
	if s2.dialect != sql.DialectANSI {
		t.Fatal("dialect leaked across sessions")
	}
	if s1.dialect != sql.DialectOracle {
		t.Fatal("dialect not set")
	}
}
