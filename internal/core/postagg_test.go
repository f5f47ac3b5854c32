package core

import (
	"fmt"
	"strings"
	"testing"

	"dashdb/internal/sql"
	"dashdb/internal/types"
)

// seedPostAgg loads the five-row table the post-aggregation tests share:
// groups a (2 rows), b (2 rows, one NULL name) and c (1 row, NULL name).
func seedPostAgg(t testing.TB, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE t (g VARCHAR(4), name VARCHAR(10), x INT)`)
	mustExec(t, s, `INSERT INTO t VALUES ('a','Sam',1),('a','Sue',2),('b','Bob',3),('b',NULL,4),('c',NULL,5)`)
}

// postAggTemplates are expressions over a group key {g} and three
// aggregates: {c} = COUNT(*), {m} = MAX(name), {s} = SUM(x). errs marks a
// template that must fail (identically) in every dialect.
var postAggTemplates = []struct {
	expr string
	errs bool
}{
	{expr: `{m} LIKE 'S%'`},
	{expr: `{m} NOT LIKE 'S%'`},
	{expr: `{c} IN (1, 3)`},
	{expr: `{s} NOT IN (3, NULL)`},
	{expr: `{s} IN (SELECT x + 2 FROM t)`},
	{expr: `{c} > 1 AND EXISTS (SELECT 1 FROM t WHERE x > 4)`},
	{expr: `NOT EXISTS (SELECT 1 FROM t WHERE x > 5)`},
	{expr: `{s} > (SELECT AVG(x) FROM t)`},
	{expr: `{m} IS NULL`},
	{expr: `{m} IS NOT NULL`},
	{expr: `({c} > 1) IS TRUE`},
	{expr: `({m} > 'C') IS NOT TRUE`},
	{expr: `{s} BETWEEN 4 AND 7`},
	{expr: `{s} NOT BETWEEN {c} AND 4`},
	{expr: `CASE WHEN {c} > 1 THEN {m} ELSE {g} END`},
	{expr: `CASE {c} WHEN 1 THEN 'one' WHEN 2 THEN 'two' END`},
	{expr: `CAST({s} AS DOUBLE)`},
	{expr: `UPPER({m})`},
	{expr: `SUBSTR({m}, 1, 2) = 'Su'`},
	{expr: `SUBSTR({m})`, errs: true},
	{expr: `ROUND({s}, 1, 2, 3)`, errs: true},
	{expr: `TWICE({s})`},
	{expr: `{m} || 'z'`},
	{expr: `-{s}`},
	{expr: `-{m}`, errs: true},
	{expr: `NOT ({c} > 1)`},
	{expr: `({c}, {s}) OVERLAPS (2, 4)`},
	{expr: `{s} * 2 + {c}`},
	{expr: `{g} = 'a' OR {s} > 5`},
}

// TestPostAggMatchesDerivedTable: an expression over group keys and
// aggregates — as a select item and as HAVING — answers exactly as the
// same expression compiled before aggregation over a derived table that
// already holds the aggregates, rows and errors alike, in every dialect.
// There is one expression compiler, so the two cannot diverge.
func TestPostAggMatchesDerivedTable(t *testing.T) {
	db := newDB(t)
	defer db.Close()
	if err := db.RegisterFunction("TWICE", 1, 1, func(args []types.Value) (types.Value, error) {
		return types.NewInt(2 * args[0].Int()), nil
	}); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	seedPostAgg(t, s)

	const derived = `(SELECT g, COUNT(*) AS c, MAX(name) AS m, SUM(x) AS s FROM t GROUP BY g) d`
	post := strings.NewReplacer("{g}", "g", "{c}", "COUNT(*)", "{m}", "MAX(name)", "{s}", "SUM(x)")
	pre := strings.NewReplacer("{g}", "g", "{c}", "c", "{m}", "m", "{s}", "s")
	render := func(r *Result, err error) string {
		if err != nil {
			return "ERR " + err.Error()
		}
		return fmt.Sprint(r.Rows)
	}

	for _, tpl := range postAggTemplates {
		answered := false
		for _, d := range []sql.Dialect{sql.DialectANSI, sql.DialectOracle, sql.DialectNetezza} {
			s.SetDialect(d)
			pairs := [][2]string{
				{"SELECT g, " + post.Replace(tpl.expr) + " FROM t GROUP BY g ORDER BY 1",
					"SELECT g, " + pre.Replace(tpl.expr) + " FROM " + derived + " ORDER BY 1"},
				{"SELECT g FROM t GROUP BY g HAVING " + post.Replace(tpl.expr) + " ORDER BY 1",
					"SELECT g FROM " + derived + " WHERE " + pre.Replace(tpl.expr) + " ORDER BY 1"},
			}
			for _, p := range pairs {
				got, want := render(s.Exec(p[0])), render(s.Exec(p[1]))
				if got != want {
					t.Errorf("%v: %s\n  after aggregation:  %s\n  before aggregation: %s", d, p[0], got, want)
				}
				failed := strings.HasPrefix(got, "ERR ")
				if tpl.errs && !failed {
					t.Errorf("%v: %s: want an error, got %s", d, p[0], got)
				}
				answered = answered || !failed
			}
		}
		if !tpl.errs && !answered {
			t.Errorf("template %q answered in no dialect; the comparison is vacuous", tpl.expr)
		}
	}
}

// TestPostAggAnswers pins the statements that failed, panicked or ignored
// the dialect while HAVING and post-aggregation select items had a second
// compiler of their own.
func TestPostAggAnswers(t *testing.T) {
	s := newDB(t).NewSession()
	seedPostAgg(t, s)
	cases := []struct {
		q    string
		want string // fmt.Sprint of the rows, or a fragment of the error
		err  bool
	}{
		{q: `SELECT g FROM t GROUP BY g HAVING MAX(name) LIKE 'S%' ORDER BY g`, want: `[(a)]`},
		{q: `SELECT g FROM t GROUP BY g HAVING COUNT(*) IN (1,3) ORDER BY g`, want: `[(c)]`},
		{q: `SELECT g FROM t GROUP BY g HAVING SUM(x) > (SELECT AVG(x) FROM t) ORDER BY g`, want: `[(b) (c)]`},
		{q: `SELECT g FROM t GROUP BY g HAVING (COUNT(*) > 1) IS TRUE ORDER BY g`, want: `[(a) (b)]`},
		{q: `SELECT g FROM t GROUP BY g HAVING EXISTS (SELECT 1 FROM t WHERE x > 4) ORDER BY g`, want: `[(a) (b) (c)]`},
		{q: `SELECT SUM(x) IS NULL FROM t`, want: `[(false)]`},
		{q: `SELECT COUNT(*) BETWEEN 1 AND 10 FROM t`, want: `[(true)]`},
		{q: `SELECT COUNT(*) IN (5,6) FROM t`, want: `[(true)]`},
		{q: `SELECT MAX(name) || 'z' FROM t WHERE g = 'c'`, want: `[(NULL)]`},
		{q: `SELECT -MAX(name) FROM t`, want: `cannot negate`, err: true},
		// User SQL must not panic the engine: the arity check is the one
		// compileScalarCall makes before aggregation.
		{q: `SELECT SUBSTR(MAX(name)) FROM t`, want: `SUBSTR expects 2..3 arguments, got 1`, err: true},
		{q: `SELECT ROUND(SUM(x), 1, 2, 3) FROM t`, want: `ROUND expects 1..2 arguments, got 4`, err: true},
		{q: `SELECT g FROM t GROUP BY g HAVING SUBSTR(MAX(name)) = 'S'`, want: `SUBSTR expects 2..3 arguments, got 1`, err: true},
		{q: `SELECT g FROM t GROUP BY g HAVING ROUND(SUM(x), 1, 2, 3) > 0`, want: `ROUND expects 1..2 arguments, got 4`, err: true},
		{q: `SELECT name, COUNT(*) FROM t GROUP BY g`, want: `column NAME must appear in GROUP BY or inside an aggregate`, err: true},
		{q: `SELECT g FROM t GROUP BY g HAVING x > 1`, want: `column X must appear in GROUP BY or inside an aggregate`, err: true},
		{q: `SELECT SUM(COUNT(*)) FROM t`, want: `aggregate COUNT is not allowed here`, err: true},
	}
	for _, c := range cases {
		r, err := s.Exec(c.q)
		switch {
		case c.err && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: want error containing %q, got %v / %v", c.q, c.want, r, err)
		case !c.err && err != nil:
			t.Errorf("%s: %v", c.q, err)
		case !c.err && fmt.Sprint(r.Rows) != c.want:
			t.Errorf("%s: rows %v, want %s", c.q, r.Rows, c.want)
		}
	}

	// The post-aggregation || follows the session dialect like any other.
	s.SetDialect(sql.DialectOracle)
	if r := mustExec(t, s, `SELECT MAX(name) || 'z' FROM t WHERE g = 'c'`); fmt.Sprint(r.Rows) != `[(z)]` {
		t.Errorf("Oracle MAX(name) || 'z' over NULL: %v, want z", r.Rows)
	}
}
