package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"dashdb/internal/sql"
	"dashdb/internal/types"
)

// hostRows is the table the expression-host matrix runs over: hostN rows,
// a = 0..hostN-1, the other columns by class a % 6 — so a predicate over n,
// s and d has one truth value per class, written out in hostShapes.
//
//	class  n     s      d
//	0      0     'ab'   2016-01-01
//	1      1     'abc'  2016-02-01
//	2      2     NULL   2016-03-01
//	3      NULL  'xb'   2016-04-01
//	4      4     'ab'   NULL
//	5      5     ''     2016-06-01
const hostN = 2400

func seedHost(t testing.TB, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE t (a BIGINT NOT NULL, n BIGINT, s VARCHAR(8), d DATE, r BOOLEAN)`)
	mustExec(t, s, `CREATE TABLE one (k BIGINT)`)
	mustExec(t, s, `INSERT INTO one VALUES (1)`)
	classes := []string{
		`0, 'ab', DATE '2016-01-01'`, `1, 'abc', DATE '2016-02-01'`, `2, NULL, DATE '2016-03-01'`,
		`NULL, 'xb', DATE '2016-04-01'`, `4, 'ab', NULL`, `5, '', DATE '2016-06-01'`,
	}
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < hostN; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d, %s, NULL)", i, classes[i%6])
	}
	mustExec(t, s, b.String())
}

// hostShapes is one predicate per expression shape the compiler lowers to an
// ApplyExpr, CaseExpr or InExpr, with its truth value (T, F or N for NULL) on
// each of the six row classes. A shape whose syntax or answer depends on the
// dialect has one entry per dialect.
var hostShapes = []struct {
	name    string
	dialect sql.Dialect // zero: ANSI
	pred    string
	truth   string
}{
	{name: "CAST", pred: `CAST(n AS VARCHAR(4)) = '1'`, truth: "FTFNFF"},
	{name: "IS NULL", pred: `s IS NULL`, truth: "FFTFFF"},
	{name: "IS NOT NULL", pred: `d IS NOT NULL`, truth: "TTTTFT"},
	{name: "IS TRUE", pred: `(n > 1) IS TRUE`, truth: "FFTFTT"},
	{name: "IS NOT FALSE", dialect: sql.DialectNetezza, pred: `(n > 1) IS NOT FALSE`, truth: "FFTTTT"},
	{name: "BETWEEN", pred: `n + 0 BETWEEN 1 AND 4`, truth: "FTTNTF"},
	{name: "LIKE", pred: `s LIKE 'ab%'`, truth: "TTNFTF"},
	{name: "|| ANSI", pred: `s || 'c' = 'abc'`, truth: "TFNFTF"},
	{name: "|| Netezza", dialect: sql.DialectNetezza, pred: `s || 'c' = 'abc'`, truth: "TFNFTF"},
	{name: "|| Oracle", dialect: sql.DialectOracle, pred: `s || 'c' = 'abc'`, truth: "TFFFTF"},
	{name: "OVERLAPS", pred: `(d, DATE '2016-02-15') OVERLAPS (DATE '2016-02-20', DATE '2016-03-15')`, truth: "FFTTNT"},
	{name: "scalar call", pred: `ABS(n - 3) = 1`, truth: "FFTNTF"},
	{name: "UDX call", pred: `TRIPLE(n) = 6`, truth: "FFTNFF"},
	{name: "searched CASE", pred: `CASE WHEN n = 2 THEN 7 ELSE 10 / (n - 2) END > 4`, truth: "FFTNTF"},
	{name: "simple CASE", pred: `CASE n WHEN 2 THEN 7 WHEN 0 THEN 9 ELSE 10 / (n * (n - 2)) END > 4`, truth: "TFTNFF"},
	{name: "IN list", pred: `n IN (1, 4, 10 / (n - 1))`, truth: "FTFNTF"},
	{name: "NOT IN list with NULL", pred: `n NOT IN (1, NULL)`, truth: "NFNNNN"},
	{name: "IN subquery", pred: `n IN (SELECT n FROM t WHERE n < 2)`, truth: "TTFNFF"},
	{name: "EXISTS", pred: `EXISTS (SELECT 1 FROM t WHERE n = 5) AND n < 2`, truth: "TTFNFF"},
	{name: "scalar subquery", pred: `n > (SELECT MIN(n) + 1 FROM t)`, truth: "FFTNTT"},
	{name: "NEXT VALUE FOR", pred: `NEXT VALUE FOR sq > 0 AND n < 2`, truth: "TTFNFF"},
	{name: "NEXTVAL", dialect: sql.DialectOracle, pred: `sq.NEXTVAL > 0 AND n < 2`, truth: "TTFNFF"},
	{name: "ROWNUM", dialect: sql.DialectOracle, pred: `ROWNUM > 0 AND n < 2`, truth: "TTFNFF"},
}

// TestExpressionHostPositions runs every compiled expression shape in every
// position an expression can sit in — WHERE, the select list, HAVING, ORDER
// BY, a keyless join ON, UPDATE … SET, DELETE … WHERE — at dop 1, 2 and 8,
// and checks each answer against the truth table above, row by row. All of
// them evaluate through exec.Expr.EvalVec; the lazy arms of CASE and IN
// (divisions that would fail on the rows an earlier arm takes) must stay
// unevaluated in every position.
func TestExpressionHostPositions(t *testing.T) {
	for _, dop := range []int{1, 2, 8} {
		for _, sh := range hostShapes {
			db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: dop})
			if err := db.RegisterFunction("TRIPLE", 1, 1, func(args []types.Value) (types.Value, error) {
				if args[0].IsNull() {
					return types.Null, nil
				}
				return types.NewInt(args[0].Int() * 3), nil
			}); err != nil {
				t.Fatal(err)
			}
			s := db.NewSession()
			seedHost(t, s)
			mustExec(t, s, `CREATE SEQUENCE sq`)
			s.SetDialect(sh.dialect)
			ctx := fmt.Sprintf("%s at dop %d", sh.name, dop)

			truth := func(a int64) byte { return sh.truth[a%6] }
			var all, kept, dropped, ordered []int64
			for a := int64(0); a < hostN; a++ {
				all = append(all, a)
				if truth(a) == 'T' {
					kept = append(kept, a)
				} else {
					dropped = append(dropped, a)
				}
			}
			// ORDER BY a boolean: NULLs first, then FALSE, then TRUE.
			ordered = slices.Clone(all)
			sort.SliceStable(ordered, func(i, j int) bool {
				return strings.IndexByte("NFT", truth(ordered[i])) < strings.IndexByte("NFT", truth(ordered[j]))
			})
			ids := func(q string) []int64 {
				t.Helper()
				var out []int64
				for _, row := range mustExec(t, s, q).Rows {
					out = append(out, row[0].Int())
				}
				return out
			}
			// flags checks a (a, boolean) result against the truth table.
			flags := func(host, q string) {
				t.Helper()
				rows := mustExec(t, s, q).Rows
				if len(rows) != hostN {
					t.Fatalf("%s, %s: %d rows", ctx, host, len(rows))
				}
				for _, row := range rows {
					got := byte('N')
					if !row[1].IsNull() {
						got = "FT"[row[1].Int()]
					}
					if want := truth(row[0].Int()); got != want {
						t.Fatalf("%s, %s: row a=%d is %c, want %c", ctx, host, row[0].Int(), got, want)
					}
				}
			}
			same := func(host string, got, want []int64) {
				t.Helper()
				if !slices.Equal(got, want) {
					t.Fatalf("%s, %s: %d rows %v…, want %d rows %v…", ctx, host, len(got), got[:min(8, len(got))], len(want), want[:min(8, len(want))])
				}
			}

			same("WHERE", ids(`SELECT a FROM t WHERE `+sh.pred+` ORDER BY a`), kept)
			flags("select list", `SELECT a, `+sh.pred+` FROM t ORDER BY a`)
			same("HAVING", ids(`SELECT a FROM t GROUP BY a, n, s, d HAVING `+sh.pred+` ORDER BY a`), kept)
			same("ORDER BY", ids(`SELECT a FROM t ORDER BY `+sh.pred+`, a`), ordered)
			same("keyless ON", ids(`SELECT a FROM t JOIN one ON `+sh.pred+` ORDER BY a`), kept)
			if r := mustExec(t, s, `UPDATE t SET r = `+sh.pred); r.RowsAffected != hostN {
				t.Fatalf("%s, UPDATE SET: %d rows affected", ctx, r.RowsAffected)
			}
			flags("UPDATE SET", `SELECT a, r FROM t ORDER BY a`)
			if r := mustExec(t, s, `DELETE FROM t WHERE `+sh.pred); r.RowsAffected != int64(len(kept)) {
				t.Fatalf("%s, DELETE WHERE: %d rows affected, want %d", ctx, r.RowsAffected, len(kept))
			}
			same("DELETE WHERE", ids(`SELECT a FROM t ORDER BY a`), dropped)
			db.Close()
		}
	}
}

// TestStatefulExpressionsStaySerial: at dop 8, over more than one stride,
// a sequence in a projection hands out each value exactly once and in scan
// order, ROWNUM counts in position order, and a UDX is never entered by two
// goroutines at once (the plain counter below is a race under -race if it
// is) — while the group-by above a pure predicate keeps its workers.
func TestStatefulExpressionsStaySerial(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: 8})
	defer db.Close()
	var inside, entered atomic.Int64
	calls := 0
	if err := db.RegisterFunction("PROBE", 1, 1, func(args []types.Value) (types.Value, error) {
		if inside.Add(1) != 1 {
			entered.Add(1)
		}
		calls++
		inside.Add(-1)
		return args[0], nil
	}); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	seedHost(t, s)
	mustExec(t, s, `CREATE SEQUENCE sq`)

	rows := mustExec(t, s, `SELECT a, NEXT VALUE FOR sq FROM t`).Rows
	if len(rows) != hostN {
		t.Fatalf("%d rows", len(rows))
	}
	for i, row := range rows {
		if row[0].Int() != int64(i) || row[1].Int() != int64(i+1) {
			t.Fatalf("row %d is %v: a sequence in a projection must follow scan order, one value a row", i, row)
		}
	}

	s.SetDialect(sql.DialectOracle)
	for i, row := range mustExec(t, s, `SELECT a, ROWNUM FROM t WHERE s LIKE 'ab%'`).Rows {
		if row[1].Int() != int64(i+1) || row[0].Int()%6 != []int64{0, 1, 4}[i%3] {
			t.Fatalf("row %d is %v: ROWNUM must count the rows the filter kept, in order", i, row)
		}
	}
	s.SetDialect(sql.DialectANSI)

	r := mustExec(t, s, `SELECT n, COUNT(*) FROM t WHERE PROBE(a) >= 0 GROUP BY n ORDER BY n`)
	if len(r.Rows) != 6 || calls != hostN || entered.Load() != 0 {
		t.Fatalf("UDX under a dop-8 group-by: %d groups, %d calls, %d concurrent entries", len(r.Rows), calls, entered.Load())
	}
	for _, c := range []struct {
		q         string
		group, op string
	}{
		{`SELECT n, COUNT(*) FROM t WHERE PROBE(a) >= 0 GROUP BY n`, "GROUP BY [1 keys, 1 aggregates] [vectorized]", "FILTER [row]"},
		{`SELECT n, COUNT(*) FROM t WHERE s LIKE 'ab%' GROUP BY n`, "GROUP BY [1 keys, 1 aggregates] [vectorized] [dop=8]", "FILTER [vectorized]"},
		{`SELECT n, COUNT(*) FROM t WHERE CASE WHEN n = 2 THEN 7 ELSE 10 / (n - 2) END > 4 GROUP BY n`, "GROUP BY [1 keys, 1 aggregates] [vectorized] [dop=8]", "FILTER [vectorized]"},
		{`SELECT n, COUNT(*) FROM t WHERE n IN (1, 4, 10 / (n - 1)) GROUP BY n`, "GROUP BY [1 keys, 1 aggregates] [vectorized] [dop=8]", "FILTER [vectorized]"},
		{`SELECT n, COUNT(*) FROM t WHERE n IN (SELECT n FROM t WHERE n < 2) GROUP BY n`, "GROUP BY [1 keys, 1 aggregates] [vectorized]", "FILTER [row]"},
	} {
		lines := planLines(t, s, c.q)
		for _, want := range []string{c.group, c.op} {
			if !slices.ContainsFunc(lines, func(l string) bool { return strings.TrimSpace(l) == want }) {
				t.Fatalf("%s: want %q in\n%s", c.q, want, strings.Join(lines, "\n"))
			}
		}
	}
}
