package sql

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dashdb/internal/types"
)

func mustParse(t *testing.T, src string, d Dialect) Statement {
	t.Helper()
	st, err := Parse(src, d)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return st
}

func mustFail(t *testing.T, src string, d Dialect) {
	t.Helper()
	if _, err := Parse(src, d); err == nil {
		t.Fatalf("parse %q should fail under %v", src, d)
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`SELECT a, "Mixed Case", 'it''s', 1.5e3, x::int8 -- comment
		/* block */ FROM t WHERE a (+) = 1`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	// Spot checks.
	if texts[0] != "SELECT" || kinds[0] != TokIdent {
		t.Fatalf("first token %v %q", kinds[0], texts[0])
	}
	found := map[string]bool{}
	for i, tx := range texts {
		found[tx] = true
		if tx == "it's" && kinds[i] != TokString {
			t.Error("escaped string mishandled")
		}
		if tx == "Mixed Case" && kinds[i] != TokQuotedIdent {
			t.Error("quoted identifier mishandled")
		}
	}
	for _, want := range []string{"::", "(+)", "1.5e3", "Mixed Case"} {
		if !found[want] {
			t.Errorf("missing token %q in %v", want, texts)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, "/* unterminated", "a @ b"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestParseSelectShape(t *testing.T) {
	st := mustParse(t, `
		WITH w AS (SELECT a FROM t1)
		SELECT DISTINCT a, b AS bee, COUNT(*)
		FROM t2 x JOIN t3 ON x.id = t3.id LEFT JOIN t4 USING (k)
		WHERE a > 5 AND b IN (1,2,3) OR c IS NOT NULL
		GROUP BY a, bee
		HAVING COUNT(*) > 1
		ORDER BY 1 DESC, bee
		LIMIT 10 OFFSET 5`, DialectNetezza)
	sel := st.(*SelectStmt)
	if len(sel.With) != 1 || sel.With[0].Name != "W" {
		t.Fatalf("with %v", sel.With)
	}
	if !sel.Distinct || len(sel.Items) != 3 || sel.Items[1].Alias != "BEE" {
		t.Fatalf("items %+v", sel.Items)
	}
	if len(sel.From) != 1 {
		t.Fatalf("from %v", sel.From)
	}
	join, ok := sel.From[0].(*JoinRef)
	if !ok || join.Type != "LEFT" || len(join.Using) != 1 {
		t.Fatalf("outer join %+v", sel.From[0])
	}
	inner, ok := join.Left.(*JoinRef)
	if !ok || inner.Type != "INNER" || inner.On == nil {
		t.Fatalf("inner join %+v", join.Left)
	}
	if len(sel.GroupBy) != 2 || sel.Having == nil {
		t.Fatal("group/having lost")
	}
	if len(sel.OrderBy) != 2 || sel.OrderBy[0].Ordinal != 1 || !sel.OrderBy[0].Desc {
		t.Fatalf("order %v", sel.OrderBy)
	}
	if sel.Limit != 10 || sel.Offset != 5 {
		t.Fatalf("limit %d offset %d", sel.Limit, sel.Offset)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	st := mustParse(t, `SELECT 1 + 2 * 3 FROM t`, DialectANSI)
	e := st.(*SelectStmt).Items[0].Expr.(*BinaryOp)
	if e.Op != "+" {
		t.Fatalf("top op %s", e.Op)
	}
	if r := e.Right.(*BinaryOp); r.Op != "*" {
		t.Fatalf("mul should bind tighter: %v", r.Op)
	}
	// AND binds tighter than OR.
	st = mustParse(t, `SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3`, DialectANSI)
	w := st.(*SelectStmt).Where.(*BinaryOp)
	if w.Op != "OR" {
		t.Fatalf("top logical %s", w.Op)
	}
	// NOT before comparison chains.
	st = mustParse(t, `SELECT * FROM t WHERE NOT a = 1 AND b = 2`, DialectANSI)
	w = st.(*SelectStmt).Where.(*BinaryOp)
	if w.Op != "AND" {
		t.Fatalf("NOT scoping: %v", w.Op)
	}
}

func TestParseCaseCastBetween(t *testing.T) {
	st := mustParse(t, `
		SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END,
		       CASE a WHEN 1 THEN 'one' END,
		       CAST(a AS VARCHAR(10)),
		       a BETWEEN 1 AND 10,
		       a NOT BETWEEN 1 AND 10
		FROM t`, DialectANSI)
	items := st.(*SelectStmt).Items
	if _, ok := items[0].Expr.(*CaseExpr); !ok {
		t.Fatal("searched case")
	}
	if ce := items[1].Expr.(*CaseExpr); ce.Operand == nil {
		t.Fatal("simple case operand")
	}
	if c := items[2].Expr.(*CastExpr); c.Type != "VARCHAR" {
		t.Fatalf("cast type %s", c.Type)
	}
	if b := items[3].Expr.(*BetweenExpr); b.Not {
		t.Fatal("between")
	}
	if b := items[4].Expr.(*BetweenExpr); !b.Not {
		t.Fatal("not between")
	}
}

func TestParseDML(t *testing.T) {
	ins := mustParse(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`, DialectANSI).(*InsertStmt)
	if ins.Table != "T" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	ins2 := mustParse(t, `INSERT INTO t SELECT * FROM s`, DialectANSI).(*InsertStmt)
	if ins2.Query == nil {
		t.Fatal("insert-select")
	}
	up := mustParse(t, `UPDATE t SET a = a + 1, b = 'z' WHERE a < 10`, DialectANSI).(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("%+v", up)
	}
	del := mustParse(t, `DELETE FROM t WHERE a = 1`, DialectANSI).(*DeleteStmt)
	if del.Table != "T" || del.Where == nil {
		t.Fatalf("%+v", del)
	}
}

func TestParseDDL(t *testing.T) {
	ct := mustParse(t, `CREATE TABLE t (a BIGINT NOT NULL PRIMARY KEY, b VARCHAR(10), c DECIMAL(10,2))`, DialectANSI).(*CreateTableStmt)
	if len(ct.Columns) != 3 || !ct.Columns[0].NotNull || ct.Columns[2].Type != "DECIMAL" {
		t.Fatalf("%+v", ct.Columns)
	}
	tmp := mustParse(t, `CREATE TEMP TABLE s (a INT4)`, DialectNetezza).(*CreateTableStmt)
	if !tmp.Temp {
		t.Fatal("temp flag")
	}
	gt := mustParse(t, `CREATE GLOBAL TEMPORARY TABLE g (a INT)`, DialectOracle).(*CreateTableStmt)
	if !gt.Temp {
		t.Fatal("global temp flag")
	}
	ctas := mustParse(t, `CREATE TABLE c AS (SELECT a FROM t)`, DialectANSI).(*CreateTableStmt)
	if ctas.AsQuery == nil {
		t.Fatal("CTAS")
	}
	v := mustParse(t, `CREATE VIEW v AS SELECT a FROM t WHERE a > 0`, DialectANSI).(*CreateViewStmt)
	if v.Name != "V" || v.Sub == nil || v.SQL == "" {
		t.Fatalf("%+v", v)
	}
	seq := mustParse(t, `CREATE SEQUENCE s START WITH 5 INCREMENT BY -2`, DialectANSI).(*CreateSequenceStmt)
	if seq.Start != 5 || seq.Incr != -2 {
		t.Fatalf("%+v", seq)
	}
	dr := mustParse(t, `DROP TABLE IF EXISTS t`, DialectANSI).(*DropStmt)
	if !dr.IfExists || dr.Kind != "TABLE" {
		t.Fatalf("%+v", dr)
	}
	tr := mustParse(t, `TRUNCATE TABLE t`, DialectOracle).(*TruncateStmt)
	if tr.Table != "T" {
		t.Fatalf("%+v", tr)
	}
}

func TestDialectGatedSyntax(t *testing.T) {
	// Oracle-only.
	mustParse(t, `SELECT seq.NEXTVAL FROM DUAL`, DialectOracle)
	mustFail(t, `SELECT 1 FROM DUAL`, DialectNetezza)
	mustParse(t, `SELECT a FROM t WHERE ROWNUM < 5`, DialectOracle)
	mustFail(t, `SELECT ROWNUM FROM t`, DialectDB2)
	mustParse(t, `BEGIN INSERT INTO t VALUES (1); END`, DialectOracle)
	mustFail(t, `BEGIN INSERT INTO t VALUES (1); END`, DialectANSI)
	mustParse(t, `CREATE TABLE o (a VARCHAR2(10), n NUMBER(10,2))`, DialectOracle)
	mustFail(t, `CREATE TABLE o (a VARCHAR2(10))`, DialectANSI)
	// Netezza/PG-only.
	mustParse(t, `SELECT a::INT8 FROM t LIMIT 3`, DialectNetezza)
	mustFail(t, `SELECT a::INT8 FROM t`, DialectOracle)
	mustFail(t, `SELECT a FROM t LIMIT 3`, DialectDB2)
	mustParse(t, `SELECT a FROM t WHERE a ISNULL`, DialectNetezza)
	// DB2-only.
	mustParse(t, `VALUES (1), (2)`, DialectDB2)
	mustFail(t, `VALUES (1)`, DialectOracle)
	mustParse(t, `SELECT NEXT VALUE FOR s FROM t`, DialectDB2)
	mustFail(t, `SELECT NEXT VALUE FOR s FROM t`, DialectOracle)
	mustParse(t, `DECLARE GLOBAL TEMPORARY TABLE g (a INT)`, DialectDB2)
	mustFail(t, `DECLARE GLOBAL TEMPORARY TABLE g (a INT)`, DialectOracle)
	mustParse(t, `CREATE TABLE d (v DECFLOAT)`, DialectDB2)
	mustFail(t, `CREATE TABLE d (v DECFLOAT)`, DialectNetezza)
	// FETCH FIRST works everywhere.
	mustParse(t, `SELECT a FROM t FETCH FIRST 5 ROWS ONLY`, DialectANSI)
}

func TestParseScriptSplitting(t *testing.T) {
	stmts, err := ParseScript(`CREATE TABLE a (x INT); INSERT INTO a VALUES (1); SELECT * FROM a;`, DialectANSI)
	if err != nil || len(stmts) != 3 {
		t.Fatalf("%d stmts, err %v", len(stmts), err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`SELECT`, `SELECT FROM t`, `SELECT a FROM`, `INSERT t VALUES (1)`,
		`UPDATE t a = 1`, `CREATE TABLE`, `SELECT a FROM t WHERE`,
		`SELECT a FROM t GROUP`, `SELECT CASE END FROM t`,
		`SELECT a FROM t ORDER BY`, `SELECT 1 extra_token_1 extra_token_2 FROM`,
	} {
		if _, err := Parse(src, DialectANSI); err == nil {
			t.Errorf("parse %q should fail", src)
		}
	}
}

func TestOracleEmptyStringLiteralIsNull(t *testing.T) {
	st := mustParse(t, `SELECT '' FROM t`, DialectOracle)
	lit := st.(*SelectStmt).Items[0].Expr.(*Literal)
	if !lit.Val.IsNull() {
		t.Fatal("'' must parse to NULL under Oracle")
	}
	st = mustParse(t, `SELECT '' FROM t`, DialectANSI)
	lit = st.(*SelectStmt).Items[0].Expr.(*Literal)
	if lit.Val.IsNull() {
		t.Fatal("'' must stay empty string under ANSI")
	}
}

func TestParseDateLiterals(t *testing.T) {
	st := mustParse(t, `SELECT DATE '2016-06-15', TIMESTAMP '2016-06-15 10:00:00' FROM t`, DialectANSI)
	items := st.(*SelectStmt).Items
	if items[0].Expr.(*Literal).Val.Kind() != types.KindDate {
		t.Fatal("date literal")
	}
	if items[1].Expr.(*Literal).Val.Kind() != types.KindTimestamp {
		t.Fatal("timestamp literal")
	}
	mustFail(t, `SELECT DATE 'bogus' FROM t`, DialectANSI)
}

func TestParseSubqueriesAndExists(t *testing.T) {
	st := mustParse(t, `
		SELECT (SELECT MAX(a) FROM t2)
		FROM t1
		WHERE EXISTS (SELECT 1 FROM t3) AND a IN (SELECT b FROM t4)`, DialectANSI)
	sel := st.(*SelectStmt)
	if _, ok := sel.Items[0].Expr.(*SubqueryExpr); !ok {
		t.Fatal("scalar subquery")
	}
	and := sel.Where.(*BinaryOp)
	if _, ok := and.Left.(*ExistsExpr); !ok {
		t.Fatal("exists")
	}
	if in := and.Right.(*InExpr); in.Sub == nil {
		t.Fatal("in subquery")
	}
}

func TestParseUnion(t *testing.T) {
	st := mustParse(t, `SELECT a FROM t UNION ALL SELECT b FROM s UNION SELECT c FROM u`, DialectANSI)
	sel := st.(*SelectStmt)
	if sel.Union == nil || !sel.UnionAll {
		t.Fatal("first union all")
	}
	if sel.Union.Union == nil || sel.Union.UnionAll {
		t.Fatal("second union distinct")
	}

	// One trailing ORDER BY and row limit, held by the first block for the
	// whole chain; an operand cannot carry its own.
	st = mustParse(t, `SELECT a FROM t UNION SELECT b FROM s UNION ALL SELECT c FROM u ORDER BY 1 DESC FETCH FIRST 2 ROWS ONLY`, DialectANSI)
	sel = st.(*SelectStmt)
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc || sel.Limit != 2 || sel.UnionAll || !sel.Union.UnionAll {
		t.Fatalf("chain tail: %+v", sel)
	}
	for u := sel.Union; u != nil; u = u.Union {
		if len(u.OrderBy) != 0 || u.Limit != -1 || u.Offset != 0 {
			t.Fatalf("operand carries a tail: %+v", u)
		}
	}
	if _, err := Parse(`SELECT a FROM t ORDER BY a UNION SELECT a FROM t`, DialectANSI); err == nil {
		t.Fatal("ORDER BY before UNION must not parse")
	}
}

func TestParseOverlaps(t *testing.T) {
	st := mustParse(t, `SELECT * FROM t WHERE (a, b) OVERLAPS (c, d)`, DialectNetezza)
	if _, ok := st.(*SelectStmt).Where.(*OverlapsExpr); !ok {
		t.Fatalf("overlaps: %T", st.(*SelectStmt).Where)
	}
	// Plain parenthesized expression must not be eaten by the probe.
	st = mustParse(t, `SELECT * FROM t WHERE (a + b) > 2`, DialectNetezza)
	if _, ok := st.(*SelectStmt).Where.(*BinaryOp); !ok {
		t.Fatalf("paren expr: %T", st.(*SelectStmt).Where)
	}
}

func TestParseCallAndSet(t *testing.T) {
	call := mustParse(t, `CALL SPARK_SUBMIT('myapp', 42)`, DialectANSI).(*CallStmt)
	if call.Proc != "SPARK_SUBMIT" || len(call.Args) != 2 {
		t.Fatalf("%+v", call)
	}
	set := mustParse(t, `SET SQL_DIALECT = 'ORACLE'`, DialectANSI).(*SetStmt)
	if set.Name != "SQL_DIALECT" || set.Value != "ORACLE" {
		t.Fatalf("%+v", set)
	}
}

func TestParsePercentileWithinGroup(t *testing.T) {
	st := mustParse(t, `SELECT PERCENTILE_CONT(0.25) WITHIN GROUP (ORDER BY x) FROM t`, DialectOracle)
	fc := st.(*SelectStmt).Items[0].Expr.(*FuncCall)
	if fc.WithinGroupOrder == nil {
		t.Fatal("within group lost")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%b%", true},
		{"abc", "a%c%", true},
		{"mississippi", "%issip%", true},
		{"mississippi", "%issib%", false},
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.p); got != c.want {
			t.Errorf("LikeMatch(%q,%q)=%v", c.s, c.p, got)
		}
	}
}

func TestFuncRegistryDialects(t *testing.T) {
	if _, err := LookupFunc("NVL", DialectOracle); err != nil {
		t.Error(err)
	}
	if _, err := LookupFunc("NVL", DialectANSI); err == nil {
		t.Error("NVL must be Oracle-gated")
	}
	if _, err := LookupFunc("DATE_PART", DialectNetezza); err != nil {
		t.Error(err)
	}
	if _, err := LookupFunc("DATE_PART", DialectDB2); err == nil {
		t.Error("DATE_PART must be Netezza-gated")
	}
	if _, err := LookupFunc("UPPER", DialectDB2); err != nil {
		t.Error("UPPER must be universal")
	}
	if _, err := LookupFunc("NO_SUCH_FN", DialectANSI); err == nil {
		t.Error("unknown function must fail")
	}
}

func TestParseDialectNames(t *testing.T) {
	for name, want := range map[string]Dialect{
		"oracle": DialectOracle, "NPS": DialectNetezza, "postgresql": DialectNetezza,
		"db2": DialectDB2, "ansi": DialectANSI, "": DialectANSI,
	} {
		got, err := ParseDialect(name)
		if err != nil || got != want {
			t.Errorf("ParseDialect(%q)=%v,%v", name, got, err)
		}
	}
	if _, err := ParseDialect("klingon"); err == nil {
		t.Error("unknown dialect must fail")
	}
}

// Property: the parser never panics on arbitrary input (fuzz-ish
// robustness over random byte strings and mutated valid SQL).
func TestParserNeverPanicsProperty(t *testing.T) {
	seeds := []string{
		"SELECT a FROM t WHERE b = 1 GROUP BY a ORDER BY 1",
		"INSERT INTO t (a, b) VALUES (1, 'x')",
		"CREATE TABLE t (a BIGINT NOT NULL, b VARCHAR(10))",
		"WITH w AS (SELECT 1) SELECT * FROM w",
	}
	f := func(seed int64, mutations uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		src := []byte(seeds[rng.Intn(len(seeds))])
		for m := 0; m < int(mutations%16)+1; m++ {
			switch rng.Intn(3) {
			case 0: // flip a byte
				if len(src) > 0 {
					src[rng.Intn(len(src))] = byte(rng.Intn(128))
				}
			case 1: // delete a byte
				if len(src) > 1 {
					i := rng.Intn(len(src))
					src = append(src[:i], src[i+1:]...)
				}
			default: // insert a byte
				i := rng.Intn(len(src) + 1)
				src = append(src[:i], append([]byte{byte(rng.Intn(128))}, src[i:]...)...)
			}
		}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("parser panicked on %q: %v", src, r)
			}
		}()
		for _, d := range []Dialect{DialectANSI, DialectOracle, DialectNetezza, DialectDB2} {
			Parse(string(src), d) // errors are fine; panics are not
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkParseAnalyticQuery(b *testing.B) {
	q := `SELECT region, COUNT(*), SUM(amount), AVG(amount)
	      FROM transactions t JOIN accounts a ON t.account_id = a.account_id
	      WHERE t.txn_date >= DATE '2016-01-01' AND a.sector = 'tech'
	      GROUP BY region HAVING COUNT(*) > 10 ORDER BY 2 DESC`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q, DialectANSI); err != nil {
			b.Fatal(err)
		}
	}
}
