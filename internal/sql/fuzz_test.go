package sql

import "testing"

// FuzzParseSQL asserts the front end is total: on arbitrary input the
// lexer and both parser entry points must return a value or an error,
// never panic, and must uphold their structural contracts (EOF-terminated
// token streams, non-nil statements on success) under every dialect.
func FuzzParseSQL(f *testing.F) {
	seeds := []string{
		"SELECT 1",
		"SELECT a, COUNT(*) FROM t WHERE b > 10 GROUP BY a ORDER BY a LIMIT 5;",
		"SELECT t1.x FROM t1, t2 WHERE t1.id = t2.id(+)",
		"SELECT x::int FROM t WHERE y ISNULL",
		"VALUES (1, 'a'), (2, 'b')",
		"INSERT INTO t (a, b) VALUES (1, 'x')",
		"CREATE TABLE t (a INT NOT NULL, b VARCHAR(10))",
		"SELECT DECODE(a, 1, 'one', 'many') FROM DUAL",
		"SELECT ROWNUM FROM t WHERE ROWNUM <= 10",
		"SELECT NVL(a, 0) FROM t; SELECT 2;",
		"SELECT 'it''s' || \"Quoted\" FROM t -- comment\n/* block */",
		"SELECT NEXT VALUE FOR seq FROM t",
		"SELECT * FROM a JOIN b USING (id) WHERE c ISTRUE",
		// Expressions over aggregates, in HAVING and in the select list.
		"SELECT SUBSTR(MAX(name)) FROM t",
		"SELECT ROUND(SUM(x), 1, 2, 3) FROM t",
		"SELECT g FROM t GROUP BY g HAVING MAX(name) LIKE 'S%'",
		"SELECT g FROM t GROUP BY g HAVING COUNT(*) IN (1,3)",
		"SELECT g FROM t GROUP BY g HAVING SUM(x) > (SELECT AVG(x) FROM t)",
		"SELECT g FROM t GROUP BY g HAVING EXISTS (SELECT 1 FROM t WHERE x > 4)",
		"SELECT g FROM t GROUP BY g HAVING (COUNT(*) > 1) IS TRUE",
		"SELECT g FROM t GROUP BY g HAVING COUNT(*) > ? ORDER BY g",
		"SELECT SUM(x) * ? FROM t",
		"SELECT MAX(name) || 'z' FROM t WHERE g = 'c'",
		"SELECT -MAX(name) FROM t",
		"SELECT SUM(x) IS NULL FROM t",
		"SELECT COUNT(*) BETWEEN 1 AND 10 FROM t",
		"SELECT COUNT(*) IN (5,6) FROM t",
		// Set-operation chains: one trailing ORDER BY / row limit.
		"SELECT a FROM t UNION ALL SELECT a FROM t ORDER BY a DESC FETCH FIRST 2 ROWS ONLY",
		"SELECT a FROM t UNION SELECT b FROM s UNION ALL SELECT c FROM u ORDER BY 1 LIMIT 3 OFFSET 1",
		"WITH w AS (SELECT 1 UNION SELECT 2) SELECT * FROM w UNION ALL SELECT a FROM (SELECT a FROM t UNION SELECT a FROM t) q",
		"SELECT a FROM t ORDER BY a UNION SELECT a FROM t",
		"SELECT b FROM t GROUP BY b ORDER BY SUM(a) + 1 DESC, b",
		"SELECT 1 /* unterminated",
		"'unterminated string",
		"\"unterminated ident",
		"\xff\xfe bogus \x00",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	dialects := []Dialect{DialectANSI, DialectOracle, DialectNetezza, DialectDB2}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Lex(src)
		if err == nil {
			if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
				t.Fatalf("Lex(%q): token stream not EOF-terminated", src)
			}
		}
		for _, d := range dialects {
			st, err := Parse(src, d)
			if err == nil && st == nil {
				t.Fatalf("Parse(%q, %v): nil statement without error", src, d)
			}
			sts, err := ParseScript(src, d)
			if err == nil {
				for i, s := range sts {
					if s == nil {
						t.Fatalf("ParseScript(%q, %v): nil statement %d without error", src, d, i)
					}
				}
			}
		}
	})
}
