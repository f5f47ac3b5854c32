package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dashdb/internal/sql"
)

// seedTail loads the tables of the generated tail statements: t has a
// unique a, seven groups b (one of them NULL) and a c with ties and NULLs;
// d maps each non-NULL b to a weight.
func seedTail(t testing.TB, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE t (a INT, b VARCHAR(4), c INT)`)
	mustExec(t, s, `CREATE TABLE d (b VARCHAR(4), w INT)`)
	var rows []string
	for i := 1; i <= 300; i++ {
		b, c := fmt.Sprintf("'g%d'", i%7), fmt.Sprint(i*37%23)
		if i%7 == 3 {
			b = "NULL"
		}
		if i%11 == 0 {
			c = "NULL"
		}
		rows = append(rows, fmt.Sprintf("(%d,%s,%s)", i, b, c))
	}
	mustExec(t, s, `INSERT INTO t VALUES `+strings.Join(rows, ","))
	mustExec(t, s, `INSERT INTO d VALUES ('g0',5),('g1',3),('g2',5),('g4',1),('g5',3),('g6',9)`)
}

// tailStmt is one generated query expression and the statement it must
// answer like: the same items over a derived table that also computes
// every ORDER BY key as a column, sorted by those columns by name — the
// one ORDER BY form that needs no resolution. errs marks a key the block
// cannot sort by; the statement must then fail.
type tailStmt struct {
	q, rewrite string
	kind       string // block kind and key kinds, for the coverage check
	errs       bool
}

// tailItem is a select item or sort key: its text, whether arithmetic
// applies to it, and (items) its alias.
type tailItem struct {
	expr    string
	numeric bool
	alias   string
}

var (
	tailRowExprs = []tailItem{
		{expr: "t.a", numeric: true}, {expr: "t.b"}, {expr: "t.c", numeric: true},
		{expr: "t.a + t.c", numeric: true}, {expr: "UPPER(t.b)"}, {expr: "t.c * 2", numeric: true},
	}
	tailAggExprs = []tailItem{
		{expr: "t.b"}, {expr: "UPPER(t.b)"}, {expr: "COUNT(*)", numeric: true},
		{expr: "SUM(t.a)", numeric: true}, {expr: "MAX(t.c)", numeric: true},
		{expr: "SUM(t.a) + 1", numeric: true}, {expr: "MIN(t.a)", numeric: true}, {expr: "COUNT(t.c)", numeric: true},
	}
)

// genTail draws one statement. Every ORDER BY ends in keys that make the
// order total, so the rows compare in order.
func genTail(rng *rand.Rand) tailStmt {
	kinds := []string{"plain", "groupby", "having", "distinct", "union", "unionall"}
	kind := kinds[rng.Intn(len(kinds))]
	setOp := kind == "union" || kind == "unionall"
	pool := tailRowExprs
	from, rest := "t", ""
	if !setOp && rng.Intn(3) == 0 {
		from = "t JOIN d ON t.b = d.b"
	}
	switch kind {
	case "groupby":
		pool, rest = tailAggExprs, " GROUP BY t.b"
	case "having":
		pool, rest = tailAggExprs, " GROUP BY t.b HAVING COUNT(*) > 1 AND MAX(t.c) IS NOT NULL"
	}
	perm := rng.Perm(len(pool))
	n := 1 + rng.Intn(3)
	items := make([]tailItem, n)
	for i := range items {
		items[i] = pool[perm[i]]
		if setOp || rng.Intn(2) == 0 {
			items[i].alias = fmt.Sprintf("x%d", i+1)
		}
	}
	spare := pool[perm[n]] // an expression of the block that is not selected

	// A key is its text in the statement and, for the rewrite, the block
	// expression (a set operation: the output column) it stands for.
	type key struct{ text, means, kind string }
	means := func(i int) string {
		if setOp {
			return fmt.Sprintf("o%d", i+1)
		}
		return "(" + items[i].expr + ")"
	}
	var keys []key
	st := tailStmt{kind: kind}
	for k := 1 + rng.Intn(2); k > 0; k-- {
		i := rng.Intn(n)
		switch choice := rng.Intn(6); {
		case choice == 0:
			keys = append(keys, key{fmt.Sprint(i + 1), means(i), "ordinal"})
		case choice == 1 && items[i].alias != "":
			keys = append(keys, key{items[i].alias, means(i), "alias"})
		case choice == 2 && items[i].alias != "" && items[i].numeric:
			keys = append(keys, key{items[i].alias + " + 1", means(i) + " + 1", "alias arithmetic"})
		case choice == 3 && !setOp:
			keys = append(keys, key{items[i].expr, means(i), "item text"})
		case choice == 4:
			// A set operation and DISTINCT sort by their output only.
			keys = append(keys, key{spare.expr, "(" + spare.expr + ")", "non-selected"})
			st.errs = st.errs || setOp || kind == "distinct"
		case choice == 5 && items[i].numeric:
			keys = append(keys, key{"-(" + items[i].expr + ")", "-" + means(i), "item arithmetic"})
			st.errs = st.errs || setOp || kind == "distinct"
		default:
			k++
		}
	}
	switch kind {
	case "plain":
		keys = append(keys, key{"t.a", "t.a", "tiebreak"})
	case "groupby", "having":
		keys = append(keys, key{"t.b", "t.b", "tiebreak"})
	default:
		for i := range items {
			keys = append(keys, key{fmt.Sprint(i + 1), means(i), "tiebreak"})
		}
	}

	var sel, inner, outer, order, orderBy []string
	for i, it := range items {
		text := it.expr
		if it.alias != "" {
			text += " AS " + it.alias
		}
		sel = append(sel, text)
		inner = append(inner, fmt.Sprintf("%s AS o%d", it.expr, i+1))
		outer = append(outer, fmt.Sprintf("o%d", i+1))
	}
	for i, k := range keys {
		dir := []string{"", " DESC"}[rng.Intn(2)]
		order = append(order, k.text+dir)
		if setOp {
			orderBy = append(orderBy, k.means+dir)
		} else {
			inner = append(inner, fmt.Sprintf("%s AS k%d", k.means, i+1))
			orderBy = append(orderBy, fmt.Sprintf("k%d%s", i+1, dir))
		}
		st.kind += " / " + k.kind
	}
	limit := ""
	switch rng.Intn(3) {
	case 1:
		limit = fmt.Sprintf(" LIMIT %d", 1+rng.Intn(20))
	case 2:
		limit = fmt.Sprintf(" LIMIT %d OFFSET %d", 1+rng.Intn(20), rng.Intn(5))
	}

	block := func(items []string, where string) string {
		return "SELECT " + strings.Join(items, ", ") + " FROM " + from + where + rest
	}
	var body, derived string
	switch kind {
	case "distinct":
		body = strings.Replace(block(sel, ""), "SELECT", "SELECT DISTINCT", 1)
		derived = strings.Replace(block(inner, ""), "SELECT", "SELECT DISTINCT", 1)
	case "union", "unionall":
		op := map[string]string{"union": " UNION ", "unionall": " UNION ALL "}[kind]
		second := make([]string, n)
		for i, it := range items {
			second[i] = it.expr
		}
		body = block(sel, " WHERE t.a <= 200") + op + block(second, " WHERE t.a > 100")
		derived = block(inner, " WHERE t.a <= 200") + op + block(second, " WHERE t.a > 100")
	default:
		body, derived = block(sel, ""), block(inner, "")
	}
	st.q = body + " ORDER BY " + strings.Join(order, ", ") + limit
	st.rewrite = "SELECT " + strings.Join(outer, ", ") + " FROM (" + derived + ") q ORDER BY " + strings.Join(orderBy, ", ") + limit
	return st
}

// TestTailMatchesDerivedTable: whatever an ORDER BY key is — an ordinal,
// an output name, a select item's text, a column, group column or
// aggregate the block does not select, arithmetic over any of them — a
// plain, aggregating, DISTINCT or set-operation statement returns the rows,
// in the order, of the same statement sorting a derived table by name —
// the same rows at every parallelism, heap size and join order. There is one block tail and
// one ORDER BY resolver, so the block kinds cannot diverge.
func TestTailMatchesDerivedTable(t *testing.T) {
	db := newDB(t)
	defer db.Close()
	seedTail(t, db.NewSession())

	rng := rand.New(rand.NewSource(22))
	stmts := make([]tailStmt, 150)
	for i := range stmts {
		stmts[i] = genTail(rng)
	}
	answered := map[string]bool{}
	first := make([]string, len(stmts)) // each statement's rows under the first configuration
	for _, order := range []string{"GREEDY", "SYNTACTIC"} {
		for _, dop := range []int{1, 2} {
			for _, heap := range []string{"DEFAULT", "8192"} {
				s := db.NewSession()
				s.SetDialect(sql.DialectNetezza)
				mustExec(t, s, "SET JOIN_ORDER "+order)
				mustExec(t, s, fmt.Sprintf("SET PARALLELISM %d", dop))
				mustExec(t, s, "SET SORTHEAP "+heap)
				mustExec(t, s, "SET HASHHEAP "+heap)
				for i, st := range stmts {
					got, err := s.Exec(st.q)
					if st.errs {
						if err == nil {
							t.Errorf("[%s dop=%d heap=%s] %s: want an error, got %d rows", order, dop, heap, st.q, len(got.Rows))
						}
						continue
					}
					want := mustExec(t, s, st.rewrite)
					if err != nil {
						t.Errorf("[%s dop=%d heap=%s] %s: %v", order, dop, heap, st.q, err)
					} else if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
						t.Errorf("[%s dop=%d heap=%s] %s\n  got  %v\n  want %v (%s)", order, dop, heap, st.q, got.Rows, want.Rows, st.rewrite)
					}
					if err == nil && first[i] == "" {
						first[i] = fmt.Sprint(got.Rows)
					} else if err == nil && fmt.Sprint(got.Rows) != first[i] {
						t.Errorf("[%s dop=%d heap=%s] %s\n  got  %v\n  under GREEDY dop=1 heap=DEFAULT %s", order, dop, heap, st.q, got.Rows, first[i])
					}
					answered[st.kind] = true
				}
			}
		}
	}
	// Every block kind met every key kind it can sort by.
	for _, kind := range []string{"plain", "groupby", "having", "distinct", "union", "unionall"} {
		for _, key := range []string{"ordinal", "alias", "alias arithmetic", "item text", "non-selected", "item arithmetic"} {
			blockOnly := key == "item text" || key == "non-selected" || key == "item arithmetic"
			if (kind == "union" || kind == "unionall" || kind == "distinct" && key != "item text") && blockOnly {
				continue
			}
			found := false
			for k := range answered {
				found = found || strings.HasPrefix(k, kind+" /") && strings.Contains(k, "/ "+key)
			}
			if !found {
				t.Errorf("no %s statement sorted by %s was generated and answered", kind, key)
			}
		}
	}
}
