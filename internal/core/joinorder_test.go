package core

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

// The join-order invariance suite: greedy reordering and build/probe side
// selection are pure physical-plan decisions, so every multi-join query
// must return bit-identical results (modulo row order) under SYNTACTIC
// and GREEDY lowering, at any parallelism degree, on the compressed and
// row execution flows, and with the hash heap squeezed down to 8KB so
// Grace spills — including outer-join padding after a side swap — stay on
// the reordered plan's path.

// seedStarSchema loads a small star: fact rows carry some NULL and some
// dangling foreign keys so inner, LEFT and RIGHT joins all produce
// distinct shapes (dropped rows, probe-side padding, build-side padding).
func seedStarSchema(t testing.TB, s *Session, factRows int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE dima (a_id BIGINT NOT NULL, a_name VARCHAR(24))`)
	mustExec(t, s, `CREATE TABLE dimb (b_id BIGINT NOT NULL, b_name VARCHAR(24))`)
	mustExec(t, s, `CREATE TABLE fact (fk_a BIGINT, fk_b BIGINT, v BIGINT NOT NULL)`)
	var b strings.Builder
	b.WriteString("INSERT INTO dima VALUES ")
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d, 'alpha-%02d')", i, i)
	}
	mustExec(t, s, b.String())
	b.Reset()
	b.WriteString("INSERT INTO dimb VALUES ")
	for i := 0; i < 15; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d, 'beta-%02d')", i, i)
	}
	mustExec(t, s, b.String())
	b.Reset()
	b.WriteString("INSERT INTO fact VALUES ")
	for i := 0; i < factRows; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		// fk_a ranges past dima's keys (dangling rows); fk_b goes NULL
		// every 7th row and dangles past dimb every 11th.
		fkA := fmt.Sprint(i % 50)
		fkB := fmt.Sprint(i % 18)
		if i%7 == 0 {
			fkB = "NULL"
		}
		fmt.Fprintf(&b, "(%s, %s, %d)", fkA, fkB, i%997)
	}
	mustExec(t, s, b.String())
}

// joinOrderQueries are the invariance subjects: fact-first and
// dimension-first multi-joins, outer joins on both sides with inner joins
// below and above them, theta conditions, and a genuine cross join. Each is
// written three ways — its conditions in ON, in WHERE over comma or CROSS
// JOIN items, and mixed — which must plan and answer alike: an inner join's
// ON is a WHERE (a genuine cross join has no condition to move, so its
// spellings are the comma, CROSS JOIN and a parenthesized CROSS JOIN).
var joinOrderQueries = [][3]string{
	{`SELECT a_name, b_name, v FROM fact JOIN dima ON fk_a = a_id JOIN dimb ON fk_b = b_id WHERE v < 500`,
		`SELECT a_name, b_name, v FROM fact, dima, dimb WHERE fk_a = a_id AND fk_b = b_id AND v < 500`,
		`SELECT a_name, b_name, v FROM fact JOIN dima ON fk_a = a_id AND v < 500, dimb WHERE fk_b = b_id`},
	{`SELECT a_name, v FROM dima JOIN fact ON a_id = fk_a JOIN dimb ON fk_b = b_id`,
		`SELECT a_name, v FROM dima, fact, dimb WHERE a_id = fk_a AND fk_b = b_id`,
		`SELECT a_name, v FROM dima, fact JOIN dimb ON fk_b = b_id WHERE a_id = fk_a`},
	{`SELECT a_name, b_name, v FROM fact JOIN dima ON fk_a = a_id AND a_id + v > 40 LEFT JOIN dimb ON fk_b = b_id`,
		`SELECT a_name, b_name, v FROM fact CROSS JOIN dima LEFT JOIN dimb ON fk_b = b_id WHERE fk_a = a_id AND a_id + v > 40`,
		`SELECT a_name, b_name, v FROM fact JOIN dima ON fk_a = a_id LEFT JOIN dimb ON fk_b = b_id WHERE a_id + v > 40`},
	{`SELECT a_name, b_name, v FROM fact RIGHT JOIN dima ON fk_a = a_id JOIN dimb ON fk_b = b_id AND b_id < a_id`,
		`SELECT a_name, b_name, v FROM fact RIGHT JOIN dima ON fk_a = a_id, dimb WHERE fk_b = b_id AND b_id < a_id`,
		`SELECT a_name, b_name, v FROM fact RIGHT JOIN dima ON fk_a = a_id JOIN dimb ON b_id < a_id WHERE fk_b = b_id`},
	{`SELECT a_name, b_name, COUNT(*), SUM(v) FROM fact JOIN dima ON fk_a = a_id JOIN dimb ON fk_b = b_id GROUP BY a_name, b_name`,
		`SELECT a_name, b_name, COUNT(*), SUM(v) FROM fact, dima, dimb WHERE fk_a = a_id AND fk_b = b_id GROUP BY a_name, b_name`,
		`SELECT a_name, b_name, COUNT(*), SUM(v) FROM fact JOIN dima ON fk_a = a_id, dimb WHERE fk_b = b_id GROUP BY a_name, b_name`},
	{`SELECT COUNT(*) FROM dima JOIN dimb ON b_id < a_id AND b_id * 2 > 10`,
		`SELECT COUNT(*) FROM dima, dimb WHERE b_id < a_id AND b_id * 2 > 10`,
		`SELECT COUNT(*) FROM dima JOIN dimb ON b_id < a_id WHERE b_id * 2 > 10`},
	{`SELECT COUNT(*) FROM dima, dimb`,
		`SELECT COUNT(*) FROM dima CROSS JOIN dimb`,
		`SELECT COUNT(*) FROM (dima CROSS JOIN dimb)`},
}

// canonicalRows renders a result set order-independently.
func canonicalRows(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = fmt.Sprint(row)
	}
	sort.Strings(out)
	return out
}

func TestJoinOrderInvariance(t *testing.T) {
	const factRows = 2000
	engines := []struct {
		name string
		db   *DB
	}{
		{"compressed", Open(Config{BufferPoolBytes: 16 << 20})},
		{"row", Open(Config{BufferPoolBytes: 16 << 20, DisableCompressedExec: true})},
	}
	for _, e := range engines {
		seedStarSchema(t, e.db.NewSession(), factRows)
	}

	for qi, spellings := range joinOrderQueries {
		want := canonicalRows(mustExec(t, engines[0].db.NewSession(), spellings[0]))
		for _, e := range engines {
			for _, order := range []string{"SYNTACTIC", "GREEDY"} {
				for _, dop := range []int{1, 2, 8} {
					for _, heap := range []string{"DEFAULT", "8192"} {
						s := e.db.NewSession()
						mustExec(t, s, "SET JOIN_ORDER "+order)
						mustExec(t, s, fmt.Sprintf("SET PARALLELISM %d", dop))
						mustExec(t, s, "SET HASHHEAP "+heap)
						var plan0 string
						for si, q := range spellings {
							at := fmt.Sprintf("q%d spelling %d [%s %s dop=%d heap=%s]", qi+1, si+1, e.name, order, dop, heap)
							got := canonicalRows(mustExec(t, s, q))
							if len(got) != len(want) {
								t.Fatalf("%s: %d rows, want %d\n%s", at, len(got), len(want), q)
							}
							for i := range got {
								if got[i] != want[i] {
									t.Fatalf("%s row %d: %s != %s\n%s", at, i, got[i], want[i], q)
								}
							}
							plan := strings.Join(explainLines(t, s, "EXPLAIN "+q), "\n")
							if si == 0 {
								plan0 = plan
							} else if plan != plan0 {
								t.Fatalf("%s: plan\n%s\nwant, as %s plans,\n%s", at, plan, spellings[0], plan0)
							}
						}
					}
				}
			}
		}
	}
}

// TestJoinOrderExplainTags checks the planner's EXPLAIN surface: greedy
// plans report estimates and tag reordered/side-swapped joins, syntactic
// plans stay untagged, and ANALYZE pairs estimates with actuals.
func TestJoinOrderExplainTags(t *testing.T) {
	s := newDB(t).NewSession()
	seedStarSchema(t, s, 500)
	dimFirst := `SELECT a_name, v FROM dima JOIN fact ON a_id = fk_a`

	mustExec(t, s, "SET JOIN_ORDER GREEDY")
	out := strings.Join(explainLines(t, s, "EXPLAIN "+dimFirst), "\n")
	if !strings.Contains(out, "(est rows=") {
		t.Errorf("greedy EXPLAIN missing estimates:\n%s", out)
	}
	if !strings.Contains(out, "[build=") && !strings.Contains(out, "[reordered]") {
		t.Errorf("greedy EXPLAIN on dim-first join missing planner tags:\n%s", out)
	}

	out = strings.Join(explainLines(t, s, "EXPLAIN ANALYZE "+dimFirst), "\n")
	if !strings.Contains(out, "(est rows=") || !strings.Contains(out, "(actual rows=") {
		t.Errorf("EXPLAIN ANALYZE should pair estimates with actuals:\n%s", out)
	}

	mustExec(t, s, "SET JOIN_ORDER SYNTACTIC")
	out = strings.Join(explainLines(t, s, "EXPLAIN "+dimFirst), "\n")
	if strings.Contains(out, "[build=") || strings.Contains(out, "[reordered]") {
		t.Errorf("syntactic EXPLAIN must not carry planner tags:\n%s", out)
	}
}

func TestSetJoinOrder(t *testing.T) {
	s := newDB(t).NewSession()
	if r := mustExec(t, s, "SET JOIN_ORDER GREEDY"); r.Message != "JOIN_ORDER GREEDY" {
		t.Errorf("message %q", r.Message)
	}
	if r := mustExec(t, s, "SET JOIN_ORDER syntactic"); r.Message != "JOIN_ORDER SYNTACTIC" {
		t.Errorf("message %q", r.Message)
	}
	if r := mustExec(t, s, "SET JOIN_ORDER DEFAULT"); r.Message != "JOIN_ORDER GREEDY" {
		t.Errorf("default should report the effective mode, got %q", r.Message)
	}
	if _, err := s.Exec("SET JOIN_ORDER SIDEWAYS"); err == nil {
		t.Error("bad JOIN_ORDER value should error")
	}

	// Config-level ablation: reordering disabled makes DEFAULT syntactic.
	s2 := Open(Config{BufferPoolBytes: 16 << 20, DisableJoinReorder: true}).NewSession()
	if r := mustExec(t, s2, "SET JOIN_ORDER DEFAULT"); r.Message != "JOIN_ORDER SYNTACTIC" {
		t.Errorf("disabled-reorder default should be syntactic, got %q", r.Message)
	}
}

// explainLines runs an EXPLAIN statement and returns the plan lines.
func explainLines(t testing.TB, s *Session, q string) []string {
	t.Helper()
	r := mustExec(t, s, q)
	lines := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		lines[i] = row[0].Str()
	}
	return lines
}

// FuzzJoinSpellings draws a 2–4 table inner join over the star schema (a
// table may appear more than once): a tree of equalities, each joining a
// table to an earlier one, plus theta conditions, one-table predicates a
// scan takes and ones it does not. It writes the join three ways — every
// condition in the ON of the join where its last table enters, every one in
// WHERE over comma items, and each drawn between the two (CROSS JOIN where
// an ON would be empty) — which must answer alike and EXPLAIN alike.
func FuzzJoinSpellings(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 5, 8, 13, 42} {
		f.Add(seed)
	}
	db := Open(Config{BufferPoolBytes: 16 << 20})
	seedStarSchema(f, db.NewSession(), 100)
	tables := []string{"fact", "dima", "dimb"}
	keys := map[string][]string{"fact": {"fk_a", "fk_b", "v"}, "dima": {"a_id"}, "dimb": {"b_id"}}
	shown := map[string]string{"fact": "v", "dima": "a_name", "dimb": "b_name"}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rand.New(rand.NewPCG(seed, 0x5eed))
		n := 2 + r.IntN(3)
		from := make([]string, n)
		for i := range from {
			from[i] = tables[r.IntN(len(tables))]
		}
		col := func(i int) string { return fmt.Sprintf("t%d.%s", i, keys[from[i]][r.IntN(len(keys[from[i]]))]) }
		type cond struct {
			text string
			at   int // the join whose ON may hold it: where its last table enters
		}
		var conds []cond
		pushable := make([]bool, n) // the table already has a predicate its scan takes
		for i := 1; i < n; i++ {
			a, b := col(r.IntN(i)), col(i)
			if r.IntN(2) == 0 {
				a, b = b, a
			}
			conds = append(conds, cond{a + " = " + b, i})
			k := r.IntN(i + 1)
			switch r.IntN(4) {
			case 0:
				conds = append(conds, cond{fmt.Sprintf("%s < %s + %d", col(i), col(r.IntN(i)), r.IntN(30)), i})
			case 1:
				if !pushable[k] {
					pushable[k] = true
					conds = append(conds, cond{fmt.Sprintf("%s < %d", col(k), 5+r.IntN(40)), max(k, 1)})
				}
			case 2:
				conds = append(conds, cond{fmt.Sprintf("%s * 2 > %d", col(k), r.IntN(40)), max(k, 1)})
			}
		}
		var items []string
		for i, tbl := range from {
			items = append(items, fmt.Sprintf("t%d.%s", i, shown[tbl]))
		}
		// spell writes the join with each condition in ON when inON says so.
		// The all-WHERE spelling (nil) joins with commas, the mixed one with
		// CROSS JOIN where an ON would be empty.
		spell := func(inON func() bool) string {
			q := fmt.Sprintf("SELECT %s FROM %s t0", strings.Join(items, ", "), from[0])
			var where []string
			for i := 1; i < n; i++ {
				var on []string
				for _, c := range conds {
					switch {
					case c.at != i:
					case inON != nil && inON():
						on = append(on, c.text)
					default:
						where = append(where, c.text)
					}
				}
				switch {
				case len(on) > 0:
					q += fmt.Sprintf(" JOIN %s t%d ON %s", from[i], i, strings.Join(on, " AND "))
				case inON == nil:
					q += fmt.Sprintf(", %s t%d", from[i], i)
				default:
					q += fmt.Sprintf(" CROSS JOIN %s t%d", from[i], i)
				}
			}
			if len(where) > 0 {
				q += " WHERE " + strings.Join(where, " AND ")
			}
			return q
		}
		spellings := []string{
			spell(func() bool { return true }),
			spell(nil),
			spell(func() bool { return r.IntN(2) == 0 }),
		}
		s := db.NewSession()
		mustExec(t, s, "SET JOIN_ORDER "+[]string{"GREEDY", "SYNTACTIC"}[r.IntN(2)])
		want := canonicalRows(mustExec(t, s, spellings[0]))
		plan := strings.Join(explainLines(t, s, "EXPLAIN "+spellings[0]), "\n")
		for _, q := range spellings[1:] {
			if got := canonicalRows(mustExec(t, s, q)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s\nanswers %d rows, %s answers %d", q, len(got), spellings[0], len(want))
			}
			if got := strings.Join(explainLines(t, s, "EXPLAIN "+q), "\n"); got != plan {
				t.Fatalf("%s\nplans\n%s\n%s plans\n%s", q, got, spellings[0], plan)
			}
		}
	})
}
