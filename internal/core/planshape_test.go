package core

import (
	"fmt"
	"strings"
	"testing"
)

// seedFinancial loads the benchmark's two tables (benchmark/workload.go)
// at a size the planner's estimates are stable on.
func seedFinancial(t testing.TB, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE accounts (account_id BIGINT NOT NULL, customer VARCHAR(16), sector VARCHAR(16), open_date DATE, balance DOUBLE)`)
	mustExec(t, s, `CREATE TABLE transactions (txn_id BIGINT NOT NULL, account_id BIGINT NOT NULL, txn_date DATE, amount DOUBLE, txn_type VARCHAR(4), status VARCHAR(8))`)
	sectors := []string{"banking", "energy", "tech", "health"}
	var b strings.Builder
	b.WriteString("INSERT INTO accounts VALUES ")
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d, 'C%d', '%s', DATE '2010-01-%02d', %d.25)", i, i, sectors[i%4], i%28+1, i*10)
	}
	mustExec(t, s, b.String())
	kinds, status := []string{"BUY", "SELL", "DIV", "FEE"}, []string{"SETTLED", "PENDING", "FAILED"}
	b.Reset()
	b.WriteString("INSERT INTO transactions VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "(%d, %d, DATE '2016-%02d-%02d', %d.5, '%s', '%s')", i, i%40, i%12+1, i%28+1, i%97, kinds[i%4], status[i%3])
	}
	mustExec(t, s, b.String())
}

// planShapes pins the physical tree of each benchmark statement class
// (benchmark/workload.go) and of every block-tail shape. The entries were
// recorded at e2dba3e, before a SELECT block became one plan tree, and
// must not change — the tree is how "same plan" is checked — with four
// exceptions: DISTINCT at Parallelism 2 was serial there (plan.Distinct
// had a lowering of its own that placed no dop; it is now the aggregate's),
// the last statement did not compile, every SORT line read [row], the
// tag of a sort whose state was rows (only the tag changed: SORT is [row]
// now only over a stateful key), and a SORT under a LIMIT did not show the
// bound the LIMIT gives it ([top n]).
var planShapes = []struct {
	name, q string
	want    [2]string // EXPLAIN at Parallelism 1 and 2
}{
	{name: "point",
		q: `SELECT amount FROM transactions WHERE txn_id = 1234`,
		want: [2]string{`
PROJECT AMOUNT [vectorized]
  COLUMNAR SCAN TRANSACTIONS [vectorized] [pushdown: TXN_ID = 1234] (est rows=1)
`, `
PROJECT AMOUNT [vectorized]
  COLUMNAR SCAN TRANSACTIONS [vectorized] [pushdown: TXN_ID = 1234] (est rows=1)
`}},
	{name: "scan",
		q: `SELECT txn_type, COUNT(*), SUM(amount) FROM transactions WHERE txn_date >= DATE '2016-10-01' AND status = 'SETTLED' GROUP BY txn_type ORDER BY txn_type`,
		want: [2]string{`
SORT [1 keys] [vectorized]
  PROJECT TXN_TYPE, COUNT, SUM [vectorized]
    GROUP BY [1 keys, 2 aggregates] [vectorized] [compressed]
      COLUMNAR SCAN TRANSACTIONS [vectorized] [compressed] [pushdown: TXN_DATE >= 2016-10-01 AND STATUS = SETTLED] (est rows=162)
`, `
SORT [1 keys] [vectorized]
  PROJECT TXN_TYPE, COUNT, SUM [vectorized]
    GROUP BY [1 keys, 2 aggregates] [vectorized] [compressed] [dop=2]
      PARALLEL COLUMNAR SCAN TRANSACTIONS [dop=2] [vectorized] [compressed] [pushdown: TXN_DATE >= 2016-10-01 AND STATUS = SETTLED] (est rows=162)
`}},
	{name: "agg",
		q: `SELECT status, COUNT(*), SUM(amount), AVG(amount) FROM transactions GROUP BY status ORDER BY status`,
		want: [2]string{`
SORT [1 keys] [vectorized]
  PROJECT STATUS, COUNT, SUM, AVG [vectorized]
    GROUP BY [1 keys, 3 aggregates] [vectorized] [compressed]
      COLUMNAR SCAN TRANSACTIONS [vectorized] [compressed] (est rows=2000)
`, `
SORT [1 keys] [vectorized]
  PROJECT STATUS, COUNT, SUM, AVG [vectorized]
    GROUP BY [1 keys, 3 aggregates] [vectorized] [compressed] [dop=2]
      PARALLEL COLUMNAR SCAN TRANSACTIONS [dop=2] [vectorized] [compressed] (est rows=2000)
`}},
	{name: "groupby",
		q: `SELECT account_id, COUNT(*), SUM(amount) FROM transactions GROUP BY account_id ORDER BY account_id FETCH FIRST 10 ROWS ONLY`,
		want: [2]string{`
LIMIT 10 OFFSET 0 [vectorized]
  SORT [1 keys] [top 10] [vectorized]
    PROJECT ACCOUNT_ID, COUNT, SUM [vectorized]
      GROUP BY [1 keys, 2 aggregates] [vectorized]
        COLUMNAR SCAN TRANSACTIONS [vectorized] (est rows=2000)
`, `
LIMIT 10 OFFSET 0 [vectorized]
  SORT [1 keys] [top 10] [vectorized]
    PROJECT ACCOUNT_ID, COUNT, SUM [vectorized]
      GROUP BY [1 keys, 2 aggregates] [vectorized] [dop=2]
        PARALLEL COLUMNAR SCAN TRANSACTIONS [dop=2] [vectorized] (est rows=2000)
`}},
	{name: "join",
		q: `SELECT transactions.status, COUNT(*), SUM(transactions.amount) FROM transactions JOIN accounts ON transactions.account_id = accounts.account_id WHERE transactions.txn_date >= DATE '2016-06-01' AND accounts.sector = 'tech' GROUP BY transactions.status ORDER BY transactions.status`,
		want: [2]string{`
SORT [1 keys] [vectorized]
  PROJECT STATUS, COUNT, SUM [vectorized]
    GROUP BY [1 keys, 2 aggregates] [vectorized]
      HASH JOIN (INNER) [build=left] [reordered] (est rows=331)
        COLUMNAR SCAN TRANSACTIONS [vectorized] [compressed] [pushdown: TXN_DATE >= 2016-06-01] (est rows=1160)
        COLUMNAR SCAN ACCOUNTS [vectorized] [compressed] [pushdown: SECTOR = tech] (est rows=10)
`, `
SORT [1 keys] [vectorized]
  PROJECT STATUS, COUNT, SUM [vectorized]
    GROUP BY [1 keys, 2 aggregates] [vectorized]
      HASH JOIN (INNER) [build=left] [reordered] (est rows=331)
        COLUMNAR SCAN TRANSACTIONS [vectorized] [compressed] [pushdown: TXN_DATE >= 2016-06-01] (est rows=1160)
        COLUMNAR SCAN ACCOUNTS [vectorized] [compressed] [pushdown: SECTOR = tech] (est rows=10)
`}},
	{name: "sort",
		q: `SELECT txn_id, amount FROM transactions WHERE txn_date >= DATE '2016-11-01' ORDER BY amount DESC, txn_id`,
		want: [2]string{`
SORT [2 keys] [vectorized]
  PROJECT TXN_ID, AMOUNT [vectorized]
    COLUMNAR SCAN TRANSACTIONS [vectorized] [pushdown: TXN_DATE >= 2016-11-01] (est rows=315)
`, `
SORT [2 keys] [vectorized]
  PROJECT TXN_ID, AMOUNT [vectorized]
    COLUMNAR SCAN TRANSACTIONS [vectorized] [pushdown: TXN_DATE >= 2016-11-01] (est rows=315)
`}},
	{name: "topk",
		q: `SELECT txn_id, amount FROM transactions WHERE txn_date >= DATE '2016-11-01' ORDER BY amount DESC, txn_id FETCH FIRST 100 ROWS ONLY`,
		want: [2]string{`
LIMIT 100 OFFSET 0 [vectorized]
  SORT [2 keys] [top 100] [vectorized]
    PROJECT TXN_ID, AMOUNT [vectorized]
      COLUMNAR SCAN TRANSACTIONS [vectorized] [pushdown: TXN_DATE >= 2016-11-01] (est rows=315)
`, `
LIMIT 100 OFFSET 0 [vectorized]
  SORT [2 keys] [top 100] [vectorized]
    PROJECT TXN_ID, AMOUNT [vectorized]
      COLUMNAR SCAN TRANSACTIONS [vectorized] [pushdown: TXN_DATE >= 2016-11-01] (est rows=315)
`}},
	{name: "distinct",
		q: `SELECT DISTINCT status FROM transactions`,
		want: [2]string{`
GROUP BY [1 keys, 0 aggregates] [vectorized]
  PROJECT STATUS [vectorized] [compressed]
    COLUMNAR SCAN TRANSACTIONS [vectorized] [compressed] (est rows=2000)
`, `
GROUP BY [1 keys, 0 aggregates] [vectorized] [dop=2]
  PROJECT STATUS [vectorized] [compressed]
    PARALLEL COLUMNAR SCAN TRANSACTIONS [dop=2] [vectorized] [compressed] (est rows=2000)
`}},
	{name: "union",
		q: `SELECT account_id FROM accounts UNION SELECT account_id FROM transactions`,
		want: [2]string{`
GROUP BY [1 keys, 0 aggregates] [vectorized]
  UNION ALL
    PROJECT ACCOUNT_ID [vectorized]
      COLUMNAR SCAN ACCOUNTS [vectorized] (est rows=40)
    PROJECT ACCOUNT_ID [vectorized]
      COLUMNAR SCAN TRANSACTIONS [vectorized] (est rows=2000)
`, `
GROUP BY [1 keys, 0 aggregates] [vectorized]
  UNION ALL
    PROJECT ACCOUNT_ID [vectorized]
      COLUMNAR SCAN ACCOUNTS [vectorized] (est rows=40)
    PROJECT ACCOUNT_ID [vectorized]
      COLUMNAR SCAN TRANSACTIONS [vectorized] (est rows=2000)
`}},
	{name: "hidden-key sort",
		q: `SELECT txn_id FROM transactions WHERE txn_id < 50 ORDER BY amount`,
		want: [2]string{`
PROJECT TXN_ID [vectorized]
  SORT [1 keys] [vectorized]
    PROJECT TXN_ID, __sort0 [vectorized]
      COLUMNAR SCAN TRANSACTIONS [vectorized] [pushdown: TXN_ID < 50] (est rows=50)
`, `
PROJECT TXN_ID [vectorized]
  SORT [1 keys] [vectorized]
    PROJECT TXN_ID, __sort0 [vectorized]
      COLUMNAR SCAN TRANSACTIONS [vectorized] [pushdown: TXN_ID < 50] (est rows=50)
`}},
	{name: "hidden-key aggregate sort",
		q: `SELECT status FROM transactions GROUP BY status ORDER BY SUM(amount) DESC`,
		want: [2]string{`
PROJECT STATUS [vectorized]
  SORT [1 keys] [vectorized]
    PROJECT STATUS, __sort0 [vectorized]
      GROUP BY [1 keys, 1 aggregates] [vectorized] [compressed]
        COLUMNAR SCAN TRANSACTIONS [vectorized] [compressed] (est rows=2000)
`, `
PROJECT STATUS [vectorized]
  SORT [1 keys] [vectorized]
    PROJECT STATUS, __sort0 [vectorized]
      GROUP BY [1 keys, 1 aggregates] [vectorized] [compressed] [dop=2]
        PARALLEL COLUMNAR SCAN TRANSACTIONS [dop=2] [vectorized] [compressed] (est rows=2000)
`}},
	// A predicate with no typed kernel is an ApplyExpr over the batch: pure
	// (LIKE) it keeps the group-by's workers, stateful (a subquery) it runs
	// on one and is tagged [row].
	{name: "group-by under a pure predicate",
		q: `SELECT status, COUNT(*) FROM transactions WHERE txn_type LIKE 'S%' GROUP BY status`,
		want: [2]string{`
PROJECT STATUS, COUNT [vectorized]
  GROUP BY [1 keys, 1 aggregates] [vectorized] [compressed]
    FILTER [vectorized]
      COLUMNAR SCAN TRANSACTIONS [vectorized] [compressed] (est rows=2000)
`, `
PROJECT STATUS, COUNT [vectorized]
  GROUP BY [1 keys, 1 aggregates] [vectorized] [compressed] [dop=2]
    FILTER [vectorized]
      PARALLEL COLUMNAR SCAN TRANSACTIONS [dop=2] [vectorized] [compressed] (est rows=2000)
`}},
	{name: "group-by under a stateful predicate",
		q: `SELECT status, COUNT(*) FROM transactions WHERE amount > (SELECT AVG(amount) FROM transactions) GROUP BY status`,
		want: [2]string{`
PROJECT STATUS, COUNT [vectorized]
  GROUP BY [1 keys, 1 aggregates] [vectorized] [compressed]
    FILTER [row]
      COLUMNAR SCAN TRANSACTIONS [vectorized] [compressed] (est rows=2000)
`, `
PROJECT STATUS, COUNT [vectorized]
  GROUP BY [1 keys, 1 aggregates] [vectorized] [compressed]
    FILTER [row]
      PARALLEL COLUMNAR SCAN TRANSACTIONS [dop=2] [vectorized] [compressed] (est rows=2000)
`}},
}

// TestSortBoundFromSQL checks which statements bound their sort: a row
// limit over ORDER BY, hidden sort key or not, bounds it by OFFSET + LIMIT;
// an OFFSET alone and Oracle's ROWNUM, which limits before the sort, do
// not.
func TestSortBoundFromSQL(t *testing.T) {
	s := Open(Config{BufferPoolBytes: 16 << 20}).NewSession()
	seedSales(t, s, 100)
	for _, c := range []struct{ dialect, q, want string }{
		{"DB2", `SELECT id FROM sales ORDER BY amount FETCH FIRST 5 ROWS ONLY`, "SORT [1 keys] [top 5] [vectorized]"},
		{"NETEZZA", `SELECT id, amount FROM sales ORDER BY amount LIMIT 5 OFFSET 3`, "SORT [1 keys] [top 8] [vectorized]"},
		{"DB2", `SELECT id FROM sales ORDER BY region DESC, amount FETCH FIRST 1 ROWS ONLY`, "SORT [2 keys] [top 1] [vectorized]"},
		{"DB2", `SELECT id FROM sales ORDER BY amount OFFSET 3`, "SORT [1 keys] [vectorized]"},
		{"ORACLE", `SELECT id FROM sales WHERE ROWNUM <= 7 ORDER BY amount`, "SORT [1 keys] [vectorized]"},
	} {
		mustExec(t, s, `SET SQL_DIALECT = '`+c.dialect+`'`)
		if plan := planText(mustExec(t, s, "EXPLAIN "+c.q)); !strings.Contains(plan, c.want+"\n") {
			t.Errorf("%s: want %q in\n%s", c.q, c.want, plan)
		}
	}
}

func TestPlanShapes(t *testing.T) {
	for pi, dop := range []int{1, 2} {
		s := Open(Config{BufferPoolBytes: 16 << 20, Parallelism: dop}).NewSession()
		seedFinancial(t, s)
		for _, c := range planShapes {
			got := planText(mustExec(t, s, "EXPLAIN "+c.q))
			if want := strings.TrimPrefix(c.want[pi], "\n"); got != want {
				t.Errorf("%s at parallelism %d:\n%s\nwant:\n%s", c.name, dop, got, want)
			}
		}
	}
}
