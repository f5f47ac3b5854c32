package mpp

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dashdb/internal/clusterfs"
	"dashdb/internal/page"
	"dashdb/internal/types"
	"dashdb/internal/workload"
)

// benchTopN are the benchmark's two LIMIT shapes over its transactions
// table: groupby (a key-ordered LIMIT over a group-by) and topk (a bounded
// sort under a date window).
var benchTopN = []struct{ name, q string }{
	{"groupby", "SELECT account_id, COUNT(*), SUM(amount) FROM transactions GROUP BY account_id ORDER BY account_id FETCH FIRST 10 ROWS ONLY"},
	{"topk", "SELECT txn_id, amount FROM transactions WHERE txn_date >= DATE '2016-01-15' ORDER BY amount DESC, txn_id FETCH FIRST 100 ROWS ONLY"},
}

var scanRows = regexp.MustCompile(`COLUMNAR SCAN .*\(actual rows=(\d+)`)

// scanDelivered is the rows the scan line of an EXPLAIN ANALYZE delivered.
func scanDelivered(t *testing.T, lines []string) int {
	t.Helper()
	for _, l := range lines {
		if m := scanRows.FindStringSubmatch(l); m != nil {
			n, _ := strconv.Atoi(m[1])
			return n
		}
	}
	t.Fatalf("no scan line in\n%s", strings.Join(lines, "\n"))
	return 0
}

// TestBoundedScanOnShards runs the benchmark's two LIMIT shapes over its
// 150 000 transactions (amounts in whole cents, as the benchmark has them)
// on a 6-shard cluster. The answer is the first rows of one engine's
// unbounded answer, and every shard's scan — the shard statement carries
// the ORDER BY and the LIMIT — delivers at most two strides a worker
// before its producer publishes a bound (one handed over, one selected
// while the consumer works on it; see exec.ScanOp.Open), and then only
// what the bound lets through: 1 % of a shard's rows under groupby's, a
// tenth of its date window under topk's. A shard's table is 25 strides
// and its window four, so the loose strides are most of what a shard's
// scan delivers: about 9 % of its rows at dop 1, and about 60 % of its
// window.
func TestBoundedScanOnShards(t *testing.T) {
	h := &harness{t: t}
	c := h.form(fourNodes()[:3], 2, clusterfs.New())
	fin := workload.NewFinancial(150_000, 1)
	td, txns := fin.Tables()[1], fin.Transactions()
	for _, r := range txns {
		r[3] = types.NewFloat(math.Round(r[3].Float()*100) / 100)
	}
	if err := c.CreateTable(td.Name, td.Schema, TableOptions{DistributeBy: td.DistributeBy}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(td.Name, txns); err != nil {
		t.Fatal(err)
	}
	ref := referenceOf(t, c)
	for i, tc := range benchTopN {
		one, err := ref.Exec(tc.q[:strings.Index(tc.q, " FETCH")])
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Query(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		// groupby's sums add the same cents in another order.
		if want := []int{10, 100}[i]; len(got.Rows) != want {
			t.Fatalf("%s: %d rows, want %d", tc.q, len(got.Rows), want)
		}
		for r, row := range got.Rows {
			w := one.Rows[r]
			if row[0].String() != w[0].String() || row[1].String() != w[1].String() ||
				math.Abs(row[len(row)-1].Float()-w[len(w)-1].Float()) > 1e-6*math.Abs(w[len(w)-1].Float()) {
				t.Errorf("%s: row %d %v, one engine %v", tc.q, r, row, w)
			}
		}
		for _, dop := range []int{1, 2} {
			for s := range c.NShards() {
				db := h.engine(c, s)
				sess := db.NewSession()
				if _, err := sess.Exec(fmt.Sprintf("SET PARALLELISM %d", dop)); err != nil {
					t.Fatal(err)
				}
				var rows int
				if i == 1 {
					cnt, err := sess.Exec("SELECT COUNT(*) FROM transactions WHERE txn_date >= DATE '2016-01-15'")
					if err != nil {
						t.Fatal(err)
					}
					rows = int(cnt.Rows[0][0].Int())
				} else {
					tbl, _ := db.Table("transactions")
					snap := tbl.Snapshot()
					rows = snap.Rows()
					snap.Release()
				}
				res, err := sess.Exec("EXPLAIN ANALYZE " + tc.q)
				if err != nil {
					t.Fatal(err)
				}
				var plan []string
				for _, r := range res.Rows {
					plan = append(plan, r[0].Str())
				}
				n := scanDelivered(t, plan)
				t.Logf("%s dop %d shard %d: scan delivered %d of %d rows", tc.name, dop, s, n, rows)
				most := 2*dop*page.StrideSize + rows/100
				if i == 1 {
					most = 2*page.StrideSize + rows/10
				}
				if n > most {
					t.Errorf("%s dop %d shard %d: scan delivered %d of %d rows, want at most %d\n%s", tc.name, dop, s, n, rows, most, strings.Join(plan, "\n"))
				}
			}
		}
	}
}
