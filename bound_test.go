package dashdb_test

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dashdb"
	"dashdb/internal/workload"
)

var scanActual = regexp.MustCompile(`COLUMNAR SCAN .*\(actual rows=(\d+).*\[bound: ([^\]]*)\]`)

// TestBoundedScanDelivers pins what the benchmark's two LIMIT shapes cost
// the scan on one engine over its 150 000 transactions, at dop 1 and 2.
// Unbounded, groupby's scan delivers every row and topk's the 20 547 of
// its date window. A key-ordered LIMIT over the group-by and the bounded
// sort publish a bound the scan selects by, so groupby's scan delivers
// at most 5 % of the rows and topk's at most a quarter of its window; the
// EXPLAIN ANALYZE scan line shows the last bound — groupby's keeps fewer
// than 20 account ids, as a cut selects again each time its candidates
// reach twice the LIMIT. The answer is the first rows of the unbounded
// statement's.
func TestBoundedScanDelivers(t *testing.T) {
	fin := workload.NewFinancial(150_000, 1)
	db := dashdb.Open(dashdb.Options{})
	defer db.Close()
	loadFinancial(t, db, fin.Tables(), [][]dashdb.Row{fin.Accounts(), fin.Transactions()})
	for _, dop := range []int{1, 2} {
		if _, err := db.Exec(fmt.Sprintf("SET PARALLELISM %d", dop)); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			q     string
			most  int
			bound string
		}{
			{"SELECT account_id, COUNT(*), SUM(amount) FROM transactions GROUP BY account_id ORDER BY account_id FETCH FIRST 10 ROWS ONLY", 150_000 / 20, `^account_id <= 1?\d$`},
			{"SELECT txn_id, amount FROM transactions WHERE txn_date >= DATE '2016-01-15' ORDER BY amount DESC, txn_id FETCH FIRST 100 ROWS ONLY", 20_547 / 4, `^amount >= `},
		} {
			res, err := db.Exec("EXPLAIN ANALYZE " + tc.q)
			if err != nil {
				t.Fatal(err)
			}
			var plan []string
			for _, r := range res.Rows {
				plan = append(plan, r[0].Str())
			}
			m := scanActual.FindStringSubmatch(strings.Join(plan, "\n"))
			if m == nil {
				t.Fatalf("dop %d: no bounded scan line in\n%s", dop, strings.Join(plan, "\n"))
			}
			n, _ := strconv.Atoi(m[1])
			limit := strings.Index(tc.q, " FETCH")
			all, err := db.Exec(tc.q[:limit])
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.Exec(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			for r, row := range got.Rows {
				w := all.Rows[r]
				if fmt.Sprint(row[:2]) != fmt.Sprint(w[:2]) || math.Abs(row[len(row)-1].Float()-w[len(w)-1].Float()) > 1e-6*math.Abs(w[len(w)-1].Float()) {
					t.Errorf("dop %d: row %d %v, unbounded %v", dop, r, row, w) // sums may add in another order
				}
			}
			t.Logf("dop %d: scan delivered %d rows [bound: %s]", dop, n, m[2])
			if ok, _ := regexp.MatchString(tc.bound, m[2]); n > tc.most || !ok {
				t.Errorf("dop %d: scan delivered %d rows under bound %q, want at most %d under %q\n%s", dop, n, m[2], tc.most, tc.bound, strings.Join(plan, "\n"))
			}
		}
	}
}
