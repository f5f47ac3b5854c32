package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dashdb/internal/types"
)

// TestRecycleShapesUnderWriters: the statement shapes whose scan batches an
// operator shares, holds or drops whole — a projection repeating a column
// under a sort, a CTE that two join inputs read, and a filter the scan
// cannot take that drops whole strides under a group-by — answer as a
// plain-Go reference over the same rows, at dop 1 and 2, while a writer
// trickles INSERTs into a table of its own, truncates it and drops it. The
// scans recycle their vectors through the shared pools all the while.
func TestRecycleShapesUnderWriters(t *testing.T) {
	const n = 6*1024 + 300 // six sealed strides and an open one
	db := newDB(t)
	tbl, err := db.CreateTable("rc", types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "g", Kind: types.KindString},
		{Name: "v", Kind: types.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"north", "south", "east", "west"}
	g := func(i int) string { return groups[i%len(groups)] }
	v := func(i int) float64 { return float64(i%40) / 4 } // quarters: sums are exact in any order
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(g(i)), types.NewFloat(v(i))}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}

	// The references, rendered a row a line.
	var repeat strings.Builder
	for i := 0; i < n; i++ {
		if v(i) > 9 {
			fmt.Fprintf(&repeat, "%d|%s|%d|%v|%d\n", i, g(i), i, types.NewFloat(v(i)), i)
		}
	}
	grouped := func(keep func(i int) bool, val func(i int) float64) string {
		count, sum := map[string]int{}, map[string]float64{}
		for i := 0; i < n; i++ {
			if keep(i) {
				count[g(i)]++
				sum[g(i)] += val(i)
			}
		}
		var b strings.Builder
		for _, k := range []string{"east", "north", "south", "west"} {
			if count[k] > 0 {
				fmt.Fprintf(&b, "%s|%d|%v\n", k, count[k], types.NewFloat(sum[k]))
			}
		}
		return b.String()
	}
	shapes := []struct{ q, want string }{
		{"SELECT id, g, id, v, id FROM rc WHERE v > 9 ORDER BY id", repeat.String()},
		{"WITH c AS (SELECT id, g, v FROM rc WHERE id < 4000) SELECT a.g, COUNT(*), SUM(b.v) FROM c a JOIN c b ON a.id = b.id WHERE b.v > 5 GROUP BY a.g ORDER BY a.g",
			grouped(func(i int) bool { return i < 4000 && v(i) > 5 }, v)},
		{"SELECT g, COUNT(*), SUM(v) FROM rc WHERE id * 2 < 3000 GROUP BY g ORDER BY g",
			grouped(func(i int) bool { return i < 1500 }, v)},
	}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		sess := db.NewSession()
		if _, err := sess.Exec(`CREATE TABLE wr (batch BIGINT NOT NULL, seq BIGINT NOT NULL, val DOUBLE)`); err != nil {
			t.Error(err)
			return
		}
		for cycle := 0; cycle < 40; cycle++ {
			q := multiRowInsert("wr", cycle, 300)
			if cycle%5 == 4 {
				q = `TRUNCATE TABLE wr`
			}
			if _, err := sess.Exec(q); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := sess.Exec(`DROP TABLE wr`); err != nil {
			t.Error(err)
		}
	}()

	var wg sync.WaitGroup
	for _, dop := range []int{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			mustExec(t, sess, fmt.Sprintf("SET PARALLELISM %d", dop))
			for round := 0; ; round++ { // at least two rounds, and until the writer is done
				select {
				case <-writerDone:
					if round >= 2 {
						return
					}
				default:
				}
				for _, sh := range shapes {
					res, err := sess.Query(sh.q)
					if err != nil {
						t.Errorf("dop %d: %s: %v", dop, sh.q, err)
						return
					}
					var got strings.Builder
					for _, row := range res.Rows {
						for j, x := range row {
							if j > 0 {
								got.WriteByte('|')
							}
							got.WriteString(x.String())
						}
						got.WriteByte('\n')
					}
					if got.String() != sh.want {
						t.Errorf("dop %d round %d: %s\ngot %d bytes, want %d\n%.300s", dop, round, sh.q, got.Len(), len(sh.want), got.String())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
