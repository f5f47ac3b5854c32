package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dashdb/internal/types"
)

// boundRows is the rows of boundTable: id i; k = i % 5, so every key ties
// with thousands of rows; g = i·7919 % 3001, four or five rows a group
// spread over every stride; n = i % 50 but NULL every seventh row of the
// last stride; s a string whose first load holds only "m…" values and whose
// later loads bring smaller "a…" values, which the dictionary codes in its
// extension region, out of value order; f = (i·37 % 1000) / 4.
func boundRows(from, to int) []types.Row {
	var rows []types.Row
	for i := from; i < to; i++ {
		n := types.NewInt(int64(i % 50))
		if i >= boundTableRows-1024 && i%7 == 0 {
			n = types.NullOf(types.KindInt)
		}
		s := fmt.Sprintf("m%05d", i%977)
		if i >= 4096 && i%3 == 0 {
			s = fmt.Sprintf("a%05d", i%911)
		}
		x := float64(i*53%2003-1001) / 8
		switch {
		case i >= 2048 && i%1009 == 1008:
			x = math.NaN()
		case i%1013 == 0:
			x = math.Copysign(0, -1)
		}
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 5)), types.NewInt(int64(i * 7919 % 3001)),
			n, types.NewString(s), types.NewFloat(float64(i*37%1000) / 4), types.NewFloat(x), types.NewString(fmt.Sprintf("sharedpf%05d", i*131%4999))})
	}
	return rows
}

const boundTableRows = 12 * 1024

// boundTable creates b, twelve strides of boundRows loaded in three
// appends.
func boundTable(t *testing.T, db *DB) {
	t.Helper()
	tbl, err := db.CreateTable("b", types.Schema{
		{Name: "id", Kind: types.KindInt}, {Name: "k", Kind: types.KindInt}, {Name: "g", Kind: types.KindInt},
		{Name: "n", Kind: types.KindInt, Nullable: true}, {Name: "s", Kind: types.KindString}, {Name: "f", Kind: types.KindFloat},
		{Name: "x", Kind: types.KindFloat}, {Name: "p", Kind: types.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range [][2]int{{0, 4096}, {4096, 8192}, {8192, boundTableRows}} {
		if err := tbl.InsertBatch(boundRows(span[0], span[1])); err != nil {
			t.Fatal(err)
		}
	}
}

// boundCases are ORDER BY statements and the LIMIT and OFFSET each runs
// under; bounded says whether the scan gets a bound (a bare leading key of
// the scan, or a bare group key with nothing between the group-by and the
// sort; not a <= bound over n, which holds a NULL).
var boundCases = []struct {
	q             string
	limit, offset int
	bounded       bool
}{
	{"SELECT id, k FROM b ORDER BY k, id DESC", 5, 0, true}, // the winners tie at the cut, in the last stride
	{"SELECT id, k FROM b ORDER BY k, id DESC", 4, 3, true},
	{"SELECT id, k FROM b ORDER BY k, id DESC", 3000, 0, true}, // spills at a 64 KB SORTHEAP
	{"SELECT id, k FROM b ORDER BY k DESC, id DESC", 6, 0, true},
	{"SELECT id, k, f FROM b ORDER BY f, k DESC, id", 7, 0, true},
	{"SELECT f, id FROM b ORDER BY f DESC, id", 5, 2, true},
	{"SELECT id, n FROM b ORDER BY n, id", 5, 0, false}, // NULLs first: the last stride's
	{"SELECT id, n FROM b ORDER BY n DESC, id", 5, 0, true},
	{"SELECT id, s FROM b ORDER BY s, id", 5, 0, true}, // out of code order
	{"SELECT s, id FROM b ORDER BY s DESC, id", 5, 0, true},
	{"SELECT id FROM b WHERE id % 3 = 0 ORDER BY k, id DESC", 5, 0, true},
	{"SELECT id, k * -1 AS m FROM b ORDER BY m, id", 5, 0, false},
	{"SELECT x, id FROM b ORDER BY x DESC, id", 1, 0, true}, // the NaNs first
	{"SELECT x, id FROM b ORDER BY x, id", 5, 0, true},
	{"SELECT p, id FROM b ORDER BY p, id", 5, 0, true}, // past their shared 8 bytes
	{"SELECT p, id FROM b ORDER BY p DESC, id", 5, 0, true},
	{"SELECT g, COUNT(*), SUM(id) FROM b GROUP BY g ORDER BY g", 3, 0, true},
	{"SELECT g, COUNT(*), SUM(id) FROM b GROUP BY g ORDER BY g DESC", 4, 2, true},
	{"SELECT n, COUNT(*) FROM b GROUP BY n ORDER BY n", 3, 0, false}, // the NULL group first
	{"SELECT n, COUNT(*) FROM b GROUP BY n ORDER BY n DESC", 3, 0, true},
	{"SELECT s, COUNT(*), MIN(id) FROM b GROUP BY s ORDER BY s", 3, 0, true},
	{"SELECT k, g, COUNT(*) FROM b GROUP BY k, g ORDER BY g, k", 5, 0, true},
	{"SELECT x, COUNT(*), MIN(id) FROM b GROUP BY x ORDER BY x DESC", 1, 0, true}, // every NaN row counted
	{"SELECT x, COUNT(*), MIN(id) FROM b GROUP BY x ORDER BY x", 3, 0, true},
	{"SELECT p, COUNT(*), MIN(id) FROM b GROUP BY p ORDER BY p", 3, 0, true},
	{"SELECT p, COUNT(*), MIN(id) FROM b GROUP BY p ORDER BY p DESC", 4, 1, true},
	{"SELECT DISTINCT g FROM b ORDER BY g", 4, 0, true},
	{"SELECT g, COUNT(*) FROM b GROUP BY g HAVING COUNT(*) > 4 ORDER BY g", 3, 0, false},
	{"SELECT g + 1, COUNT(*) FROM b GROUP BY g + 1 ORDER BY 1", 3, 0, false},
	{"SELECT g, COUNT(*) AS c FROM b GROUP BY g ORDER BY c DESC, g", 3, 0, false},
}

// limited is q under a LIMIT and OFFSET.
func limited(q string, limit, offset int) string {
	return fmt.Sprintf("%s LIMIT %d OFFSET %d", q, limit, offset)
}

// TestBoundedLimitMatchesUnbounded: every case under its LIMIT answers the
// rows of its unlimited answer the LIMIT and OFFSET select, at dop 1, 2 and
// 8 and with 64 KB sort and hash heaps, where the sorts and group-bys
// spill; EXPLAIN ANALYZE shows a bound on the scan exactly where one
// applies — at 64 KB not under LIMIT 3000, whose sort spills before it
// buffers the 2·Bound rows its first trim needs, so it never publishes.
// The data puts what a wrong bound drops after the first stride: the
// winners of a tie at the cut, the NULL leading keys, the values a
// dictionary codes out of order, the NaNs past +Inf, the strings a key
// word cannot tell apart, the rows of the groups a LIMIT keeps.
func TestBoundedLimitMatchesUnbounded(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20, TempDir: t.TempDir()})
	defer db.Close()
	boundTable(t, db)
	s := db.NewSession()
	want := make([]string, len(boundCases))
	for i, c := range boundCases {
		want[i] = rowsWindow(mustExec(t, s, c.q), c.limit, c.offset)
	}
	spills := 0
	for _, heap := range []string{"", "64KB"} {
		if heap != "" {
			mustExec(t, s, "SET SORTHEAP "+heap)
			mustExec(t, s, "SET HASHHEAP "+heap)
		}
		for _, dop := range []int{1, 2, 8} {
			mustExec(t, s, fmt.Sprintf("SET PARALLELISM %d", dop))
			for i, c := range boundCases {
				q := limited(c.q, c.limit, c.offset)
				if got := rowsWindow(mustExec(t, s, q), c.limit, 0); got != want[i] {
					t.Errorf("heap %q dop %d: %s\ngot:\n%swant:\n%s", heap, dop, q, got, want[i])
				}
				plan := planText(mustExec(t, s, "EXPLAIN ANALYZE "+q))
				bounded := c.bounded && (heap == "" || c.limit < 1000)
				if strings.Contains(plan, "[bound: ") != bounded {
					t.Errorf("heap %q dop %d: %s\nbounded %v, want %v:\n%s", heap, dop, q, !bounded, bounded, plan)
				}
				if strings.Contains(plan, "[spill: ") {
					spills++
				}
			}
		}
	}
	if spills == 0 {
		t.Error("no bounded statement spilled at a 64 KB heap")
	}
}

// rowsWindow renders rows offset..offset+limit-1 of r.
func rowsWindow(r *Result, limit, offset int) string {
	var b strings.Builder
	for i, row := range r.Rows {
		if i >= offset && i < offset+limit {
			fmt.Fprintln(&b, row)
		}
	}
	return b.String()
}

// TestBoundedLimitUnderWriter runs bounded statements at dop 2 while a
// writer appends rows none of their answers keeps and truncates and
// reloads a second table: producer workers tighten the bounds that the
// scan workers read, under the race detector in the writers-active gate.
// Each answer is the first rows of the unlimited answer before the writer
// started, or for the reloaded table, empty.
func TestBoundedLimitUnderWriter(t *testing.T) {
	db := Open(Config{BufferPoolBytes: 16 << 20})
	defer db.Close()
	boundTable(t, db)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE c AS (SELECT * FROM b)")
	qs := []string{
		"SELECT id, k FROM b ORDER BY k, id DESC",
		"SELECT g, COUNT(*), SUM(id) FROM b GROUP BY g ORDER BY g",
		"SELECT n, COUNT(*) FROM b GROUP BY n ORDER BY n",
		"SELECT id, k FROM c ORDER BY k, id DESC",
		"SELECT g, COUNT(*), SUM(id) FROM c GROUP BY g ORDER BY g",
	}
	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = rowsWindow(mustExec(t, s, q), 3, 0)
		qs[i] = limited(q, 3, 0)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := db.NewSession()
		for i := 0; !stop.Load(); i++ {
			id := boundTableRows + i
			for _, q := range []string{
				fmt.Sprintf("INSERT INTO b VALUES (%d, 9, %d, 99, 'zz', 1000000, 1000000, 'zz')", id, 5000+i),
				"TRUNCATE TABLE c",
				"INSERT INTO c SELECT * FROM b WHERE id < " + fmt.Sprint(boundTableRows),
			} {
				if _, err := w.Exec(q); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for _, dop := range []int{2, 1, 2} {
		mustExec(t, s, fmt.Sprintf("SET PARALLELISM %d", dop))
		for range 5 {
			for i, q := range qs {
				got := rowsWindow(mustExec(t, s, q), 3, 0)
				if got != want[i] && !(strings.Contains(q, " c ") && got == "") {
					t.Errorf("dop %d: %s\ngot:\n%swant:\n%s", dop, q, got, want[i])
				}
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}
