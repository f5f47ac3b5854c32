package sql

// White-box compiler tests: the shape of the trees the compiler builds for
// the blocks it does not hand straight to the session — view bodies, CTE
// bodies and uncorrelated subqueries.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"dashdb/internal/catalog"
	"dashdb/internal/columnar"
	"dashdb/internal/exec"
	"dashdb/internal/types"
)

// compileCatalog holds one table T(K, V) of 300 rows: K = i % 20, V = i.
func compileCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tbl := columnar.NewTable(cat.NextTableID(), "T", types.Schema{
		{Name: "K", Kind: types.KindInt},
		{Name: "V", Kind: types.KindInt},
	}, columnar.Config{})
	rows := make([]types.Row, 300)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i % 20)), types.NewInt(int64(i))}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateTable(tbl, false); err != nil {
		t.Fatal(err)
	}
	return cat
}

func compileText(t *testing.T, c *Compiler, text string) exec.Operator {
	t.Helper()
	st, err := Parse(text, c.Dialect)
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.CompileSelect(st.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// scans lists the columnar scans of a compiled tree.
func scans(op exec.Operator) (out []*exec.ScanOp) {
	var walk func(op exec.Operator)
	walk = func(op exec.Operator) {
		switch o := op.(type) {
		case *exec.ScanOp:
			out = append(out, o)
		case *exec.FilterOp:
			walk(o.Child)
		case *exec.ProjectOp:
			walk(o.Child)
		case *exec.LimitOp:
			walk(o.Child)
		case *exec.SortOp:
			walk(o.Child)
		case *exec.GroupByOp:
			walk(o.Child)
		case *exec.HashJoinOp:
			walk(o.Left)
			walk(o.Right)
		case *exec.UnionAllOp:
			for _, c := range o.Children {
				walk(c)
			}
		}
	}
	walk(op)
	return out
}

func drainedKeys(t *testing.T, op exec.Operator) []string {
	t.Helper()
	rows, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = fmt.Sprint(r)
	}
	sort.Strings(keys)
	return keys
}

// TestViewScansJoinTheSnapshotSet: a view body is one more block of the
// statement, so every scan under it reads the statement's pinned snapshot.
func TestViewScansJoinTheSnapshotSet(t *testing.T) {
	cat := compileCatalog(t)
	if err := cat.CreateView("VJ", "SELECT a.k, b.v FROM t a JOIN t b ON a.v = b.v WHERE a.k + b.k > 3", "ANSI"); err != nil {
		t.Fatal(err)
	}
	c := NewCompiler(cat, DialectANSI, &EvalEnv{Now: time.Now()})
	c.Snaps = columnar.NewSnapshotSet()
	defer c.Snaps.ReleaseAll()
	under := scans(compileText(t, c, "SELECT k, COUNT(*) FROM vj GROUP BY k"))
	if len(under) != 2 {
		t.Fatalf("want 2 scans under the view, got %d", len(under))
	}
	for _, s := range under {
		if s.Snap == nil {
			t.Fatalf("scan of %s under the view left the statement's snapshot set", s.Table.Name())
		}
	}
}

// TestCompilerDrainsVectorizedTrees: the trees the compiler drains itself
// are compiled like the statement's own — their scans read the statement's
// snapshot set — and return what the inlined statement returns.
func TestCompilerDrainsVectorizedTrees(t *testing.T) {
	cat := compileCatalog(t)
	var drained []exec.Operator
	realDrain := drain
	drain = func(op exec.Operator) ([]types.Row, error) {
		drained = append(drained, op)
		return realDrain(op)
	}
	defer func() { drain = realDrain }()

	for _, tc := range []struct{ name, text, inlined string }{
		{"CTE body",
			"WITH x AS (SELECT k, v FROM t WHERE v > 40 AND k + v > 70) SELECT k, COUNT(*), SUM(v) FROM x GROUP BY k",
			"SELECT k, COUNT(*), SUM(v) FROM t WHERE v > 40 AND k + v > 70 GROUP BY k"},
		{"IN subquery",
			"SELECT k, v FROM t WHERE k IN (SELECT k FROM t WHERE v > 290 AND k + v > 300)",
			"SELECT k, v FROM t WHERE k IN (11, 12, 13, 14, 15, 16, 17, 18, 19)"},
	} {
		drained = nil
		c := NewCompiler(cat, DialectANSI, &EvalEnv{Now: time.Now()})
		c.Snaps = columnar.NewSnapshotSet()
		defer c.Snaps.ReleaseAll()
		got := drainedKeys(t, compileText(t, c, tc.text))
		if len(drained) != 1 {
			t.Fatalf("%s: compiler drained %d trees, want 1", tc.name, len(drained))
		}
		if under := scans(drained[0]); len(under) != 1 || under[0].Snap == nil {
			t.Fatalf("%s: drained tree must scan the table once, inside the statement's snapshot set: %v", tc.name, under)
		}
		want := drainedKeys(t, compileText(t, c, tc.inlined))
		if len(got) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %d rows, inlined statement %d rows", tc.name, len(got), len(want))
		}
	}
}
