package columnar

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
)

// TestBoundTightens: a bound takes a value only when it is tighter —
// smaller under <=, larger under >= — from any number of goroutines at
// once, and never a NULL.
func TestBoundTightens(t *testing.T) {
	for _, op := range []encoding.CmpOp{encoding.OpLE, encoding.OpGE} {
		b := NewBound(0, op)
		if _, ok := b.Value(); ok {
			t.Fatal("a new bound has a value")
		}
		var wg sync.WaitGroup
		for w := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 100 {
					b.Tighten(types.NewInt(int64(w*100 + i)))
					b.Tighten(types.NullOf(types.KindInt))
				}
			}()
		}
		wg.Wait()
		want := int64(0)
		if op == encoding.OpGE {
			want = 799
		}
		if v, ok := b.Value(); !ok || v.Int() != want {
			t.Errorf("%s: %v, want %d", op, v, want)
		}
		b.Reset()
		if _, ok := b.Value(); ok {
			t.Errorf("%s: a reset bound has a value", op)
		}
	}
}

// boundScanTable is six strides and a tail: x = i·31 % 1000, s a string
// whose second load brings values the dictionary codes out of order, and
// v nullable, NULL on every 100th row when nulls is set.
func boundScanTable(t *testing.T, nulls bool) *Table {
	t.Helper()
	tbl := NewTable(7, "b", types.Schema{
		{Name: "x", Kind: types.KindInt}, {Name: "s", Kind: types.KindString}, {Name: "v", Kind: types.KindInt, Nullable: true},
	}, Config{})
	const n = 6*page.StrideSize + 300
	for _, span := range [][2]int{{0, 2048}, {2048, n}} {
		var rows []types.Row
		for i := span[0]; i < span[1]; i++ {
			s := fmt.Sprintf("m%04d", i%500)
			if i >= 2048 && i%2 == 0 {
				s = fmt.Sprintf("a%04d", i%700)
			}
			v := types.NewInt(int64(i % 1000))
			if nulls && i%100 == 99 {
				v = types.NullOf(types.KindInt)
			}
			rows = append(rows, types.Row{types.NewInt(int64(i * 31 % 1000)), types.NewString(s), v})
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestScanBoundSelects: a bound that a callback tightens while the scan
// runs, on a frame-of-reference column, a dictionary out of code order
// and a column with NULLs, at dop 1 and 4. Every row within the last value
// is delivered, and every stride a worker selects after it saw a value
// delivers only rows within it, and the dictionary's extension values (the
// "a…" strings its second load brought), which the bound keeps whole — or,
// for a <= bound on a column holding a NULL, every row: the NULLs sort
// first. A >= bound drops NULLs.
func TestScanBoundSelects(t *testing.T) {
	for _, tc := range []struct {
		col        int
		op         encoding.CmpOp
		vals       []types.Value
		nulls      bool
		unbounding bool
	}{
		{0, encoding.OpLE, []types.Value{types.NewInt(600), types.NewInt(100), types.NewInt(40)}, false, false},
		{0, encoding.OpGE, []types.Value{types.NewInt(500), types.NewInt(990)}, false, false},
		{1, encoding.OpLE, []types.Value{types.NewString("m0300"), types.NewString("a0100")}, false, false},
		{1, encoding.OpGE, []types.Value{types.NewString("a0500"), types.NewString("m0400")}, false, false},
		{2, encoding.OpLE, []types.Value{types.NewInt(500), types.NewInt(20)}, true, true},
		{2, encoding.OpGE, []types.Value{types.NewInt(500), types.NewInt(980)}, true, false},
		{2, encoding.OpLE, []types.Value{types.NewInt(500), types.NewInt(20)}, false, false},
	} {
		tbl := boundScanTable(t, tc.nulls)
		for _, dop := range []int{1, 4} {
			name := fmt.Sprintf("col %d %s nulls=%v dop %d", tc.col, tc.op, tc.nulls, dop)
			b := NewBound(tc.col, tc.op)
			var mu sync.Mutex
			got := map[int64]types.Value{}
			strides := 0
			seen := make([]*types.Value, dop) // the bound each worker saw as it left its last stride
			snap := tbl.Snapshot()
			err := snap.Scan(nil, b, dop, nil, func(w int, bt *Batch) bool {
				mu.Lock()
				defer mu.Unlock()
				for i := range bt.Len() {
					x := bt.Value(tc.col, i)
					got[bt.RowID(i)] = x
					ext := tc.col == 1 && strings.HasPrefix(x.Str(), "a")
					if cur := seen[w]; cur != nil && !tc.unbounding && !ext && (x.IsNull() || !tc.op.Eval(x, *cur)) {
						t.Errorf("%s: row %d holds %v past the bound %s %v", name, bt.RowID(i), x, tc.op, *cur)
					}
				}
				if strides < len(tc.vals) {
					b.Tighten(tc.vals[strides])
				}
				strides++
				if v, ok := b.Value(); ok {
					seen[w] = &v
				}
				return true
			})
			snap.Release()
			if err != nil {
				t.Fatal(err)
			}
			last, _ := b.Value()
			all, err := selectWhere(tbl, nil)
			if err != nil {
				t.Fatal(err)
			}
			for id, row := range all {
				x := row[tc.col]
				_, ok := got[int64(id)]
				if within := !x.IsNull() && tc.op.Eval(x, last); (within || tc.unbounding) && !ok {
					t.Errorf("%s: row %d holding %v, within %s %v, not delivered", name, id, x, tc.op, last)
				}
			}
			if tc.unbounding && len(got) != len(all) {
				t.Errorf("%s: %d rows delivered, want every one of %d", name, len(got), len(all))
			}
		}
	}
}

// TestScanBoundNoneEndsScan: a bound no code of the column can satisfy
// ends the scan at the next morsel.
func TestScanBoundNoneEndsScan(t *testing.T) {
	tbl := boundScanTable(t, false)
	b := NewBound(0, encoding.OpLE)
	b.Tighten(types.NewInt(-1))
	snap := tbl.Snapshot()
	defer snap.Release()
	visited := 0
	if err := snap.Scan(nil, b, 1, nil, func(int, *Batch) bool { visited++; return true }); err != nil {
		t.Fatal(err)
	}
	if visited != 0 {
		t.Errorf("%d strides delivered under x <= -1", visited)
	}
	if err := snap.Scan(nil, NewBound(9, encoding.OpLE), 1, nil, func(int, *Batch) bool { return true }); err == nil {
		t.Error("a bound on column 9 of 3 scanned")
	}
}
