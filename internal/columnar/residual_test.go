package columnar

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
)

// residualTable is n rows of (k, s, id) loaded in two batches: k a
// BIGINT of span 2^40 and s a VARCHAR, both NULL on every 37th row, whose
// second batch brings values the dictionaries code in their unsorted
// extension, and id the row's number.
func residualTable(t *testing.T, n int) (*Table, []types.Row) {
	t.Helper()
	tbl := NewTable(8, "r", types.Schema{
		{Name: "k", Kind: types.KindInt, Nullable: true}, {Name: "s", Kind: types.KindString, Nullable: true}, {Name: "id", Kind: types.KindInt},
	}, Config{})
	rng := rand.New(rand.NewSource(8))
	rows := make([]types.Row, n)
	for i := range rows {
		k, s := types.NewInt(rng.Int63n(1<<40)), types.NewString(fmt.Sprintf("m%05d", rng.Intn(3000)))
		if i >= n/3 && i%2 == 0 {
			s = types.NewString(fmt.Sprintf("a%05d", rng.Intn(3000)))
		}
		if i%37 == 36 {
			k, s = types.NullOf(types.KindInt), types.NullOf(types.KindString)
		}
		rows[i] = types.Row{k, s, types.NewInt(int64(i))}
	}
	for _, part := range [][]types.Row{rows[:n/3], rows[n/3:]} {
		if err := tbl.InsertBatch(part); err != nil {
			t.Fatal(err)
		}
	}
	return tbl, rows
}

// TestResidualRangeSelects: a static range predicate over a dictionary
// column whose later values sit in the dictionary's unsorted extension —
// a residual range, rechecked a code at a time — selects at dop 1 and 2
// exactly what decoding every live row and comparing it selects: no NULL
// and no deleted row, for every comparison and for a BETWEEN.
func TestResidualRangeSelects(t *testing.T) {
	tbl, rows := residualTable(t, 4*page.StrideSize+300)
	if _, err := deleteWhere(tbl, []Pred{{Col: 2, Op: encoding.OpGE, Val: types.NewInt(2000)}, {Col: 2, Op: encoding.OpLE, Val: types.NewInt(2600)}}); err != nil {
		t.Fatal(err)
	}
	live := func(id int) bool { return id < 2000 || id > 2600 }
	snap := tbl.Snapshot()
	for ci, c := range []types.Value{types.NewInt(1 << 39), types.NewString("m01500")} {
		if len(snap.state().cols[ci].enc.Translate(encoding.OpLT, c).Residual) == 0 {
			t.Fatalf("column %d: no residual range under %v", ci, c)
		}
	}
	snap.Release()
	var cases [][]Pred
	for ci, consts := range [][]types.Value{
		{types.NewInt(1 << 39), rows[5][0], rows[3000][0], types.NewInt(-1), types.NewInt(1 << 41)},
		{types.NewString("m01500"), rows[5][1], rows[3000][1], types.NewString("a"), types.NewString("z")},
	} {
		for _, c := range consts {
			for _, op := range []encoding.CmpOp{encoding.OpLT, encoding.OpLE, encoding.OpGT, encoding.OpGE} {
				cases = append(cases, []Pred{{Col: ci, Op: op, Val: c}})
			}
		}
		cases = append(cases, []Pred{{Col: ci, Op: encoding.OpGE, Val: consts[1]}, {Col: ci, Op: encoding.OpLE, Val: consts[0]}})
	}
	for _, preds := range cases {
		var want []int64
		for id, r := range rows {
			match := live(id)
			for _, p := range preds {
				match = match && !r[p.Col].IsNull() && p.Op.Eval(r[p.Col], p.Val)
			}
			if match {
				want = append(want, int64(id))
			}
		}
		for _, dop := range []int{1, 2} {
			var got []int64
			var mu sync.Mutex
			err := scanDop(tbl, preds, dop, func(_ int, b *Batch) bool {
				mu.Lock()
				defer mu.Unlock()
				for i := range b.Len() {
					got = append(got, b.Value(2, i).Int())
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%v dop %d: %d rows, the oracle %d", preds, dop, len(got), len(want))
			}
		}
	}
}

// BenchmarkResidualScan counts k < 2^39 over 262 144 rows whose BIGINT k
// spans 2^40, loaded 16 384 rows at a time: a dictionary of the first
// load's keys, so 94 % of the rows hold extension codes, which the scan
// rechecks one at a time.
func BenchmarkResidualScan(b *testing.B) {
	tbl := NewTable(9, "r", types.Schema{{Name: "k", Kind: types.KindInt}}, Config{})
	rng := rand.New(rand.NewSource(9))
	for range 16 {
		batch := make([]types.Row, 1<<14)
		for i := range batch {
			batch[i] = types.Row{types.NewInt(rng.Int63n(1 << 40))}
		}
		if err := tbl.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	preds := []Pred{{Col: 0, Op: encoding.OpLT, Val: types.NewInt(1 << 39)}}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if n, err := countWhere(tbl, preds); err != nil || n == 0 {
			b.Fatal(n, err)
		}
	}
}
