package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// tapOp hands its child's batches up unchanged, noting the first column
// of their live rows through key, and calls check before each Next with
// the keys handed up so far and those of the batch handed up last.
type tapOp[K any] struct {
	Operator
	key   func(types.Value) K
	keys  []K
	last  int
	check func(keys, last []K)
}

func (o *tapOp[K]) Next() (*vec.Batch, error) {
	o.check(o.keys, o.keys[len(o.keys)-o.last:])
	vb, err := o.Operator.Next()
	if o.last = 0; vb != nil {
		for _, i := range vb.Idx() {
			o.keys = append(o.keys, o.key(vb.Col(0).Get(i)))
		}
		o.last = len(vb.Idx())
	}
	return vb, err
}

// keyTable is a one-column table of BIGINT keys.
func keyTable(t testing.TB, keys []int64) *columnar.Table {
	tbl := columnar.NewTable(774, "k", types.Schema{{Name: "k", Kind: types.KindInt}}, columnar.Config{})
	rows := make([]types.Row, len(keys))
	for i, k := range keys {
		rows[i] = types.Row{types.NewInt(k)}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// nthKey is the n-th key of keys in the order desc gives (1-based).
func nthKey(keys []int64, n int, desc bool) int64 {
	s := slices.Clone(keys)
	slices.Sort(s)
	if desc {
		slices.Reverse(s)
	}
	return s[n-1]
}

// TestSortPublishesItsCutoff: a bounded sort over a scan it publishes
// into, scrambled unique keys both ways, trims after each batch that
// leaves 2·Bound rows buffered. Replaying what the scan handed up — a
// row sorting after the cutoff is not buffered, a trim keeps Bound — the
// bound holds nothing before the first trim and, from the batch that
// brings the rows taken to 2·Bound, exactly the Bound-th key of all rows
// taken so far; after the last batch, the Bound-th of all of them.
func TestSortPublishesItsCutoff(t *testing.T) {
	const n = 24 * ChunkSize
	rng := rand.New(rand.NewSource(60))
	keys := make([]int64, n)
	for i, p := range rng.Perm(n) {
		keys[i] = int64(p)
	}
	tbl := keyTable(t, keys)
	for _, desc := range []bool{false, true} {
		for _, bound := range []int{1, 100, 300, 600} {
			label := fmt.Sprintf("desc %v, bound %d", desc, bound)
			op := encoding.OpLE
			if desc {
				op = encoding.OpGE
			}
			scan := scanDop(tbl, 1)
			scan.Bound, scan.BoundAfter = columnar.NewBound(0, op), 2*bound
			held, cut, trims := 0, int64(-1), 0
			before := func(k int64) bool { return cut < 0 || desc && k > cut || !desc && k < cut }
			tap := &tapOp[int64]{Operator: scan, key: types.Value.Int}
			tap.check = func(seen, last []int64) {
				for _, k := range last { // replay the batch the sort took last
					held += btoi(before(k))
				}
				if held >= 2*bound {
					held, cut, trims = bound, nthKey(seen, bound, desc), trims+1
				}
				v, ok := scan.Bound.Value()
				switch {
				case cut < 0 && ok:
					t.Fatalf("%s: published %v before the first trim, after %d rows", label, v, len(seen))
				case cut >= 0 && (!ok || v.Int() != cut):
					t.Fatalf("%s: after %d rows published %v (%v), want the %d-th key %d", label, len(seen), v, ok, bound, cut)
				}
			}
			sort := &SortOp{Child: tap, Keys: []SortKey{{Expr: ColRef(0), Desc: desc}}, Bound: bound, Publish: scan.Bound}
			out, err := Drain(&LimitOp{Child: sort, Limit: int64(bound)})
			if err != nil || len(out) != bound {
				t.Fatalf("%s: %d rows, %v", label, len(out), err)
			}
			if trims == 0 {
				t.Fatalf("%s: no trim while %d rows were taken", label, len(tap.keys))
			}
			if v := mustValue(t, scan.Bound); v.Int() != nthKey(tap.keys, bound, desc) || out[bound-1][0].Int() != v.Int() {
				t.Fatalf("%s: the last cutoff published %v, the %d-th row is %v", label, v, bound, out[bound-1][0])
			}
			t.Logf("%s: %d rows taken, %d trims", label, len(tap.keys), trims)
		}
	}
}

// TestSortDescLimitOneTrimsABatch: ORDER BY k DESC LIMIT 1 over ascending
// keys brings every row of every batch before the cutoff. The sort takes
// each batch whole and trims once after it, so after every batch it holds
// one row and has published the batch's last key, and its SORTHEAP peak
// stays under what buffering 2·Bound rows and one batch charges.
func TestSortDescLimitOneTrimsABatch(t *testing.T) {
	const n = 64 * ChunkSize
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	vals := NewValues(types.Schema{{Name: "k", Kind: types.KindInt}}, rows)
	broker := mem.NewBroker(1<<30, 1<<30, t.TempDir())
	defer broker.Close()
	bound := columnar.NewBound(0, encoding.OpGE)
	var sort *SortOp
	tap := &tapOp[int64]{Operator: vals, key: types.Value.Int}
	tap.check = func(seen, last []int64) {
		if len(last) == 0 {
			return
		}
		if v, ok := bound.Value(); !ok || v.Int() != last[len(last)-1] || sort.rows.n != 1 {
			t.Fatalf("after %d rows: %d rows buffered, published %v (%v), want 1 and %d", len(seen), sort.rows.n, v, ok, last[len(last)-1])
		}
	}
	sort = &SortOp{Child: tap, Keys: []SortKey{{Expr: ColRef(0), Desc: true}}, Gov: &mem.Governor{Broker: broker}, Bound: 1, Publish: bound}
	out, err := Drain(&LimitOp{Child: sort, Limit: 1})
	if err != nil || len(out) != 1 || out[0][0].Int() != n-1 {
		t.Fatalf("%v, %v", out, err)
	}
	heaps, _ := broker.Stats()
	peak := heaps[mem.SortHeap].PeakBytes
	// What typedRows charges to buffer 2·Bound rows and one batch.
	res := broker.Reserve(mem.SortHeap, 0)
	held := typedRows{res: res, perRow: keyRowBytes(1)}
	held.add([]*vec.Vector{vals.Data[0].Col(0)}, nil, 0, ChunkSize)
	held.add([]*vec.Vector{vals.Data[1].Col(0)}, nil, 0, 2)
	if most := res.Used(); peak > most {
		t.Errorf("SORTHEAP peak %d B, more than the %d B of 2·Bound rows and one batch", peak, most)
	}
	res.Close()
}

// BenchmarkSortDescLimitOne times ORDER BY k DESC LIMIT 1 over 2^20
// ascending keys of a columnar scan it publishes into: every row sorts
// before the cutoff, so every batch is taken whole and trimmed.
func BenchmarkSortDescLimitOne(b *testing.B) {
	keys := make([]int64, 1<<20)
	for i := range keys {
		keys[i] = int64(i)
	}
	tbl := keyTable(b, keys)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		scan := scanDop(tbl, 1)
		scan.Bound, scan.BoundAfter = columnar.NewBound(0, encoding.OpGE), 2
		sort := &SortOp{Child: scan, Keys: []SortKey{{Expr: ColRef(0), Desc: true}}, Bound: 1, Publish: scan.Bound}
		out, err := Drain(&LimitOp{Child: sort, Limit: 1})
		if err != nil || len(out) != 1 {
			b.Fatal(len(out), err)
		}
	}
}
