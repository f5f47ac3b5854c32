package vec

import (
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/types"
)

// pooledBatch is an owned batch of n positions over three vectors, pooled
// when n is at least poolMin: ints 0..n-1, floats i/2 and dictionary codes
// over {"x", "y"}.
func pooledBatch(n int) *Batch {
	dict := encoding.NewDict(types.KindString)
	dict.Encode(types.NewString("x"))
	dict.Encode(types.NewString("y"))
	ints, floats := NewPooled(types.KindInt, n), NewPooled(types.KindFloat, n)
	codes := NewPooledCodes(types.KindString, n, dict)
	for i := 0; i < n; i++ {
		ints.I64[i], floats.F64[i], codes.Codes[i] = int64(i), float64(i)/2, uint64(i%2)
	}
	schema := types.Schema{{Name: "i", Kind: types.KindInt}, {Name: "f", Kind: types.KindFloat}, {Name: "s", Kind: types.KindString}}
	b := NewBatch(schema, []*Vector{ints, floats, codes}, n)
	b.Own()
	return b
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestRecycleReleaseNilsPayloads: Release leaves every vector the batch
// owned without a payload, so a read panics instead of seeing a recycled
// array, and a second Release is a no-op.
func TestRecycleReleaseNilsPayloads(t *testing.T) {
	if v := NewPooled(types.KindInt, poolMin-1); v.pooled {
		t.Fatalf("a %d-position vector is pooled: the pools hold stride-long arrays", poolMin-1)
	}
	b := pooledBatch(poolMin)
	b.Col(2).Materialize() // a pooled code vector decodes into a pooled payload
	if got := b.Row(7); got[0].Int() != 7 || got[1].Float() != 3.5 || got[2].Str() != "y" {
		t.Fatalf("row 7 before release: %v", got)
	}
	if !(b.owns != nil) {
		t.Fatal("an owned batch reports unowned")
	}
	b.Release()
	if b.owns != nil {
		t.Fatal("a released batch still owns its vectors")
	}
	for j := 0; j < b.NumCols(); j++ {
		v := b.Col(j)
		if v.I64 != nil || v.F64 != nil || v.Str != nil || v.Any != nil || v.Codes != nil || v.Nulls != nil {
			t.Fatalf("column %d keeps a payload after Release: %+v", j, v)
		}
		if !panics(func() { v.Get(7) }) {
			t.Fatalf("column %d: a read after Release did not panic", j)
		}
	}
	if !panics(func() { b.Row(0) }) {
		t.Fatal("Row after Release did not panic")
	}
	b.Release()
}

// TestRecycleCopiesAreUnowned: a WithSel copy shares the original's
// vectors but owns none of them, so releasing the copy leaves the original
// readable; Disown does the same for a holder of the batch itself.
func TestRecycleCopiesAreUnowned(t *testing.T) {
	b := pooledBatch(PoolCap)
	view := b.WithSel([]int{1, 3})
	if view.owns != nil {
		t.Fatal("a WithSel copy is owned")
	}
	view.Release()
	if got := b.Row(3)[0].Int(); got != 3 {
		t.Fatalf("the original after its copy's Release reads %d, want 3", got)
	}
	b.Disown()
	b.Release()
	if got := view.Row(3)[1].Float(); got != 1.5 {
		t.Fatalf("a disowned batch's view after Release reads %v, want 1.5", got)
	}

	// A projection's output adopts its input: releasing the output returns
	// the input's vectors, the ones it does not show too.
	in := pooledBatch(PoolCap)
	ints, floats := in.Col(0), in.Col(1)
	out := NewBatch(in.Schema[:1], []*Vector{ints}, in.N)
	out.Adopt(in)
	if (in.owns != nil) || !(out.owns != nil) {
		t.Fatalf("after Adopt: input owned %v, output owned %v", (in.owns != nil), (out.owns != nil))
	}
	out.Release()
	if ints.I64 != nil || floats.F64 != nil {
		t.Fatal("releasing the adopting output kept the input's payloads")
	}
}

// TestRecycleSharedColumnOnce: a batch whose two columns are one vector
// (SELECT a, a) puts that payload in the pool once, so two later batches
// never share one array.
func TestRecycleSharedColumnOnce(t *testing.T) {
	a := NewPooled(types.KindInt, PoolCap)
	b := NewBatch(types.Schema{{Name: "a", Kind: types.KindInt}, {Name: "a", Kind: types.KindInt}}, []*Vector{a, a}, PoolCap)
	b.Own()
	b.Release()
	x, y := NewPooled(types.KindInt, PoolCap), NewPooled(types.KindInt, PoolCap)
	if &x.I64[0] == &y.I64[0] {
		t.Fatal("two vectors drawn after one Release share a payload: it was pooled twice")
	}
}

// TestAppendRowsSlab: a column-built batch's rows are boxed into one slab,
// each capped at its width, so growing one row never writes the next, and
// boxing a 1 024-row batch costs a fixed number of allocations.
func TestAppendRowsSlab(t *testing.T) {
	b := pooledBatch(PoolCap)
	rows := b.AppendRows(nil)
	if len(rows) != PoolCap {
		t.Fatalf("%d rows, want %d", len(rows), PoolCap)
	}
	next := append(types.Row(nil), rows[1]...)
	grown := append(rows[0], types.NewInt(-1))
	if len(grown) != 4 || rows[1][0].Int() != next[0].Int() || rows[1][1].Float() != next[1].Float() || rows[1][2].Str() != next[2].Str() {
		t.Fatalf("appending to row 0 changed row 1: %v, was %v", rows[1], next)
	}
	b.Sel = []int{5, 9}
	if got := b.AppendRows(nil); len(got) != 2 || got[1][0].Int() != 9 || got[0][2].Str() != "y" {
		t.Fatalf("rows under a selection: %v", got)
	}
	b.Sel = nil

	dst := make([]types.Row, 0, PoolCap)
	allocs := testing.AllocsPerRun(20, func() { dst = b.AppendRows(dst[:0]) })
	if allocs > 1 {
		t.Fatalf("AppendRows of %d rows into room for them made %v allocations, want 1 (the slab)", PoolCap, allocs)
	}
}
