package vec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"dashdb/internal/encoding"
	"dashdb/internal/types"
)

// sameValue reports whether two values are the same cell: kind, NULL and
// exact bits.
func sameValue(a, b types.Value) bool {
	return a.Kind() == b.Kind() && a.IsNull() == b.IsNull() && a.Int() == b.Int() && a.Str() == b.Str() &&
		math.Float64bits(a.Float()) == math.Float64bits(b.Float())
}

// liveRows boxes the live rows of bs in order: what a block of them holds.
func liveRows(bs []*Batch) []types.Row {
	var rows []types.Row
	for _, b := range bs {
		rows = b.AppendRows(rows)
	}
	return rows
}

// randValue draws a non-NULL value of kind k, corners included.
func randValue(rng *rand.Rand, k types.Kind) types.Value {
	switch k {
	case types.KindBool:
		return types.NewBool(rng.Intn(2) == 0)
	case types.KindInt:
		return types.NewInt([]int64{0, -1, 1, math.MaxInt64, math.MinInt64, rng.Int63n(1000) - 500}[rng.Intn(6)])
	case types.KindFloat:
		return types.NewFloat([]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), rng.NormFloat64()}[rng.Intn(6)])
	case types.KindString:
		return types.NewString([]string{"", "north", "south", "日本語", fmt.Sprint(rng.Intn(50))}[rng.Intn(5)])
	case types.KindDate:
		return types.NewDate(rng.Int63n(40000) - 20000)
	default:
		return types.NewTimestamp(rng.Int63())
	}
}

var laneKinds = []types.Kind{types.KindBool, types.KindInt, types.KindFloat, types.KindString, types.KindDate, types.KindTimestamp}

// randColumn draws a column of n rows in one of the forms a batch column
// takes: typed (possibly Const), dictionary-coded, or boxed with several
// kinds and untyped NULLs.
func randColumn(rng *rand.Rand, kind types.Kind, n int) *Vector {
	nulls := rng.Intn(3) == 0
	val := func() types.Value {
		if nulls && rng.Intn(4) == 0 {
			return types.NullOf(kind)
		}
		return randValue(rng, kind)
	}
	switch rng.Intn(5) {
	case 0: // Const
		return NewConst(val())
	case 1: // dictionary codes
		d := encoding.NewDict(kind)
		vals := make([]types.Value, n)
		for i := range vals {
			if vals[i] = val(); !vals[i].IsNull() && !(kind == types.KindFloat && math.IsNaN(vals[i].Float())) {
				d.Encode(vals[i])
			} else {
				vals[i] = types.NullOf(kind)
			}
		}
		v := NewCodes(kind, n, d)
		for i, x := range vals {
			if x.IsNull() {
				v.SetNull(i)
			} else {
				v.Codes[i] = d.Encode(x)
			}
		}
		return v
	case 2: // boxed, mixed kinds and untyped NULLs
		v := New(types.KindNull, n)
		for i := range v.Any {
			v.Any[i] = []types.Value{types.Null, types.NullOf(kind), randValue(rng, laneKinds[rng.Intn(len(laneKinds))])}[rng.Intn(3)]
		}
		return v
	default: // typed
		v := New(kind, n)
		for i := 0; i < n; i++ {
			v.Set(i, val())
		}
		return v
	}
}

// randBatch draws a batch of width columns: column-built or row-built,
// dense or under a selection vector.
func randBatch(rng *rand.Rand, kinds []types.Kind, n int) *Batch {
	cols := make([]*Vector, len(kinds))
	for j, k := range kinds {
		cols[j] = randColumn(rng, k, n)
	}
	b := NewBatch(nil, cols, n)
	if rng.Intn(4) == 0 { // the same values, row-built
		b = FromRows(nil, b.AppendRows(nil))
	}
	if rng.Intn(2) == 0 {
		var sel []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				sel = append(sel, i)
			}
		}
		b = b.WithSel(sel)
	}
	return b
}

// TestBlockRoundTrip: a block decodes to the live rows of the batches it
// was written from, in order, every cell the same — over every kind,
// typed NULLs, NaN, ±0 and empty strings, in every form a column takes,
// under selection vectors, several batches to a block, and no rows at all.
func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 400; iter++ {
		kinds := make([]types.Kind, rng.Intn(5))
		for j := range kinds {
			kinds[j] = laneKinds[rng.Intn(len(laneKinds))]
		}
		bs := make([]*Batch, 1+rng.Intn(3))
		for k := range bs {
			bs[k] = randBatch(rng, kinds, []int{0, 1, 7, 64, 300}[rng.Intn(5)])
		}
		want := liveRows(bs)
		block, err := AppendBlock([]byte("prefix"), bs...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(block, []byte("prefix")) {
			t.Fatal("AppendBlock overwrote dst")
		}
		got, err := DecodeBlock(block[len("prefix"):])
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		// A row-built batch of no rows and no schema has no columns either.
		if got.Rows() != len(want) || (len(want) > 0 && got.NumCols() != len(kinds)) {
			t.Fatalf("iteration %d: %d rows of %d columns, want %d of %d", iter, got.Rows(), got.NumCols(), len(want), len(kinds))
		}
		for i, row := range want {
			for j, w := range row {
				if g := got.Col(j).Get(i); !sameValue(g, w) {
					t.Fatalf("iteration %d: row %d column %d is %v %v, want %v %v", iter, i, j, g.Kind(), g, w.Kind(), w)
				}
			}
		}
	}
}

// TestBlockLanes: a column of one kind takes that kind's lane, whatever
// form its vectors have; a VARCHAR lane writes each distinct string once,
// and its decoded strings share one backing string; only a column of
// several kinds is cells.
func TestBlockLanes(t *testing.T) {
	typed := New(types.KindString, 4)
	for i, s := range []string{"north", "south", "north", "north"} {
		typed.Set(i, types.NewString(s))
	}
	rows := FromRows(nil, []types.Row{{types.NewString("north"), types.NewInt(1)}, {types.NullOf(types.KindString), types.NewFloat(2)}})
	block, err := AppendBlock(nil, NewBatch(nil, []*Vector{typed, NewConst(types.NewInt(3))}, 4), rows)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(block, []byte("north")); n != 1 {
		t.Fatalf("%d copies of a repeated string", n)
	}
	b, err := DecodeBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if s := b.Col(0); s.Str == nil || s.Kind != types.KindString || !s.IsNull(5) {
		t.Fatalf("VARCHAR column decoded as %+v", s)
	}
	s := b.Col(0).Str
	north, south := unsafe.StringData(s[0]), unsafe.StringData(s[1])
	if unsafe.StringData(s[2]) != north || south != (*byte)(unsafe.Add(unsafe.Pointer(north), len("north"))) {
		t.Fatal("decoded strings do not share the dictionary's backing")
	}
	if v := b.Col(1); v.Any == nil || v.Get(5).Kind() != types.KindFloat || v.Get(0).Kind() != types.KindInt {
		t.Fatalf("mixed column decoded as %+v", v)
	}
}
