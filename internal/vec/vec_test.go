package vec

import (
	"reflect"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/types"
)

// testBatch is a three-column, five-row batch: a typed int vector with one
// NULL, a dictionary-encoded string vector with one NULL, and a boxed
// vector holding a NULL value.
func testBatch(t *testing.T) (*Batch, *encoding.Dict) {
	t.Helper()
	ints := New(types.KindInt, 5)
	for i := 0; i < 5; i++ {
		ints.Set(i, types.NewInt(int64(10*i)))
	}
	ints.SetNull(3)

	dict := encoding.NewDict(types.KindString)
	codes := NewCodes(types.KindString, 5, dict) // snapshot taken before the values exist
	if len(codes.Dom()) != 0 {
		t.Fatalf("empty dictionary snapshot has %d values", len(codes.Dom()))
	}
	words := []string{"b", "a", "b", "c", "a"}
	for _, w := range words {
		dict.Encode(types.NewString(w))
	}
	codes = NewCodes(types.KindString, 5, dict)
	for i, w := range words {
		c, ok := dict.EncodeExisting(types.NewString(w))
		if !ok {
			t.Fatalf("%q missing from dictionary", w)
		}
		codes.Codes[i] = c
	}
	codes.SetNull(1)

	boxed := New(types.KindNull, 5)
	for i := 0; i < 5; i++ {
		boxed.Set(i, types.NewFloat(float64(i)+0.5))
	}
	boxed.Set(4, types.Null)

	sch := types.Schema{{Name: "i", Kind: types.KindInt}, {Name: "s", Kind: types.KindString}, {Name: "x"}}
	return &Batch{Schema: sch, Cols: []*Vector{ints, codes, boxed}, N: 5}, dict
}

func TestBatchIdxRowsWithSel(t *testing.T) {
	b, _ := testBatch(t)
	if b.Rows() != 5 || !reflect.DeepEqual(b.Idx(), []int{0, 1, 2, 3, 4}) {
		t.Fatalf("dense batch: rows %d idx %v", b.Rows(), b.Idx())
	}
	// The dense index is cached, and rebuilt when N changes.
	if first, again := b.Idx(), b.Idx(); &first[0] != &again[0] {
		t.Fatal("dense index not cached")
	}
	b.N = 3
	if !reflect.DeepEqual(b.Idx(), []int{0, 1, 2}) {
		t.Fatalf("dense index after N changed: %v", b.Idx())
	}
	b.N = 5

	sel := b.WithSel([]int{1, 4})
	if sel.Rows() != 2 || !reflect.DeepEqual(sel.Idx(), []int{1, 4}) {
		t.Fatalf("selected batch: rows %d idx %v", sel.Rows(), sel.Idx())
	}
	if b.Sel != nil || b.Rows() != 5 {
		t.Fatal("WithSel changed the original batch")
	}
	if sel.Cols[0] != b.Cols[0] {
		t.Fatal("WithSel must share the column vectors")
	}
	// An empty selection is a selection, not "all rows".
	if empty := b.WithSel([]int{}); empty.Rows() != 0 || len(empty.Idx()) != 0 {
		t.Fatalf("empty selection: rows %d idx %v", empty.Rows(), empty.Idx())
	}
}

func TestBatchRow(t *testing.T) {
	b, _ := testBatch(t)
	want := []types.Row{
		{types.NewInt(0), types.NewString("b"), types.NewFloat(0.5)},
		{types.NewInt(10), types.NullOf(types.KindString), types.NewFloat(1.5)},
		{types.NewInt(20), types.NewString("b"), types.NewFloat(2.5)},
		{types.NullOf(types.KindInt), types.NewString("c"), types.NewFloat(3.5)},
		{types.NewInt(40), types.NewString("a"), types.Null},
	}
	for i, w := range want {
		got := b.Row(i)
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("row %d: got %v, want %v", i, got, w)
		}
		got[0] = types.NewInt(-1) // rows are fresh: writing one must not reach the batch
		if i != 3 && b.Cols[0].Get(i).Int() == -1 {
			t.Fatal("Row aliases the batch")
		}
	}
}

func TestVectorGetIsNull(t *testing.T) {
	b, _ := testBatch(t)
	ints, codes, boxed := b.Cols[0], b.Cols[1], b.Cols[2]
	if !ints.IsNull(3) || ints.IsNull(2) || ints.Get(3).Kind() != types.KindInt || !ints.Get(3).IsNull() {
		t.Fatalf("typed NULL: %v", ints.Get(3))
	}
	if !codes.IsNull(1) || codes.IsNull(0) || !codes.Get(1).IsNull() || codes.Get(3).Str() != "c" {
		t.Fatalf("encoded: %v %v", codes.Get(1), codes.Get(3))
	}
	if !boxed.IsNull(4) || boxed.IsNull(0) || boxed.Get(0).Float() != 0.5 {
		t.Fatalf("boxed: %v %v", boxed.Get(4), boxed.Get(0))
	}
	// Every typed payload boxes back into its own kind.
	for _, v := range []types.Value{
		types.NewBool(true), types.NewInt(-7), types.NewFloat(2.25), types.NewString("x"),
		types.NewDate(17000), types.NewTimestamp(1_500_000),
	} {
		vec := New(v.Kind(), 2)
		vec.Set(1, v)
		if got := vec.Get(1); !reflect.DeepEqual(got, v) {
			t.Fatalf("kind %v: got %v, want %v", v.Kind(), got, v)
		}
		// A Const vector answers every position from payload 0.
		c := NewConst(v)
		if got := c.Get(123); !reflect.DeepEqual(got, v) || c.IsNull(123) || c.Len() != 1 {
			t.Fatalf("const kind %v: got %v", v.Kind(), got)
		}
	}
	if n := NewConst(types.NullOf(types.KindInt)); !n.IsNull(9) || !n.Get(9).IsNull() {
		t.Fatal("NULL constant")
	}
}

func TestVectorEncodedDomMaterialize(t *testing.T) {
	b, dict := testBatch(t)
	ints, codes := b.Cols[0], b.Cols[1]
	if ints.Encoded() || ints.Dom() != nil {
		t.Fatal("a value vector is not encoded")
	}
	if !codes.Encoded() || codes.Dict != dict || codes.Len() != 5 {
		t.Fatal("code vector lost its dictionary")
	}
	dom := codes.Dom()
	for _, i := range []int{0, 2, 3, 4} {
		if got := dom[codes.Codes[i]]; !reflect.DeepEqual(got, codes.Get(i)) {
			t.Fatalf("Dom()[Codes[%d]] = %v, Get = %v", i, got, codes.Get(i))
		}
	}
	// The snapshot is fixed at construction: later dictionary growth does
	// not reach it.
	dict.Encode(types.NewString("zzz"))
	if len(codes.Dom()) != len(dom) {
		t.Fatal("Dom grew with the dictionary")
	}

	before := b.Row(0)
	view := b.WithSel([]int{0, 2})
	codes.Materialize()
	if codes.Encoded() || codes.Dict != nil || codes.Dom() != nil || codes.Codes != nil {
		t.Fatal("Materialize left the compressed payload behind")
	}
	if !reflect.DeepEqual(codes.Str, []string{"b", "", "b", "c", "a"}) || !codes.IsNull(1) {
		t.Fatalf("materialized payload %q, null(1)=%v", codes.Str, codes.IsNull(1))
	}
	if !reflect.DeepEqual(b.Row(0), before) || view.Cols[1].Encoded() {
		t.Fatal("materialization must be visible, unchanged in value, through every view")
	}
	codes.Materialize() // no-op on a value vector
	if codes.Get(3).Str() != "c" {
		t.Fatal("second Materialize changed the vector")
	}

	// Non-string kinds decode into their typed payloads, NULLs skipped.
	id := encoding.NewDict(types.KindInt)
	id.Encode(types.NewInt(7))
	id.Encode(types.NewInt(9))
	iv := NewCodes(types.KindInt, 3, id)
	iv.Codes[0], iv.Codes[2] = 1, 0
	iv.SetNull(1)
	iv.Materialize()
	if !reflect.DeepEqual(iv.I64, []int64{9, 0, 7}) || !iv.IsNull(1) {
		t.Fatalf("int decode: %v", iv.I64)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set on an encoded vector must panic")
		}
	}()
	NewCodes(types.KindInt, 1, id).Set(0, types.NewInt(1))
}
