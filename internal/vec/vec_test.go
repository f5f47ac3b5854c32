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
		codes.Codes[i] = dict.Encode(types.NewString(w)) // already in the domain: its code
	}
	codes.SetNull(1)

	boxed := New(types.KindNull, 5)
	for i := 0; i < 5; i++ {
		boxed.Set(i, types.NewFloat(float64(i)+0.5))
	}
	boxed.Set(4, types.Null)

	sch := types.Schema{{Name: "i", Kind: types.KindInt}, {Name: "s", Kind: types.KindString}, {Name: "x"}}
	return NewBatch(sch, []*Vector{ints, codes, boxed}, 5), dict
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
	if sel.Col(0) != b.Col(0) {
		t.Fatal("WithSel must share the column vectors")
	}
	// An empty selection is a selection, not "all rows".
	if empty := b.WithSel([]int{}); empty.Rows() != 0 || len(empty.Idx()) != 0 {
		t.Fatalf("empty selection: rows %d idx %v", empty.Rows(), empty.Idx())
	}
}

// TestBatchRow: on a column-built batch AppendRows boxes every position into
// a fresh row, typed NULLs intact.
func TestBatchRow(t *testing.T) {
	b, _ := testBatch(t)
	want := []types.Row{
		{types.NewInt(0), types.NewString("b"), types.NewFloat(0.5)},
		{types.NewInt(10), types.NullOf(types.KindString), types.NewFloat(1.5)},
		{types.NewInt(20), types.NewString("b"), types.NewFloat(2.5)},
		{types.NullOf(types.KindInt), types.NewString("c"), types.NewFloat(3.5)},
		{types.NewInt(40), types.NewString("a"), types.Null},
	}
	got := b.AppendRows(nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows: got %v, want %v", got, want)
	}
	got[0][0] = types.NewInt(-1) // rows are fresh: writing one must not reach the batch
	if b.Col(0).Get(0).Int() == -1 {
		t.Fatal("AppendRows aliases the batch")
	}
}

// TestBatchRowIntoAndDecode: on a column-built batch AppendRows boxes only
// the live positions of a selection, into a caller's slice it grows, and
// Decode materializes every encoded column without changing a value.
func TestBatchRowIntoAndDecode(t *testing.T) {
	b, _ := testBatch(t)
	all := b.AppendRows(nil)
	dst := make([]types.Row, 1, 4)
	dst[0] = all[4]
	rows := b.WithSel([]int{1, 3}).AppendRows(dst)
	if &rows[0] != &dst[0] || !reflect.DeepEqual(rows, []types.Row{all[4], all[1], all[3]}) {
		t.Fatalf("AppendRows under a selection: %v", rows)
	}
	b.Decode()
	if b.Col(1).Encoded() || !reflect.DeepEqual(b.AppendRows(nil), all) {
		t.Fatal("Decode must materialize encoded columns without changing a value")
	}
}

// TestFromRows: a batch built from rows is columns. A column whose values,
// NULLs included, share one lane kind is a typed lane of it, NULLs in its
// bitmap; any other column (mixed kinds, an untyped NULL) is boxed. Every
// value reads back as it went in, under any selection, and the batch's
// block is the bytes the same values make as boxed columns.
func TestFromRows(t *testing.T) {
	lanes := []types.Row{
		{types.NewInt(1), types.NewFloat(2.5), types.NewString("a"), types.NewDate(17000), types.NewTimestamp(1_500_000), types.NewBool(true)},
		{types.NullOf(types.KindInt), types.NewFloat(-1), types.NullOf(types.KindString), types.NullOf(types.KindDate), types.NewTimestamp(7), types.NullOf(types.KindBool)},
		{types.NewInt(-3), types.NullOf(types.KindFloat), types.NewString(""), types.NewDate(-2), types.NullOf(types.KindTimestamp), types.NewBool(false)},
	}
	boxed := []types.Row{
		{types.NewInt(1), types.Null, types.NullOf(types.KindInt)},
		{types.NewFloat(2.5), types.NewInt(4), types.Null},
		{types.NullOf(types.KindInt), types.NewInt(5), types.NullOf(types.KindString)},
	}
	for name, tc := range map[string]struct {
		rows  []types.Row
		kinds []types.Kind // each column's vector kind; KindNull is boxed
	}{
		"one kind a column": {lanes, []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindDate, types.KindTimestamp, types.KindBool}},
		"mixed kinds":       {boxed, []types.Kind{types.KindNull, types.KindNull, types.KindNull}},
	} {
		b := FromRows(nil, tc.rows)
		if b.N != 3 || b.Rows() != 3 || b.NumCols() != len(tc.kinds) {
			t.Fatalf("%s: N %d rows %d cols %d", name, b.N, b.Rows(), b.NumCols())
		}
		for j, kind := range tc.kinds {
			v := b.Col(j)
			if v.Kind != kind || (kind == types.KindNull) != (v.Any != nil) || v.Len() != 3 {
				t.Fatalf("%s: column %d is %v (boxed %v), want %v", name, j, v.Kind, v.Any != nil, kind)
			}
			for i, r := range tc.rows {
				if got := v.Get(i); !reflect.DeepEqual(got, r[j]) || v.IsNull(i) != r[j].IsNull() {
					t.Fatalf("%s: Col(%d).Get(%d) = %v, row holds %v", name, j, i, got, r[j])
				}
			}
		}
		if got := b.WithSel([]int{0, 2}).AppendRows(nil); !reflect.DeepEqual(got, []types.Row{tc.rows[0], tc.rows[2]}) {
			t.Fatalf("%s: AppendRows under a selection: %v", name, got)
		}
		cols := make([]*Vector, len(tc.kinds))
		for j := range cols {
			cols[j] = New(types.KindNull, len(tc.rows))
			for i, r := range tc.rows {
				cols[j].Any[i] = r[j]
			}
		}
		want, err := AppendBlock(nil, NewBatch(nil, cols, len(tc.rows)))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := AppendBlock(nil, b); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: block %x, boxed columns make %x (%v)", name, got, want, err)
		}
	}
	// No rows: the width comes from the schema.
	if e := FromRows(types.Schema{{Name: "x"}}, nil); e.N != 0 || e.NumCols() != 1 || len(e.AppendRows(nil)) != 0 || e.Col(0).Len() != 0 {
		t.Fatal("empty batch from rows")
	}
}

// TestWithCol: WithCol replaces one column of an unowned copy and keeps
// the other columns, the selection and the original as they were.
func TestWithCol(t *testing.T) {
	b, _ := testBatch(t)
	b.Own()
	view := b.WithSel([]int{1, 3, 4}).WithCol(0, NewConst(types.NewInt(9)))
	if b.Col(0).Const || view.Col(1) != b.Col(1) || !reflect.DeepEqual(view.Sel, []int{1, 3, 4}) || view.owns != nil {
		t.Fatal("WithCol must replace one column of an unowned copy and keep the rest and the selection")
	}
	rows := view.AppendRows(nil)
	if len(rows) != 3 || rows[2][0].Int() != 9 || !reflect.DeepEqual(rows[1][1:], b.WithSel([]int{3}).AppendRows(nil)[0][1:]) {
		t.Fatalf("rows through WithCol: %v", rows)
	}
}

func TestVectorGetIsNull(t *testing.T) {
	b, _ := testBatch(t)
	ints, codes, boxed := b.Col(0), b.Col(1), b.Col(2)
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
	ints, codes := b.Col(0), b.Col(1)
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

	before := b.AppendRows(nil)[0]
	view := b.WithSel([]int{0, 2})
	codes.Materialize()
	if codes.Encoded() || codes.Dict != nil || codes.Dom() != nil || codes.Codes != nil {
		t.Fatal("Materialize left the compressed payload behind")
	}
	if !reflect.DeepEqual(codes.Str, []string{"b", "", "b", "c", "a"}) || !codes.IsNull(1) {
		t.Fatalf("materialized payload %q, null(1)=%v", codes.Str, codes.IsNull(1))
	}
	if !reflect.DeepEqual(b.AppendRows(nil)[0], before) || view.Col(1).Encoded() {
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
