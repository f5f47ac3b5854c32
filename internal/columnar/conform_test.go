package columnar

import (
	"fmt"
	"reflect"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// conformSchema is the schema the Conform tests and benchmark conform to.
var conformSchema = types.Schema{
	{Name: "a", Kind: types.KindInt, Nullable: true},
	{Name: "f", Kind: types.KindFloat},
	{Name: "s", Kind: types.KindString, Nullable: true},
	{Name: "d", Kind: types.KindDate, Nullable: true},
}

// conformSources is a batch of every source form Conform meets, n rows
// each: typed lanes with NULLs, a batch under a selection, dictionary
// codes, boxed cells of other kinds, constants (a NULL one too).
func conformSources(n int) map[string][]*vec.Batch {
	lane := func(k types.Kind) *vec.Vector {
		v := vec.New(k, n)
		for i := range n {
			switch {
			case i%9 == 4 && k != types.KindFloat:
				v.SetNull(i)
			case k == types.KindFloat:
				v.F64[i] = float64(i) / 4
			case k == types.KindString:
				v.Str[i] = fmt.Sprintf("s%03d", i%40)
			default:
				v.I64[i] = int64(i * 3)
			}
		}
		return v
	}
	lanes := func() *vec.Batch {
		return vec.NewBatch(conformSchema, []*vec.Vector{lane(types.KindInt), lane(types.KindFloat), lane(types.KindString), lane(types.KindDate)}, n)
	}
	vals := make([]types.Value, 40)
	for i := range vals {
		vals[i] = types.NewString(fmt.Sprintf("s%03d", i))
	}
	dict := encoding.BuildDict(types.KindString, vals)
	codes := vec.NewCodes(types.KindString, n, dict)
	for i := range n {
		if i%7 == 3 {
			codes.SetNull(i)
		} else {
			codes.Codes[i] = dict.Encode(vals[i%40])
		}
	}
	boxed := vec.New(types.KindNull, n) // a DOUBLE column given BIGINTs and NULLs
	for i := range n {
		boxed.Any[i] = types.NewInt(int64(i))
	}
	boxed.Any[1] = types.NewFloat(0.5)
	sel := make([]int, 0, n)
	for i := 0; i < n; i += 3 {
		sel = append(sel, i)
	}
	return map[string][]*vec.Batch{
		"lanes":     {lanes()},
		"selection": {lanes().WithSel(sel)},
		"several":   {lanes(), lanes().WithSel(sel), lanes()},
		"codes":     {lanes().WithCol(2, codes)},
		"boxed":     {lanes().WithCol(0, boxed).WithCol(1, boxed)},
		"constant":  {lanes().WithCol(0, vec.NewConst(types.NewInt(5))).WithCol(2, vec.NewConst(types.NullOf(types.KindString))).WithCol(1, vec.NewConst(types.NewFloat(2)))},
	}
}

// conformPerValue is Conform's copy a value at a time: every cell boxed
// with Get, checked with Schema.Check and stored with Set.
func conformPerValue(schema types.Schema, bs ...*vec.Batch) (*vec.Batch, error) {
	n := 0
	for _, b := range bs {
		n += b.Rows()
	}
	lanes := make([]*vec.Vector, len(schema))
	for j, col := range schema {
		lanes[j] = vec.New(col.Kind, n)
		at := 0
		for _, b := range bs {
			for _, i := range b.Idx() {
				x, err := schema.Check(j, b.Col(j).Get(i))
				if err != nil {
					return nil, err
				}
				lanes[j].Set(at, x)
				at++
			}
		}
	}
	return vec.NewBatch(schema, lanes, n), nil
}

// TestConformMatchesPerValue: Conform's typed copy makes exactly the lanes
// — payloads, zeros under NULLs, NULL bits — that a copy a value at a time
// makes, from every source form.
func TestConformMatchesPerValue(t *testing.T) {
	for name, bs := range conformSources(300) {
		got, err := Conform(conformSchema, bs...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := conformPerValue(conformSchema, bs...)
		if err != nil {
			t.Fatal(err)
		}
		if got.N != want.N {
			t.Fatalf("%s: %d rows, want %d", name, got.N, want.N)
		}
		for j := range conformSchema {
			g, w := got.Col(j), want.Col(j)
			if g.Kind != w.Kind || !reflect.DeepEqual(g.I64, w.I64) || !reflect.DeepEqual(g.F64, w.F64) || !reflect.DeepEqual(g.Str, w.Str) || g.Any != nil {
				t.Errorf("%s column %d: %+v, want %+v", name, j, g, w)
			}
			for i := range got.N {
				if g.IsNull(i) != w.IsNull(i) {
					t.Errorf("%s column %d row %d: NULL %v, want %v", name, j, i, g.IsNull(i), w.IsNull(i))
				}
			}
		}
	}
	if _, err := Conform(conformSchema, vec.NewBatch(conformSchema, []*vec.Vector{
		vec.New(types.KindInt, 1), vec.NewConst(types.NullOf(types.KindFloat)), vec.New(types.KindString, 1), vec.New(types.KindDate, 1)}, 1)); err == nil {
		t.Error("a NULL conformed into a NOT NULL column")
	}
}

// BenchmarkConform conforms each source form of 1 024 rows, as INSERT …
// SELECT, CTAS, UPDATE and an in-process shard's bucket do.
func BenchmarkConform(b *testing.B) {
	for _, name := range []string{"lanes", "selection", "several", "codes", "boxed", "constant"} {
		bs := conformSources(1024)[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Conform(conformSchema, bs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
