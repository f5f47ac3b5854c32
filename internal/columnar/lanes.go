package columnar

import (
	"slices"

	"dashdb/internal/bitpack"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// Lanes accumulates rows as the typed column lanes Table.Append takes:
// one vector per column of the schema's kind (I64 for BOOLEAN, BIGINT,
// DATE and TIMESTAMP, F64 for DOUBLE, Str for VARCHAR) plus its NULLs. It
// is the one rows→lanes adapter, for callers that hold rows at a public
// edge: InsertBatch, LanesOf and the Bulk loader. Add checks a row value
// by value with Schema.Check, so a refused row appends to no lane, and a
// row is never copied. Reset keeps the lanes' capacity for the next batch: the table
// keeps codes, never lanes.
type Lanes struct {
	schema types.Schema
	cols   []*vec.Vector
	nulls  []*bitpack.Bitmap // column j's NULLs; empty until its first NULL
	row    types.Row         // Add's coerced values, before any lane grows
	n      int
	bytes  int
}

// NewLanes returns empty lanes for schema with room for capacity rows.
func NewLanes(schema types.Schema, capacity int) *Lanes {
	l := &Lanes{
		schema: schema,
		cols:   make([]*vec.Vector, len(schema)),
		nulls:  make([]*bitpack.Bitmap, len(schema)),
		row:    make(types.Row, len(schema)),
	}
	for j, c := range schema {
		v := &vec.Vector{Kind: c.Kind}
		switch c.Kind {
		case types.KindBool, types.KindInt, types.KindDate, types.KindTimestamp:
			v.I64 = make([]int64, 0, capacity)
		case types.KindFloat:
			v.F64 = make([]float64, 0, capacity)
		case types.KindString:
			v.Str = make([]string, 0, capacity)
		default:
			v.Any = make([]types.Value, 0, capacity)
		}
		l.cols[j], l.nulls[j] = v, bitpack.NewBitmap(0)
	}
	return l
}

// LanesOf is the batch of rows' lanes, or the first refused row's error.
func LanesOf(schema types.Schema, rows []types.Row) (*vec.Batch, error) {
	l := NewLanes(schema, len(rows))
	for _, r := range rows {
		if err := l.Add(r); err != nil {
			return nil, err
		}
	}
	return l.Batch(), nil
}

// Add appends row to the lanes, each value checked and coerced to its
// column's kind first; a refused row changes nothing. A non-NULL value of
// its column's kind is its own checked form and goes to its lane as it is.
func (l *Lanes) Add(row types.Row) error {
	if len(row) != len(l.schema) {
		return l.schema.CheckWidth(len(row))
	}
	for j := range row {
		if v := &row[j]; v.IsNull() || v.Kind() != l.schema[j].Kind {
			cv, err := l.schema.Check(j, *v)
			if err != nil {
				return err
			}
			l.row[j] = cv
		}
	}
	for j := range row {
		v := &row[j]
		if v.IsNull() || v.Kind() != l.schema[j].Kind {
			v = &l.row[j]
		}
		l.push(j, v)
	}
	l.n++
	return nil
}

// push appends the checked value x to lane j as row l.n. A NULL's slot
// holds the payload's zero.
func (l *Lanes) push(j int, x *types.Value) {
	v := l.cols[j]
	switch {
	case v.I64 != nil:
		v.I64 = append(roomFor1(v.I64), x.Int())
	case v.F64 != nil:
		v.F64 = append(roomFor1(v.F64), x.Float())
	case v.Str != nil:
		v.Str = append(roomFor1(v.Str), x.Str())
	default:
		v.Any = append(roomFor1(v.Any), *x)
	}
	switch {
	case x.IsNull():
		l.nulls[j].Resize(l.n + 1)
		l.nulls[j].Set(l.n)
		l.bytes += 8
	case v.Str != nil:
		l.bytes += 4 + len(x.Str())
	default:
		l.bytes += 8
	}
}

// roomFor1 is s with room for one more element: a full lane doubles. A
// large slice that append grows by a quarter at a time would be copied
// about five times over while a flush's rows arrive one by one.
func roomFor1[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, max(cap(s), 64))
}

// Len is the number of rows added since the last Reset.
func (l *Lanes) Len() int { return l.n }

// Bytes is the rows' size in the naive row format that a table's raw
// bytes count: 8 a number or NULL, 4 plus its length a string.
func (l *Lanes) Bytes() int { return l.bytes }

// Batch returns the rows added as a batch of the lanes, valid until the
// next Add or Reset.
func (l *Lanes) Batch() *vec.Batch {
	for j, v := range l.cols {
		v.Nulls = nil
		if l.nulls[j].Len() > 0 {
			l.nulls[j].Resize(l.n)
			v.Nulls = l.nulls[j]
		}
	}
	return vec.NewBatch(l.schema, l.cols, l.n)
}

// Reset empties the lanes, keeping their capacity.
func (l *Lanes) Reset() {
	for j, v := range l.cols {
		v.I64, v.F64, v.Str, v.Any = v.I64[:0], v.F64[:0], v.Str[:0], v.Any[:0] // a nil payload stays nil
		v.Nulls = nil
		l.nulls[j].Resize(0)
	}
	l.n, l.bytes = 0, 0
}
