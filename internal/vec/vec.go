// Package vec defines the batch every executor operator exchanges: typed
// column vectors (int64/float64/string plus a
// boxed escape hatch) with null bitmaps, grouped into batches that carry
// a selection vector. Operators filter by shrinking the selection vector
// instead of copying rows, and expression kernels run over a whole batch
// in one tight typed loop (the block-at-a-time model of BLU's strides,
// §II.B.7, and the MonetDB/X100 lineage).
package vec

import (
	"dashdb/internal/bitpack"
	"dashdb/internal/encoding"
	"dashdb/internal/types"
)

// Vector is one column's values for a batch. Exactly one payload slice is
// non-nil, chosen by Kind:
//
//	KindInt/KindBool/KindDate/KindTimestamp → I64 (bool as 0/1, date as
//	  days, timestamp as µs — the same payloads types.Value uses)
//	KindFloat  → F64
//	KindString → Str
//	KindNull   → Any (boxed values; used for untyped or mixed columns)
//
// Nulls is allocated lazily on the first NULL; a nil bitmap means no
// NULLs have been set. A Const vector holds a single value at payload
// index 0 broadcast to every row (literal operands).
// A code-carrying vector (paper §II.B.2, operate on compressed data) has
// Codes/Dict set instead of a value payload: Codes holds dictionary codes
// for each row and Dict identifies the dictionary that assigned them.
// Encoded vectors flow through filters, joins, and grouping without
// decoding; Materialize converts to the value payload in place, and Get
// decodes single rows on demand. Set must not be called on an encoded
// vector. A third form has no payload of its own: the row-backed view
// Batch.Col returns on a row-built batch (see the rows field).
type Vector struct {
	Kind  types.Kind
	Const bool
	I64   []int64
	F64   []float64
	Str   []string
	Any   []types.Value
	Nulls *bitpack.Bitmap

	// Codes/Dict form the compressed payload. dom is the dictionary
	// snapshot captured at construction: every code in Codes is < len(dom),
	// so per-row decode is a bounds-free slice index with no lock.
	Codes []uint64
	Dict  *encoding.Dict
	dom   []types.Value

	// rows/col form the row-backed view Batch.Col returns on a row-built
	// batch: position i is rows[i][col], nothing copied. Kind is KindNull
	// and every payload slice nil, so such a vector is read through Get and
	// IsNull only.
	rows []types.Row
	col  int
}

// New allocates a dense vector of n values of the given kind, all
// initially zero / non-NULL. KindNull yields a boxed Any vector.
func New(kind types.Kind, n int) *Vector {
	v := &Vector{Kind: kind}
	switch kind {
	case types.KindInt, types.KindBool, types.KindDate, types.KindTimestamp:
		v.I64 = make([]int64, n)
	case types.KindFloat:
		v.F64 = make([]float64, n)
	case types.KindString:
		v.Str = make([]string, n)
	default:
		v.Any = make([]types.Value, n)
	}
	return v
}

// NewConst returns a broadcast vector holding one value for every row.
func NewConst(val types.Value) *Vector {
	v := New(val.Kind(), 1)
	v.Const = true
	v.Set(0, val)
	return v
}

// NewCodes returns an encoded vector of n dictionary codes over dict. The
// caller fills Codes and the null bitmap; positions whose null bit is set
// carry code 0 as a placeholder and are never decoded.
func NewCodes(kind types.Kind, n int, dict *encoding.Dict) *Vector {
	return &Vector{
		Kind:  kind,
		Codes: make([]uint64, n),
		Dict:  dict,
		dom:   dict.Snapshot(),
	}
}

// Encoded reports whether the vector carries dictionary codes instead of
// materialized values.
//
//dashdb:hotpath
func (v *Vector) Encoded() bool { return v.Codes != nil }

// Dom returns the dictionary snapshot the vector decodes through: for any
// non-NULL position i, Dom()[Codes[i]] is the row's value. Hot loops use
// it for lock-free batch decode.
//
//dashdb:hotpath
func (v *Vector) Dom() []types.Value { return v.dom }

// Materialize decodes an encoded vector into its value payload in place;
// it is a no-op on already-materialized vectors. Batches share column
// vectors across WithSel copies, so materialization is visible through
// every view of the batch. This is the executor's single decode point:
// exec.ProjectOp (and kernels that genuinely need values) call it; filters,
// joins, and grouping operate on Codes directly.
func (v *Vector) Materialize() {
	if v.Codes == nil {
		return
	}
	codes, dom, nulls := v.Codes, v.dom, v.Nulls
	v.Codes, v.Dict, v.dom = nil, nil, nil
	n := len(codes)
	switch v.Kind {
	case types.KindInt, types.KindBool, types.KindDate, types.KindTimestamp:
		v.I64 = make([]int64, n)
		for i, c := range codes {
			if nulls != nil && nulls.Get(i) {
				continue
			}
			x, _ := dom[c].AsInt()
			v.I64[i] = x
		}
	case types.KindFloat:
		v.F64 = make([]float64, n)
		for i, c := range codes {
			if nulls != nil && nulls.Get(i) {
				continue
			}
			f, _ := dom[c].AsFloat()
			v.F64[i] = f
		}
	case types.KindString:
		v.Str = make([]string, n)
		for i, c := range codes {
			if nulls != nil && nulls.Get(i) {
				continue
			}
			v.Str[i] = dom[c].Str()
		}
	default:
		v.Any = make([]types.Value, n)
		for i, c := range codes {
			if nulls != nil && nulls.Get(i) {
				v.Any[i] = types.Null
				continue
			}
			v.Any[i] = dom[c]
		}
	}
}

// Len returns the payload length (1 for Const vectors).
func (v *Vector) Len() int {
	switch {
	case v.rows != nil:
		return len(v.rows)
	case v.Codes != nil:
		return len(v.Codes)
	case v.I64 != nil:
		return len(v.I64)
	case v.F64 != nil:
		return len(v.F64)
	case v.Str != nil:
		return len(v.Str)
	default:
		return len(v.Any)
	}
}

// Ix maps a batch position to a payload index (0 for Const vectors).
//
//dashdb:hotpath
func (v *Vector) Ix(i int) int {
	if v.Const {
		return 0
	}
	return i
}

// IsNull reports whether the value at batch position i is NULL.
//
//dashdb:hotpath
func (v *Vector) IsNull(i int) bool {
	i = v.Ix(i)
	if v.Nulls != nil && v.Nulls.Get(i) {
		return true
	}
	if v.Any != nil {
		return v.Any[i].IsNull()
	}
	return v.rows != nil && v.rows[i][v.col].IsNull()
}

// SetNull marks payload position i NULL. Callers writing through SetNull
// and Set address payload positions directly; Const vectors are read-only
// after construction.
func (v *Vector) SetNull(i int) {
	if v.Nulls == nil {
		v.Nulls = bitpack.NewBitmap(v.Len())
	}
	v.Nulls.Set(i)
	if v.Any != nil {
		v.Any[i] = types.Null
	}
}

// Set stores val at payload position i, converting to the vector's
// payload representation. NULL values set the null bit.
//
//dashdb:hotpath
func (v *Vector) Set(i int, val types.Value) {
	if v.Codes != nil {
		panic("vec: Set on an encoded vector (Materialize first)")
	}
	if val.IsNull() {
		v.SetNull(i)
		return
	}
	switch {
	case v.I64 != nil:
		x, _ := val.AsInt()
		v.I64[i] = x
	case v.F64 != nil:
		f, _ := val.AsFloat()
		v.F64[i] = f
	case v.Str != nil:
		v.Str[i] = val.Str()
	default:
		v.Any[i] = val
	}
}

// Get boxes the value at batch position i back into a types.Value.
//
//dashdb:hotpath
func (v *Vector) Get(i int) types.Value {
	i = v.Ix(i)
	if v.Any != nil {
		return v.Any[i]
	}
	if v.Nulls != nil && v.Nulls.Get(i) {
		return types.NullOf(v.Kind)
	}
	if v.Codes != nil {
		return v.dom[v.Codes[i]]
	}
	switch v.Kind {
	case types.KindBool:
		return types.NewBool(v.I64[i] != 0)
	case types.KindInt:
		return types.NewInt(v.I64[i])
	case types.KindFloat:
		return types.NewFloat(v.F64[i])
	case types.KindString:
		return types.NewString(v.Str[i])
	case types.KindDate:
		return types.NewDate(v.I64[i])
	case types.KindTimestamp:
		return types.NewTimestamp(v.I64[i])
	}
	if v.rows != nil {
		return v.rows[i][v.col]
	}
	return types.Null
}

// Batch is the executor's unit of exchange: N aligned positions under a
// selection vector. Sel == nil means every position 0..N-1 is live;
// otherwise Sel lists the live positions in ascending order. Filters narrow
// Sel; payloads are never compacted, so a batch flows through a pipeline
// without copying.
//
// A batch has one of two backings. NewBatch wraps column vectors (a scan
// stride, a projection's outputs). FromRows wraps rows an operator already
// holds (join output, group results, sorted rows, VALUES): Row hands those
// same rows back, and a kernel that asks for a column through Col gets a
// view of them.
type Batch struct {
	Schema types.Schema
	N      int
	Sel    []int

	cols  []*Vector   // column-built: all set; row-built: filled by Col on demand
	rows  []types.Row // row-built: position i is rows[i]
	dense []int       // cached 0..N-1 for Idx when Sel is nil
}

// NewBatch returns a batch of n positions over column vectors.
func NewBatch(schema types.Schema, cols []*Vector, n int) *Batch {
	return &Batch{Schema: schema, N: n, cols: cols}
}

// FromRows returns a batch whose position i is rows[i]. The batch shares
// the rows; neither the caller nor any consumer may modify them afterwards.
func FromRows(schema types.Schema, rows []types.Row) *Batch {
	width := len(schema)
	if len(rows) > 0 {
		width = len(rows[0])
	}
	return &Batch{Schema: schema, N: len(rows), rows: rows, cols: make([]*Vector, width)}
}

// NumCols returns the number of columns.
func (b *Batch) NumCols() int { return len(b.cols) }

// Col returns column j as a vector. On a row-built batch it is a view of
// the rows, made on the first call for that column: a KindNull vector, so
// kernels take their generic arms, which handle every value kind, and no
// value is copied. WithSel copies share it.
func (b *Batch) Col(j int) *Vector {
	if b.cols[j] == nil {
		b.cols[j] = &Vector{rows: b.rows, col: j}
	}
	return b.cols[j]
}

// Rows returns the number of live positions.
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Idx returns the live positions as a slice: Sel when set, else a cached
// dense [0..N) index. Kernels range over it in a tight loop.
//
//dashdb:hotpath
func (b *Batch) Idx() []int {
	if b.Sel != nil {
		return b.Sel
	}
	if len(b.dense) != b.N {
		b.dense = make([]int, b.N)
		for i := range b.dense {
			b.dense[i] = i
		}
	}
	return b.dense
}

// WithSel returns a shallow copy of the batch restricted to sel. The
// backing is shared; only the selection changes.
func (b *Batch) WithSel(sel []int) *Batch {
	nb := *b
	nb.Sel = sel
	return &nb
}

// Row returns the row at batch position i: the producer's own row on a
// row-built batch (no allocation; read-only), else a fresh row boxed out of
// the column vectors.
func (b *Batch) Row(i int) types.Row { return b.RowInto(nil, i) }

// RowInto is Row boxing into dst when the batch is column-built, for
// callers that look at one row at a time and keep none: dst is reused when
// it has the capacity. A row-built batch ignores dst.
func (b *Batch) RowInto(dst types.Row, i int) types.Row {
	if b.rows != nil {
		return b.rows[i]
	}
	if cap(dst) < len(b.cols) {
		dst = make(types.Row, len(b.cols))
	}
	dst = dst[:len(b.cols)]
	for j, cv := range b.cols {
		dst[j] = cv.Get(i)
	}
	return dst
}

// AppendRows appends the live rows to dst in position order, as Row would
// return them.
func (b *Batch) AppendRows(dst []types.Row) []types.Row {
	switch {
	case b.Sel != nil:
		for _, i := range b.Sel {
			dst = append(dst, b.Row(i))
		}
	case b.rows != nil:
		dst = append(dst, b.rows...)
	default:
		for i := 0; i < b.N; i++ {
			dst = append(dst, b.Row(i))
		}
	}
	return dst
}

// Decode materializes every dictionary-encoded column in place (see
// Vector.Materialize).
func (b *Batch) Decode() {
	for _, cv := range b.cols {
		if cv != nil {
			cv.Materialize()
		}
	}
}
