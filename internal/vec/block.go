package vec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"dashdb/internal/bitpack"
	"dashdb/internal/types"
)

// Batch block: the wire form of batches. Shard results (FrameRows), rows
// shipped to a shard (FrameInsert) and shuffle partitions
// (FrameShuffleData) are all one block each. A block holds
// the live rows of one or more batches of the same width, in order, column
// by column, and decodes to one batch, so a value stays typed from the
// sender's operator to the receiver's kernels. All integers are varints:
//
//	uvarint  rows
//	uvarint  columns
//	per column:
//	  byte   form: a lane kind (BOOLEAN, BIGINT, DOUBLE, VARCHAR, DATE,
//	         TIMESTAMP), | 0x80 when a NULL bitmap follows; KindNull for
//	         cells
//	  bytes  the NULL bitmap when flagged: ceil(rows/8) bytes, row i's bit
//	         (byte i/8, bit i%8) set when it is NULL
//	  lane   one entry per non-NULL row:
//	           BOOLEAN, BIGINT, DATE, TIMESTAMP  zig-zag varint (a BOOLEAN
//	                                             is 0 or 1)
//	           DOUBLE   8 bytes little-endian, the exact bits
//	           VARCHAR  first the block's dictionary of the column — a
//	                    uvarint count d, d uvarint lengths, then the d
//	                    strings' bytes back to back — then one uvarint
//	                    code < d per row
//	         cells: one types/codec.go cell per row, NULLs included, so a
//	         mixed-kind column keeps every value's kind
//	a block of no columns ends with ceil(rows/8) zero bytes, so every row
//	count is backed by input
//
// A column takes a lane when every vector of it is typed with that kind,
// or holds boxed values of that one kind, NULLs included; any other
// column is cells. A decoded VARCHAR column's strings are slices of one
// string holding its dictionary.
//
// DecodeBlock checks every count against the bytes left before it
// allocates, so hostile bytes cannot demand memory the input does not
// hold: a column of n rows costs at least n bytes, or n/8 with a bitmap.

const (
	formNulls = 0x80
	formCells = byte(types.KindNull)
)

// AppendBlock appends the block of the live rows of bs, in order, to dst.
// Every batch with live rows must have the same number of columns.
func AppendBlock(dst []byte, bs ...*Batch) ([]byte, error) {
	n, width := 0, 0
	if len(bs) > 0 {
		width = bs[0].NumCols()
	}
	var live []*Batch
	for _, b := range bs {
		if b.Rows() == 0 {
			continue
		}
		if len(live) == 0 {
			width = b.NumCols()
		} else if b.NumCols() != width {
			return dst, fmt.Errorf("vec: block of batches %d and %d columns wide", width, b.NumCols())
		}
		live = append(live, b)
		n += b.Rows()
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(width))
	if width == 0 {
		return append(dst, make([]byte, (n+7)/8)...), nil
	}
	parts := make([]part, len(live))
	for j := 0; j < width; j++ {
		for k, b := range live {
			parts[k] = newPart(b.Col(j), b.Idx())
		}
		var err error
		if dst, err = appendColumn(dst, parts, n); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// part is one batch's share of a column: a vector and the positions of
// its live rows.
type part struct {
	v   *Vector
	idx []int
}

// newPart readies v's rows at idx for a lane: a dictionary-coded vector
// decodes into a copy (the batch's own may be shared), and a boxed one
// whose values all have one lane kind becomes a typed copy.
func newPart(v *Vector, idx []int) part {
	v = v.Decoded()
	if v.I64 == nil && v.F64 == nil && v.Str == nil {
		if typed := unbox(v, idx); typed != nil {
			v = typed
		}
	}
	return part{v, idx}
}

// unbox returns a typed copy of a boxed vector, holding its values at idx,
// when every one of them, NULLs included, has the same lane kind; nil
// otherwise.
//
//dashdb:hotpath
func unbox(v *Vector, idx []int) *Vector {
	if len(idx) == 0 {
		return nil
	}
	kind := v.Any[v.Ix(idx[0])].Kind()
	if kind == types.KindNull {
		return nil
	}
	out := New(kind, v.Len())
	out.Const = v.Const
	for _, i := range idx {
		i = v.Ix(i)
		switch x := &v.Any[i]; {
		case x.Kind() != kind:
			return nil
		case x.IsNull():
			out.SetNull(i)
		case out.I64 != nil:
			out.I64[i] = x.Int()
		case out.F64 != nil:
			out.F64[i] = x.Float()
		default:
			out.Str[i] = x.Str()
		}
	}
	return out
}

// appendColumn appends one column of n rows, the concatenation of parts.
func appendColumn(dst []byte, parts []part, n int) ([]byte, error) {
	kind := laneKind(parts)
	if kind == types.KindNull {
		dst = append(dst, formCells)
		for _, p := range parts {
			var err error
			if dst, err = appendCells(dst, p.v, p.idx); err != nil {
				return dst, err
			}
		}
		return dst, nil
	}
	nulls := false
	for _, p := range parts {
		nulls = nulls || p.v.Nulls != nil
	}
	if !nulls {
		dst = append(dst, byte(kind))
	} else {
		dst = append(dst, byte(kind)|formNulls)
		start := len(dst)
		dst = append(dst, make([]byte, (n+7)/8)...)
		row := 0
		for _, p := range parts {
			row = markNulls(dst[start:], row, p.v, p.idx)
		}
	}
	switch kind {
	case types.KindFloat:
		for _, p := range parts {
			dst = appendFloats(dst, p.v, p.idx)
		}
	case types.KindString:
		dst = appendStrings(dst, parts)
	default: // BOOLEAN, BIGINT, DATE, TIMESTAMP
		for _, p := range parts {
			dst = appendInts(dst, p.v, p.idx)
		}
	}
	return dst, nil
}

// laneKind is the lane a column takes: the kind of its typed parts when
// they agree, KindNull (cells) when they do not or a part is boxed.
func laneKind(parts []part) types.Kind {
	lane := types.KindNull
	for k, p := range parts {
		kind := p.v.Kind
		if p.v.I64 == nil && p.v.F64 == nil && p.v.Str == nil {
			return types.KindNull
		}
		if k > 0 && kind != lane {
			return types.KindNull
		}
		lane = kind
	}
	return lane
}

// markNulls sets the bitmap bits of v's NULLs at idx, numbering its rows
// from row, and returns the next row number.
//
//dashdb:hotpath
func markNulls(bm []byte, row int, v *Vector, idx []int) int {
	if v.Nulls == nil {
		return row + len(idx)
	}
	for _, i := range idx {
		if v.Nulls.Get(v.Ix(i)) {
			bm[row>>3] |= 1 << (row & 7)
		}
		row++
	}
	return row
}

//dashdb:hotpath
func appendInts(dst []byte, v *Vector, idx []int) []byte {
	if v.Nulls == nil && !v.Const {
		for _, i := range idx {
			dst = binary.AppendVarint(dst, v.I64[i])
		}
		return dst
	}
	for _, i := range idx {
		if i = v.Ix(i); v.Nulls == nil || !v.Nulls.Get(i) {
			dst = binary.AppendVarint(dst, v.I64[i])
		}
	}
	return dst
}

//dashdb:hotpath
func appendFloats(dst []byte, v *Vector, idx []int) []byte {
	for _, i := range idx {
		if i = v.Ix(i); v.Nulls == nil || !v.Nulls.Get(i) {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F64[i]))
		}
	}
	return dst
}

// appendStrings appends a VARCHAR column's dictionary and codes.
func appendStrings(dst []byte, parts []part) []byte {
	d := stringDict{index: make(map[string]uint64)}
	for _, p := range parts {
		d.add(p.v, p.idx)
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.values)))
	for _, s := range d.values {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
	}
	for _, s := range d.values {
		dst = append(dst, s...)
	}
	for _, c := range d.codes {
		dst = binary.AppendUvarint(dst, c)
	}
	return dst
}

// stringDict numbers a column's distinct strings in order of first
// occurrence.
type stringDict struct {
	index  map[string]uint64
	values []string
	codes  []uint64 // one per non-NULL row
}

//dashdb:hotpath
func (d *stringDict) add(v *Vector, idx []int) {
	for _, i := range idx {
		i = v.Ix(i)
		if v.Nulls != nil && v.Nulls.Get(i) {
			continue
		}
		c, ok := d.index[v.Str[i]]
		if !ok {
			c = uint64(len(d.values))
			d.index[v.Str[i]] = c
			d.values = append(d.values, v.Str[i])
		}
		d.codes = append(d.codes, c)
	}
}

func appendCells(dst []byte, v *Vector, idx []int) ([]byte, error) {
	for _, i := range idx {
		var err error
		if dst, err = types.AppendCell(dst, v.Get(i)); err != nil {
			return dst, fmt.Errorf("vec: block: %w", err)
		}
	}
	return dst, nil
}

// DecodeBlock decodes one block into a batch of its rows with no schema
// and no selection vector.
func DecodeBlock(data []byte) (*Batch, error) {
	r := blockReader{data: data}
	n, err := r.count(8) // a row takes at least a bit of every column
	if err != nil {
		return nil, err
	}
	width, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if width == 0 {
		if _, err := r.bytes((n + 7) / 8); err != nil {
			return nil, err
		}
		return NewBatch(nil, nil, n), r.end()
	}
	cols := make([]*Vector, width)
	for j := range cols {
		if cols[j], err = r.column(n); err != nil {
			return nil, fmt.Errorf("vec: block column %d: %w", j, err)
		}
	}
	return NewBatch(nil, cols, n), r.end()
}

// blockReader walks a block, checking every count against the bytes left.
type blockReader struct {
	data []byte
	pos  int
}

var errTruncated = errors.New("vec: block truncated")

// count reads a uvarint counting things of at least 1/per bytes of input
// each, so it cannot exceed per times the bytes left.
func (r *blockReader) count(per uint64) (int, error) {
	x, k := binary.Uvarint(r.data[r.pos:])
	if k <= 0 {
		return 0, errTruncated
	}
	r.pos += k
	if left := uint64(len(r.data) - r.pos); x > per*left {
		return 0, fmt.Errorf("vec: block count %d, %d bytes left", x, left)
	}
	return int(x), nil
}

func (r *blockReader) bytes(n int) ([]byte, error) {
	if n > len(r.data)-r.pos {
		return nil, errTruncated
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *blockReader) end() error {
	if r.pos != len(r.data) {
		return fmt.Errorf("vec: block has %d trailing bytes", len(r.data)-r.pos)
	}
	return nil
}

// column decodes one column of n rows.
func (r *blockReader) column(n int) (*Vector, error) {
	form, err := r.bytes(1)
	if err != nil {
		return nil, err
	}
	kind := types.Kind(form[0] &^ formNulls)
	if kind > types.KindTimestamp || form[0] == formCells|formNulls {
		return nil, fmt.Errorf("vec: bad column form %#x", form[0])
	}
	if kind == types.KindNull {
		return r.cells(n)
	}
	live := n
	var nulls *bitpack.Bitmap
	if form[0]&formNulls != 0 {
		bm, err := r.bytes((n + 7) / 8)
		if err != nil {
			return nil, err
		}
		nulls = bitpack.NewBitmap(n)
		dead, ok := setNulls(nulls, bm, n)
		if !ok {
			return nil, errors.New("vec: NULL bitmap past the last row")
		}
		live -= dead
	}
	// Every non-NULL row takes at least one byte of lane; a DOUBLE eight.
	minBytes := live
	if kind == types.KindFloat {
		minBytes = 8 * live
	}
	if minBytes > len(r.data)-r.pos {
		return nil, errTruncated
	}
	v := New(kind, n)
	v.Nulls = nulls
	switch kind {
	case types.KindFloat:
		r.pos = decodeFloats(v.F64, nulls, r.data, r.pos)
	case types.KindString:
		err = r.strings(v.Str, nulls)
	default:
		r.pos, err = decodeInts(v.I64, nulls, r.data, r.pos, kind == types.KindBool)
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// setNulls sets the bits of bm's first n rows in nulls and returns how
// many there are; ok is false when a bit past row n is set.
//
//dashdb:hotpath
func setNulls(nulls *bitpack.Bitmap, bm []byte, n int) (count int, ok bool) {
	for i, b := range bm {
		for ; b != 0; b &= b - 1 {
			row := i*8 + bits.TrailingZeros8(b)
			if row >= n {
				return count, false
			}
			nulls.Set(row)
			count++
		}
	}
	return count, true
}

//dashdb:hotpath
func decodeFloats(dst []float64, nulls *bitpack.Bitmap, data []byte, pos int) int {
	for i := range dst {
		if nulls == nil || !nulls.Get(i) {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
			pos += 8
		}
	}
	return pos
}

//dashdb:hotpath
func decodeInts(dst []int64, nulls *bitpack.Bitmap, data []byte, pos int, boolean bool) (int, error) {
	for i := range dst {
		if nulls != nil && nulls.Get(i) {
			continue
		}
		x, k := binary.Varint(data[pos:])
		if k <= 0 || (boolean && x != 0 && x != 1) {
			return pos, badLane(pos)
		}
		dst[i], pos = x, pos+k
	}
	return pos, nil
}

// badLane is the error of a lane entry the encoder never writes.
//
//dashdb:coldpath
func badLane(pos int) error { return fmt.Errorf("vec: bad lane entry at byte %d", pos) }

// strings decodes a VARCHAR lane into dst.
func (r *blockReader) strings(dst []string, nulls *bitpack.Bitmap) error {
	d, err := r.count(1)
	if err != nil {
		return err
	}
	lens := make([]int, d)
	total := 0
	for i := range lens {
		if lens[i], err = r.count(1); err != nil {
			return err
		}
		total += lens[i]
	}
	backing, err := r.bytes(total)
	if err != nil {
		return err
	}
	all := string(backing)
	dict := make([]string, d)
	off := 0
	for i, ln := range lens {
		dict[i], off = all[off:off+ln], off+ln
	}
	r.pos, err = decodeCodes(dst, dict, nulls, r.data, r.pos)
	return err
}

//dashdb:hotpath
func decodeCodes(dst, dict []string, nulls *bitpack.Bitmap, data []byte, pos int) (int, error) {
	for i := range dst {
		if nulls != nil && nulls.Get(i) {
			continue
		}
		c, k := binary.Uvarint(data[pos:])
		if k <= 0 || c >= uint64(len(dict)) {
			return pos, badLane(pos)
		}
		dst[i], pos = dict[c], pos+k
	}
	return pos, nil
}

// cells decodes a cells column of n rows.
func (r *blockReader) cells(n int) (*Vector, error) {
	if n > len(r.data)-r.pos {
		return nil, errTruncated
	}
	v := New(types.KindNull, n)
	for i := range v.Any {
		x, k, err := types.DecodeCell(r.data[r.pos:])
		if err != nil {
			return nil, err
		}
		v.Any[i], r.pos = x, r.pos+k
	}
	return v, nil
}

// Hash is Get(i).Hash() without boxing the value: the partition hash of a
// shuffle key.
//
//dashdb:hotpath
func (v *Vector) Hash(i int) uint64 {
	k := v.Ix(i)
	switch {
	case v.Nulls != nil && v.Nulls.Get(k):
		return types.NullHash
	case v.I64 != nil:
		return types.HashInt(v.I64[k])
	case v.F64 != nil:
		return types.HashFloat(v.F64[k])
	case v.Str != nil:
		return types.HashString(v.Str[k])
	}
	return v.Get(i).Hash()
}
