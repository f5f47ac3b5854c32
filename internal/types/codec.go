package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Value codec: the one way a boxed Value becomes bytes. The batch block
// (vec.AppendBlock) — of the shard wire and of every spill file — writes it
// for a column that has no typed lane: a row-backed or mixed-kind column,
// or one of KindNull; a statement's literal on the shard wire
// (sql.AppendStmt) writes one cell; and encoding.RowWriter/RowReader,
// which only the benchmark's row-stream probe still uses, write rows of
// it. A typed column goes in its own lane; the block's format is
// documented in vec/block.go.
//
// A cell is one tag byte and a payload:
//
//	byte             tag = kind (low 6 bits) | 0x80 NULL
//	(none)           NULL: the tag alone, so a typed NULL keeps its kind
//	zig-zag varint   BOOLEAN (0 or 1), BIGINT, DATE days, TIMESTAMP µs
//	8 bytes LE       DOUBLE bits (NaN and -0 round-trip exactly)
//	uvarint + bytes  VARCHAR
//
// A row is one frame: the uvarint byte length of its cells, then the
// cells; a row stream is a sequence of frames.
//
// Decoding checks every length against the input left, so hostile bytes
// cannot demand memory they do not hold, and refuses what the encoder never
// writes: a kind outside KindNull..KindTimestamp, a non-NULL KindNull, a
// boolean payload other than 0 or 1, and any other tag bit.

const (
	tagNull = 0x80
	tagKind = 0x3F
)

// AppendRow appends r to b as one frame.
func AppendRow(b []byte, r Row) ([]byte, error) {
	start := len(b)
	// One byte holds the length of a frame under 128 bytes.
	b = append(b, 0)
	for _, v := range r {
		var err error
		if b, err = AppendCell(b, v); err != nil {
			return b[:start], err
		}
	}
	n := len(b) - start - 1
	if n < 0x80 {
		b[start] = byte(n)
		return b, nil
	}
	var ln [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(ln[:], uint64(n))
	b = append(b, ln[1:k]...)
	copy(b[start+k:], b[start+1:start+1+n])
	copy(b[start:], ln[:k])
	return b, nil
}

// AppendCell appends v to b as one cell.
func AppendCell(b []byte, v Value) ([]byte, error) {
	tag := byte(v.kind)
	switch {
	case v.kind > KindTimestamp:
		return b, fmt.Errorf("types: cannot encode %v value", v.kind)
	case v.IsNull():
		return append(b, tag|tagNull), nil
	case v.kind == KindFloat:
		return binary.LittleEndian.AppendUint64(append(b, tag), math.Float64bits(v.f)), nil
	case v.kind != KindString: // BOOLEAN, BIGINT, DATE, TIMESTAMP
		return binary.AppendVarint(append(b, tag), v.i), nil
	default:
		return append(binary.AppendUvarint(append(b, tag), uint64(len(v.s))), v.s...), nil
	}
}

// DecodeCells appends every cell of one frame's body to dst.
func DecodeCells(dst Row, b []byte) (Row, error) {
	for len(b) > 0 {
		v, n, err := DecodeCell(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// DecodeCell decodes the cell at the start of b and returns it with the
// bytes it took.
func DecodeCell(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Null, 0, errors.New("types: truncated cell")
	}
	tag := b[0]
	kind, null := Kind(tag&tagKind), tag&tagNull != 0
	if tag&^(tagKind|tagNull) != 0 || kind > KindTimestamp || (kind == KindNull && !null) {
		return Null, 0, fmt.Errorf("types: bad cell tag %#x", tag)
	}
	switch {
	case null:
		return NullOf(kind), 1, nil
	case kind == KindFloat:
		if len(b) < 9 {
			return Null, 0, errors.New("types: truncated DOUBLE")
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[1:9]))), 9, nil
	case kind == KindString:
		x, k := binary.Uvarint(b[1:])
		switch {
		case k <= 0:
			return Null, 0, errors.New("types: truncated VARCHAR")
		case x > uint64(len(b)-1-k):
			return Null, 0, fmt.Errorf("types: VARCHAR of %d bytes, %d left", x, len(b)-1-k)
		}
		n := 1 + k + int(x)
		return NewString(string(b[1+k : n])), n, nil
	default: // BOOLEAN, BIGINT, DATE, TIMESTAMP
		x, k := binary.Varint(b[1:])
		if k <= 0 {
			return Null, 0, fmt.Errorf("types: truncated %v", kind)
		}
		if kind == KindBool && x != 0 && x != 1 {
			return Null, 0, fmt.Errorf("types: BOOLEAN payload %d", x)
		}
		return Value{kind: kind, i: x}, 1 + k, nil
	}
}
