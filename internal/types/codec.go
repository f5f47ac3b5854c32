package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Value codec: the one way a Value becomes bytes. Spill runs
// (encoding.RowWriter/RowReader), shard row blocks
// (shardrpc.EncodeRowBlock/DecodeRowBlock, which also carry the Spark data
// server's chunks) and gob (Value.GobEncode/GobDecode, so the literals of
// gob-shipped statements) all write it.
//
// A cell is one tag byte and a payload:
//
//	byte             tag = kind (low 6 bits) | 0x80 NULL | 0x40 dictionary code
//	(none)           NULL: the tag alone, so a typed NULL keeps its kind
//	zig-zag varint   BOOLEAN (0 or 1), BIGINT, DATE days, TIMESTAMP µs
//	8 bytes LE       DOUBLE bits (NaN and -0 round-trip exactly)
//	uvarint + bytes  VARCHAR
//	uvarint          VARCHAR with 0x40 set: an index into the block's dictionary
//
// A gob value is one cell. A row is one frame: the uvarint byte length of
// its cells, then the cells; a spill run is a stream of frames. A row
// block is a uvarint row count, a dictionary (uvarint entry count, then per
// entry a uvarint length and the bytes) holding every string that occurs
// more than once in the block, in order of first occurrence, and then the
// frames. Only a block has a dictionary, so only a block's cells carry
// codes.
//
// Decoding checks every length against the input left, so hostile bytes
// cannot demand memory they do not hold, and refuses what the encoder never
// writes: a kind outside KindNull..KindTimestamp, a non-NULL KindNull, a
// boolean payload other than 0 or 1, and a dictionary code on a NULL, on a
// non-string, outside a block or past the dictionary's end.

const (
	tagNull = 0x80
	tagDict = 0x40
	tagKind = 0x3F
)

// AppendRow appends r to b as one frame. dict maps a block's dictionary
// strings to their codes; nil outside a block.
func AppendRow(b []byte, r Row, dict map[string]uint64) ([]byte, error) {
	start := len(b)
	// One byte holds the length of a frame under 128 bytes.
	b, err := appendCells(append(b, 0), r, dict)
	if err != nil {
		return b[:start], err
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

func appendCells(b []byte, r Row, dict map[string]uint64) ([]byte, error) {
	for i := range r {
		v := &r[i]
		tag := byte(v.kind)
		switch {
		case v.kind > KindTimestamp:
			return b, fmt.Errorf("types: cannot encode %v value", v.kind)
		case v.IsNull():
			b = append(b, tag|tagNull)
		case v.kind == KindFloat:
			b = binary.LittleEndian.AppendUint64(append(b, tag), math.Float64bits(v.f))
		case v.kind != KindString: // BOOLEAN, BIGINT, DATE, TIMESTAMP
			b = binary.AppendVarint(append(b, tag), v.i)
		default:
			if code, ok := dict[v.s]; ok {
				b = binary.AppendUvarint(append(b, tag|tagDict), code)
			} else {
				b = append(binary.AppendUvarint(append(b, tag), uint64(len(v.s))), v.s...)
			}
		}
	}
	return b, nil
}

// DecodeRow decodes the frame at the start of b, appending its cells to
// dst, and returns the row and the bytes the frame took. dict is the
// block's dictionary; nil outside a block.
func DecodeRow(dst Row, b []byte, dict []string) (Row, int, error) {
	ln, n := binary.Uvarint(b)
	if n <= 0 || ln > uint64(len(b)-n) {
		return nil, 0, errors.New("types: truncated row")
	}
	end := n + int(ln)
	row, err := DecodeCells(dst, b[n:end], dict)
	return row, end, err
}

// DecodeCells appends every cell of one frame's body to dst.
func DecodeCells(dst Row, b []byte, dict []string) (Row, error) {
	for len(b) > 0 {
		tag := b[0]
		kind, null, coded := Kind(tag&tagKind), tag&tagNull != 0, tag&tagDict != 0
		if kind > KindTimestamp || (kind == KindNull && !null) || (coded && (null || kind != KindString)) {
			return nil, fmt.Errorf("types: bad cell tag %#x", tag)
		}
		var v Value
		n := 1
		switch {
		case null:
			v = NullOf(kind)
		case kind == KindFloat:
			if len(b) < 9 {
				return nil, errors.New("types: truncated DOUBLE")
			}
			v, n = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[1:9]))), 9
		case kind == KindString:
			x, k := binary.Uvarint(b[1:])
			switch {
			case k <= 0:
				return nil, errors.New("types: truncated VARCHAR")
			case coded && dict == nil:
				return nil, errors.New("types: dictionary code outside a block")
			case coded && x >= uint64(len(dict)):
				return nil, fmt.Errorf("types: dictionary code %d of %d", x, len(dict))
			case coded:
				v, n = NewString(dict[x]), 1+k
			case x > uint64(len(b)-1-k):
				return nil, fmt.Errorf("types: VARCHAR of %d bytes, %d left", x, len(b)-1-k)
			default:
				n = 1 + k + int(x)
				v = NewString(string(b[1+k : n]))
			}
		default: // BOOLEAN, BIGINT, DATE, TIMESTAMP
			x, k := binary.Varint(b[1:])
			if k <= 0 {
				return nil, fmt.Errorf("types: truncated %v", kind)
			}
			if kind == KindBool && x != 0 && x != 1 {
				return nil, fmt.Errorf("types: BOOLEAN payload %d", x)
			}
			v, n = Value{kind: kind, i: x}, 1+k
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}
