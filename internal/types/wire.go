package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Reader decodes a binary message from the front of a byte slice: the
// shard wire's statement codec (sql.ReadStmt), its control, request and
// response messages, and every blob persisted on the clustered filesystem
// read through it. An integer is a varint (zig-zag when signed), a string
// its uvarint length and bytes, a bool one byte, 0 or 1, a DOUBLE its 8
// bytes little-endian, and a value one cell (codec.go). The first error
// sticks, and every read
// after it returns a zero value. A length is checked against the bytes
// left before anything is allocated for it, so hostile bytes cannot
// demand memory they do not hold.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a reader of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Rest returns the bytes not yet read, none after an error.
func (r *Reader) Rest() []byte { return r.b }

// Err returns the first error the reader met.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an error is recorded already, and ends the read.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err, r.b = err, nil
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail(errors.New("truncated integer"))
		return 0
	}
	r.b = r.b[n:]
	return x
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	x, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail(errors.New("truncated integer"))
		return 0
	}
	r.b = r.b[n:]
	return x
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.Fail(errors.New("truncated"))
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch c := r.Byte(); c {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("bool byte %d", c))
		return false
	}
}

// Count reads a length that may not exceed the bytes left: n bytes, or n
// things of a byte or more each.
func (r *Reader) Count() int {
	x := r.Uvarint()
	if x > uint64(len(r.b)) {
		r.Fail(fmt.Errorf("length %d, %d bytes left", x, len(r.b)))
		return 0
	}
	return int(x)
}

// Str reads a string.
func (r *Reader) Str() string {
	n := r.Count()
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Float64 reads a DOUBLE's 8 bytes.
func (r *Reader) Float64() float64 {
	if len(r.b) < 8 {
		r.Fail(errors.New("truncated DOUBLE"))
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

// Cell reads one value.
func (r *Reader) Cell() Value {
	if r.err != nil {
		return Null
	}
	v, n, err := DecodeCell(r.b)
	if err != nil {
		r.Fail(err)
		return Null
	}
	r.b = r.b[n:]
	return v
}

// AppendStr appends s as Reader.Str reads it.
func AppendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBool appends v as Reader.Bool reads it.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends f as Reader.Float64 reads it.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// A blob persisted on the clustered filesystem — a table's metadata, an
// encoder snapshot, a shard's applied-token log, the cluster manifest — is
// a Reader message behind a three-byte header: blobMagic, the blob's kind
// and blobFormat. No gob stream starts with blobMagic (gob opens with a
// message length: a byte below 0x80, or a byte count's negation, 0xF8 to
// 0xFF), so a blob written in the earlier gob formats is refused as such,
// never misread.
const (
	blobMagic  = 0xDB
	blobFormat = 1
)

// The blob kinds.
const (
	BlobTableMeta  byte = 'T' // columnar: a table's metadata
	BlobEncoder    byte = 'E' // encoding: an encoder snapshot
	BlobAppliedLog byte = 'L' // shardrpc: a shard's applied-token log
	BlobManifest   byte = 'M' // shardrpc: the cluster manifest
)

// AppendHeader appends the header of a blob of the given kind.
func AppendHeader(b []byte, kind byte) []byte { return append(b, blobMagic, kind, blobFormat) }

// Header reads a blob header, failing unless it is kind's in blobFormat.
func (r *Reader) Header(kind byte) {
	if len(r.b) > 0 && (r.b[0] < 0x80 || r.b[0] >= 0xF8) {
		r.Fail(fmt.Errorf("%s is gob-encoded, the format before binary format %d, and is not read", blobName(kind), blobFormat))
		return
	}
	magic, k, format := r.Byte(), r.Byte(), r.Byte()
	switch {
	case r.err != nil:
	case magic != blobMagic || k != kind:
		r.Fail(fmt.Errorf("not a %s: header %#x %#x", blobName(kind), magic, k))
	case format != blobFormat:
		r.Fail(fmt.Errorf("%s in format %d, want %d", blobName(kind), format, blobFormat))
	}
}

func blobName(kind byte) string {
	switch kind {
	case BlobTableMeta:
		return "table metadata"
	case BlobEncoder:
		return "encoder snapshot"
	case BlobAppliedLog:
		return "applied-token log"
	case BlobManifest:
		return "cluster manifest"
	}
	return fmt.Sprintf("blob %q", kind)
}
