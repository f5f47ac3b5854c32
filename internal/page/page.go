// Package page defines the columnar storage page (paper §II.B.3): a
// self-describing unit holding the bit-packed codes of one column over one
// stride of tuples, together with its NULL bitmap. Pages serialize to a
// compact binary format with a checksum so they can live on the simulated
// clustered filesystem and flow through the buffer pool.
package page

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"

	"dashdb/internal/bitpack"
)

// StrideSize is the number of tuples per stride — the batch unit of the
// entire engine (paper §II.B.4 collects skipping metadata per ~1K tuples;
// §II.B.7 processes "batches of rows called strides").
const StrideSize = 1024

// ID identifies a page: a column of a stride of a table object.
type ID struct {
	Table  uint32
	Column uint16
	Stride uint32
}

// String renders the ID for diagnostics.
func (id ID) String() string {
	return fmt.Sprintf("T%d.C%d.S%d", id.Table, id.Column, id.Stride)
}

// Page holds one column's codes for one stride. Within any page only
// values of a single table column are represented.
type Page struct {
	ID    ID
	Codes *bitpack.Vector
	Nulls *bitpack.Bitmap // bit set ⇒ value is NULL (code is 0 filler)
}

// New creates an empty page for codes of the given width.
func New(id ID, width uint) *Page {
	return &Page{
		ID:    id,
		Codes: bitpack.NewVector(width),
		Nulls: bitpack.NewBitmap(StrideSize),
	}
}

// Rows returns the number of tuples stored.
func (p *Page) Rows() int { return p.Codes.Len() }

// MemSize returns the page's in-memory footprint in bytes (codes +
// null bitmap + header), the unit of buffer-pool accounting.
func (p *Page) MemSize() int {
	return p.Codes.SizeBytes() + StrideSize/8 + 32
}

const pageMagic = 0xDA5B

// Marshal serializes the page: header, null bitmap, packed words, CRC.
func (p *Page) Marshal() []byte {
	words := p.Codes.Words()
	buf := make([]byte, 0, 32+StrideSize/8+len(words)*8)
	var hdr [28]byte
	binary.LittleEndian.PutUint16(hdr[0:], pageMagic)
	binary.LittleEndian.PutUint16(hdr[2:], uint16(p.Codes.Width()))
	binary.LittleEndian.PutUint32(hdr[4:], p.ID.Table)
	binary.LittleEndian.PutUint16(hdr[8:], p.ID.Column)
	binary.LittleEndian.PutUint32(hdr[10:], p.ID.Stride)
	binary.LittleEndian.PutUint32(hdr[14:], uint32(p.Codes.Len()))
	binary.LittleEndian.PutUint32(hdr[18:], uint32(len(words)))
	buf = append(buf, hdr[:]...)
	var w8 [8]byte
	for _, nw := range nullWords(p.Nulls) {
		binary.LittleEndian.PutUint64(w8[:], nw)
		buf = append(buf, w8[:]...)
	}
	for _, w := range words {
		binary.LittleEndian.PutUint64(w8[:], w)
		buf = append(buf, w8[:]...)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf))
	return append(buf, crc[:]...)
}

// nullWords extracts the bitmap's words via its public iteration API.
func nullWords(b *bitpack.Bitmap) []uint64 {
	words := make([]uint64, (StrideSize+63)/64)
	b.ForEach(func(i int) { words[i/64] |= 1 << (uint(i) % 64) })
	return words
}

// Unmarshal parses a serialized page, verifying the checksum.
func Unmarshal(data []byte) (*Page, error) {
	if len(data) < 32 {
		return nil, fmt.Errorf("page: truncated (%d bytes)", len(data))
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("page: checksum mismatch")
	}
	if binary.LittleEndian.Uint16(body[0:]) != pageMagic {
		return nil, fmt.Errorf("page: bad magic")
	}
	width := uint(binary.LittleEndian.Uint16(body[2:]))
	id := ID{
		Table:  binary.LittleEndian.Uint32(body[4:]),
		Column: binary.LittleEndian.Uint16(body[8:]),
		Stride: binary.LittleEndian.Uint32(body[10:]),
	}
	n := int(binary.LittleEndian.Uint32(body[14:]))
	nWords := int(binary.LittleEndian.Uint32(body[18:]))
	off := 28
	nullWordCount := (StrideSize + 63) / 64
	if len(body) < off+8*(nullWordCount+nWords) {
		return nil, fmt.Errorf("page: body shorter than header claims")
	}
	p := &Page{ID: id, Nulls: bitpack.NewBitmap(StrideSize)}
	for wi := 0; wi < nullWordCount; wi++ {
		for w := binary.LittleEndian.Uint64(body[off:]); w != 0; w &= w - 1 {
			p.Nulls.Set(wi*64 + bits.TrailingZeros64(w))
		}
		off += 8
	}
	raw := make([]uint64, nWords)
	for i := range raw {
		raw[i] = binary.LittleEndian.Uint64(body[off:])
		off += 8
	}
	codes, err := bitpack.FromWords(width, n, raw)
	if err != nil {
		return nil, fmt.Errorf("page: %w", err)
	}
	p.Codes = codes
	return p, nil
}
