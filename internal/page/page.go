// Package page defines the columnar storage page (paper §II.B.3): a
// self-describing unit holding the bit-packed codes of one column over one
// stride of tuples, together with its NULL bitmap when it has a NULL. Pages serialize to a
// compact binary format with a checksum so they can live on the simulated
// clustered filesystem and flow through the buffer pool.
package page

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

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
// values of a single table column are represented. On top of the column's
// global codes a page is coded over its own stride (page-local coding,
// §II.B.1): it packs each code minus its base, the stride's smallest
// non-NULL code, at the width of the largest such offset, and it holds a
// NULL bitmap only when some cell is NULL. Every reader sees global codes.
type Page struct {
	ID    ID
	base  uint64
	codes *bitpack.Vector // code − base; a NULL cell packs 0
	nulls *bitpack.Bitmap // bit set ⇒ the cell is NULL; nil when none is
}

// Pack makes the sealed page of up to StrideSize codes whose cell i is
// NULL when nulls[i] is set (nulls may be nil: none is). The base is the
// smallest non-NULL code (0 when every cell is NULL), and the width is
// bitpack.WidthFor of the largest code minus the base.
func Pack(id ID, codes []uint64, nulls []bool) *Page {
	if len(codes) > StrideSize || nulls != nil && len(nulls) != len(codes) {
		panic(fmt.Sprintf("page: cannot pack %d codes with %d NULL flags", len(codes), len(nulls)))
	}
	lo, hi, seen, anyNull := uint64(0), uint64(0), false, false
	for i, c := range codes {
		switch {
		case nulls != nil && nulls[i]:
			anyNull = true
		case !seen:
			lo, hi, seen = c, c, true
		default:
			lo, hi = min(lo, c), max(hi, c)
		}
	}
	if lo > math.MaxUint32 {
		panic(fmt.Sprintf("page: base code %d passes 32 bits", lo))
	}
	p := &Page{ID: id, base: lo, codes: bitpack.NewVector(bitpack.WidthFor(hi - lo))}
	if anyNull {
		p.nulls = bitpack.NewBitmap(StrideSize)
	}
	var buf [StrideSize]uint64
	offs := buf[:len(codes)]
	for i, c := range codes {
		if anyNull && nulls[i] {
			p.nulls.Set(i) // its offset stays 0
		} else {
			offs[i] = c - lo
		}
	}
	p.codes.AppendAll(offs)
	return p
}

// Rows returns the number of tuples stored.
func (p *Page) Rows() int { return p.codes.Len() }

// Get returns the code of cell i and whether the cell is NULL (a NULL
// cell reads as the base).
func (p *Page) Get(i int) (uint64, bool) {
	return p.base + p.codes.Get(i), p.nulls != nil && p.nulls.Get(i)
}

// Gather writes the codes at the ascending positions in sel into dst
// (grown as needed) and returns them with their NULL flags as a bitmap
// over selection positions, nil when none is NULL.
func (p *Page) Gather(sel []int, dst []uint64) ([]uint64, *bitpack.Bitmap) {
	dst = p.codes.Gather(sel, p.base, dst)
	if p.nulls == nil {
		return dst, nil
	}
	return dst, p.nulls.Gather(sel)
}

// SelectRange ORs into out, of length Rows(), the positions whose code
// lies in [lo, hi], with the SWAR range kernel over the packed offsets.
// A NULL cell may be selected as if it held the base; Nulls clears it.
func (p *Page) SelectRange(lo, hi uint64, out *bitpack.Bitmap) {
	if hi < p.base {
		return // the range lies wholly below the stride's codes
	}
	p.codes.CompareRange(max(lo, p.base)-p.base, hi-p.base, out)
}

// Nulls returns the NULL bitmap, StrideSize bits long, or nil when no
// cell is NULL. It must be treated as read-only.
func (p *Page) Nulls() *bitpack.Bitmap { return p.nulls }

// headerSize is the fixed part of a serialized page: the 28-byte header
// and the 4-byte checksum.
const headerSize = 32

// nullWords is the NULL bitmap's word count.
const nullWords = StrideSize / 64

// MemSize returns the bytes the page holds (packed words, the NULL bitmap
// when there is one, and the header), the unit of buffer-pool accounting.
func (p *Page) MemSize() int {
	n := p.codes.SizeBytes() + headerSize
	if p.nulls != nil {
		n += nullWords * 8
	}
	return n
}

const pageMagic = 0xDA5B

// flagNoNulls in header byte 26 marks a page serialized without a NULL
// bitmap. Pages written before the flag existed have zero there (and a
// zero base in bytes 22–25), so they read as base 0 with a bitmap.
const flagNoNulls = 1

// Marshal serializes the page: the header, the NULL bitmap's words when
// the page holds one, the packed words and a CRC of all that.
//
// Header (little-endian): magic u16, width u16, table u32, column u16,
// stride u32, codes u32, words u32, base u32, flags u8, one zero byte.
func (p *Page) Marshal() []byte {
	words := p.codes.Words()
	var nw []uint64
	if p.nulls != nil {
		nw = p.nulls.Words()
	}
	buf := make([]byte, headerSize-4, headerSize+8*(len(nw)+len(words)))
	binary.LittleEndian.PutUint16(buf[0:], pageMagic)
	binary.LittleEndian.PutUint16(buf[2:], uint16(p.codes.Width()))
	binary.LittleEndian.PutUint32(buf[4:], p.ID.Table)
	binary.LittleEndian.PutUint16(buf[8:], p.ID.Column)
	binary.LittleEndian.PutUint32(buf[10:], p.ID.Stride)
	binary.LittleEndian.PutUint32(buf[14:], uint32(p.codes.Len()))
	binary.LittleEndian.PutUint32(buf[18:], uint32(len(words)))
	binary.LittleEndian.PutUint32(buf[22:], uint32(p.base))
	if p.nulls == nil {
		buf[26] = flagNoNulls
	}
	for _, w := range nw {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Unmarshal parses a serialized page, verifying the checksum. The NULL
// bitmap's words are adopted whole, and a bitmap with no bit set (as an
// older page may carry) is dropped.
func Unmarshal(data []byte) (*Page, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("page: truncated (%d bytes)", len(data))
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("page: checksum mismatch")
	}
	if binary.LittleEndian.Uint16(body[0:]) != pageMagic {
		return nil, fmt.Errorf("page: bad magic")
	}
	if body[26]&^flagNoNulls != 0 || body[27] != 0 {
		return nil, fmt.Errorf("page: unknown flags %#x %#x", body[26], body[27])
	}
	width := uint(binary.LittleEndian.Uint16(body[2:]))
	p := &Page{
		ID: ID{
			Table:  binary.LittleEndian.Uint32(body[4:]),
			Column: binary.LittleEndian.Uint16(body[8:]),
			Stride: binary.LittleEndian.Uint32(body[10:]),
		},
		base: uint64(binary.LittleEndian.Uint32(body[22:])),
	}
	n := int(binary.LittleEndian.Uint32(body[14:]))
	nWords := int(binary.LittleEndian.Uint32(body[18:]))
	if n > StrideSize {
		return nil, fmt.Errorf("page: %d codes in a stride of %d", n, StrideSize)
	}
	nNull := nullWords
	if body[26]&flagNoNulls != 0 {
		nNull = 0
	}
	off := headerSize - 4
	if len(body) < off+8*(nNull+nWords) {
		return nil, fmt.Errorf("page: body shorter than header claims")
	}
	raw := make([]uint64, nNull+nWords)
	for i := range raw {
		raw[i] = binary.LittleEndian.Uint64(body[off:])
		off += 8
	}
	if nNull > 0 {
		if nulls := bitpack.BitmapFromWords(StrideSize, raw[:nNull:nNull]); nulls.Any() {
			p.nulls = nulls
		}
	}
	codes, err := bitpack.FromWords(width, n, raw[nNull:])
	if err != nil {
		return nil, fmt.Errorf("page: %w", err)
	}
	p.codes = codes
	return p, nil
}
