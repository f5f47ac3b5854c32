// Package page defines the columnar storage page (paper §II.B.3): a
// self-describing unit holding the bit-packed codes of one column over one
// stride of tuples, together with its NULL bitmap when it has a NULL and
// its exception list when a few codes are too wide to pack. Pages serialize to a
// compact binary format with a checksum so they can live on the simulated
// clustered filesystem and flow through the buffer pool.
package page

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

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
// non-NULL code, and it holds a NULL bitmap only when some cell is NULL.
// The packed width need not hold every offset: an offset too wide for it
// is an exception (patched frame of reference), kept beside the packed
// words with its position while its cell packs 0, so a stride of narrow
// codes and a few wide ones packs at the narrow width. Every reader sees
// global codes.
type Page struct {
	ID     ID
	base   uint64
	codes  *bitpack.Vector // code − base; a NULL cell and an exception pack 0
	nulls  *bitpack.Bitmap // bit set ⇒ the cell is NULL; nil when none is
	excPos []uint16        // ascending positions of the exceptions
	excOff []uint32        // excOff[j] is the offset at excPos[j]
}

// exceptionSize is the bytes an exception costs: a u16 position and a u32
// offset.
const exceptionSize = 6

// Pack makes the sealed page of up to StrideSize codes whose cell i is
// NULL when nulls[i] is set (nulls may be nil: none is). The base is the
// smallest non-NULL code (0 when every cell is NULL). The width is the one
// that makes the page smallest, counting the packed words and an
// exception for each offset wider than it; among widths of equal size the
// widest wins, so a page no exception pays for packs every offset at
// bitpack.WidthFor of the largest.
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
	p := &Page{ID: id, base: lo}
	if anyNull {
		p.nulls = bitpack.NewBitmap(StrideSize)
	}
	var buf [StrideSize]uint64
	var byLen [bitpack.MaxWidth + 1]int // offsets by bit length
	offs := buf[:len(codes)]
	for i, c := range codes {
		if anyNull && nulls[i] {
			p.nulls.Set(i) // its offset stays 0
		} else {
			offs[i] = c - lo
			byLen[bits.Len64(offs[i])]++
		}
	}
	width, patched := packWidth(len(codes), bitpack.WidthFor(hi-lo), &byLen)
	if patched > 0 {
		p.excPos, p.excOff = make([]uint16, 0, patched), make([]uint32, 0, patched)
		for i, o := range offs {
			if o>>width != 0 {
				p.excPos = append(p.excPos, uint16(i))
				p.excOff = append(p.excOff, uint32(o))
				offs[i] = 0
			}
		}
	}
	p.codes = bitpack.NewVector(width)
	p.codes.AppendAll(offs)
	return p
}

// packWidth returns the width, at most full, that makes n offsets
// smallest, and how many offsets are wider than it: the size is their
// packed words plus exceptionSize bytes for each of those, byLen counting
// the offsets of each bit length. Among equal sizes the widest wins.
func packWidth(n int, full uint, byLen *[bitpack.MaxWidth + 1]int) (width uint, patched int) {
	bestSize := math.MaxInt
	wide := 0 // offsets longer than w bits
	for w := full; w >= 1; w-- {
		perWord := 64 / int(w+1)
		if size := (n+perWord-1)/perWord*8 + wide*exceptionSize; size < bestSize {
			width, patched, bestSize = w, wide, size
		}
		wide += byLen[w]
	}
	return width, patched
}

// Rows returns the number of tuples stored.
func (p *Page) Rows() int { return p.codes.Len() }

// Patched returns the number of exceptions: the codes too wide for the
// packed width.
func (p *Page) Patched() int { return len(p.excPos) }

// Get returns the code of cell i and whether the cell is NULL (a NULL
// cell reads as the base).
func (p *Page) Get(i int) (uint64, bool) {
	off := p.codes.Get(i)
	if len(p.excPos) > 0 {
		if j, ok := slices.BinarySearch(p.excPos, uint16(i)); ok {
			off = uint64(p.excOff[j])
		}
	}
	return p.base + off, p.nulls != nil && p.nulls.Get(i)
}

// Gather writes the codes at the ascending positions in sel into dst
// (grown as needed) and returns them with their NULL flags as a bitmap
// over selection positions, nil when none is NULL. The packed codes are
// gathered first; then each exception that sel holds overwrites its slot.
func (p *Page) Gather(sel []int, dst []uint64) ([]uint64, *bitpack.Bitmap) {
	dst = p.codes.Gather(sel, p.base, dst)
	if len(sel) == p.Rows() { // every position: dst[i] is cell i
		for j, pos := range p.excPos {
			dst[pos] = p.base + uint64(p.excOff[j])
		}
	} else {
		k := 0 // sel[:k] lies below the exceptions still to place
		for j, pos := range p.excPos {
			at, ok := slices.BinarySearch(sel[k:], int(pos))
			if k += at; ok {
				dst[k] = p.base + uint64(p.excOff[j])
			}
		}
	}
	if p.nulls == nil {
		return dst, nil
	}
	return dst, p.nulls.Gather(sel)
}

// SelectRange ORs into out, of length Rows(), the positions whose code
// lies in [lo, hi], with the SWAR range kernel over the packed offsets.
// A NULL cell may be selected as if it held the base; Nulls clears it.
// The kernel tests an exception's packed 0, so each exception's bit is
// set afterwards to what out held before OR its own code's test.
func (p *Page) SelectRange(lo, hi uint64, out *bitpack.Bitmap) {
	if hi < p.base {
		return // the range lies wholly below the stride's codes
	}
	var held [StrideSize / 64]uint64 // bit j: out held exception j's position
	for j, pos := range p.excPos {
		if out.Get(int(pos)) {
			held[j/64] |= 1 << (j % 64)
		}
	}
	p.codes.CompareRange(max(lo, p.base)-p.base, hi-p.base, out)
	for j, pos := range p.excPos {
		code := p.base + uint64(p.excOff[j])
		if held[j/64]&(1<<(j%64)) != 0 || lo <= code && code <= hi {
			out.Set(int(pos))
		} else {
			out.Clear(int(pos))
		}
	}
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
// when there is one, the exceptions and the header), the unit of
// buffer-pool accounting; the serialized page is exactly that long.
func (p *Page) MemSize() int {
	n := p.codes.SizeBytes() + len(p.excPos)*exceptionSize + headerSize
	if p.nulls != nil {
		n += nullWords * 8
	}
	return n
}

const pageMagic = 0xDA5B

// Flags in header byte 26. flagNoNulls marks a page serialized without a
// NULL bitmap. Pages written before the flag existed have zero there (and
// a zero base in bytes 22–25), so they read as base 0 with a bitmap.
// flagPatched marks a page whose exception list follows its packed words;
// a page without one serializes as it did before exceptions existed.
const (
	flagNoNulls = 1
	flagPatched = 2
)

// Marshal serializes the page: the header, the NULL bitmap's words when
// the page holds one, the packed words, the exceptions when there are
// any, and a CRC of all that.
//
// Header (little-endian): magic u16, width u16, table u32, column u16,
// stride u32, codes u32, words u32, base u32, flags u8, one zero byte.
// An exception is its position u16 and its offset u32; their count is
// what the bytes before the CRC leave for them.
func (p *Page) Marshal() []byte {
	words := p.codes.Words()
	var nw []uint64
	if p.nulls != nil {
		nw = p.nulls.Words()
	}
	buf := make([]byte, headerSize-4, p.MemSize())
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
	if len(p.excPos) > 0 {
		buf[26] |= flagPatched
	}
	for _, w := range nw {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	for j, pos := range p.excPos {
		buf = binary.LittleEndian.AppendUint16(buf, pos)
		buf = binary.LittleEndian.AppendUint32(buf, p.excOff[j])
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Unmarshal parses a serialized page, verifying the checksum. The NULL
// bitmap's words are adopted whole, and a bitmap with no bit set (as an
// older page may carry) is dropped. Exceptions must ascend, lie inside the
// page on non-NULL cells, and not fit the packed width.
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
	if body[26]&^(flagNoNulls|flagPatched) != 0 || body[27] != 0 {
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
	if body[26]&flagPatched != 0 {
		if err := p.readExceptions(body[off:]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// readExceptions adopts the exception list in raw, the bytes between the
// packed words and the CRC.
func (p *Page) readExceptions(raw []byte) error {
	if len(raw) == 0 || len(raw)%exceptionSize != 0 {
		return fmt.Errorf("page: %d bytes do not hold a list of exceptions", len(raw))
	}
	n := len(raw) / exceptionSize
	p.excPos, p.excOff = make([]uint16, n), make([]uint32, n)
	for j := range n {
		pos := binary.LittleEndian.Uint16(raw[j*exceptionSize:])
		off := binary.LittleEndian.Uint32(raw[j*exceptionSize+2:])
		switch {
		case int(pos) >= p.Rows():
			return fmt.Errorf("page: exception at %d in a page of %d codes", pos, p.Rows())
		case j > 0 && pos <= p.excPos[j-1]:
			return fmt.Errorf("page: exception at %d follows one at %d", pos, p.excPos[j-1])
		case p.nulls != nil && p.nulls.Get(int(pos)):
			return fmt.Errorf("page: exception at NULL cell %d", pos)
		case uint64(off)>>p.codes.Width() == 0:
			return fmt.Errorf("page: exception offset %d fits width %d", off, p.codes.Width())
		}
		p.excPos[j], p.excOff[j] = pos, off
	}
	return nil
}
