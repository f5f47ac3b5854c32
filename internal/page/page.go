// Package page defines the columnar storage page (paper §II.B.3): a
// self-describing unit holding the bit-packed codes of one column over one
// stride of tuples, together with its NULL bitmap when it has a NULL and
// its exception list when a few codes are too wide to pack. A stride whose
// codes never descend may pack only their distance from a line instead.
// Pages serialize to a compact binary format with a checksum so they can
// live on the simulated clustered filesystem and flow through the buffer
// pool.
package page

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sort"

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
// codes and a few wide ones packs at the narrow width.
//
// A line page codes a stride of at least two codes, none NULL, that never
// descend, against the line L(i) = base + ⌊i·slope / 2¹⁶⌋ through its
// first code (the base) and its last: it packs each cell's residual
// code − L(i) less bias, the smallest residual, and its exceptions hold
// such offsets too. Pack makes one only when it is smaller than the frame
// of reference. Every reader sees global codes.
type Page struct {
	ID     ID
	base   uint64
	line   bool            // the offsets are residuals from the line
	slope  uint32          // line page: the line climbs slope / 2¹⁶ a cell
	bias   int32           // line page: the smallest residual, at most 0
	codes  *bitpack.Vector // code − origin; a NULL cell and an exception pack 0
	nulls  *bitpack.Bitmap // bit set ⇒ the cell is NULL; nil when none is
	excPos []uint16        // ascending positions of the exceptions
	excOff []uint32        // excOff[j] is the offset at excPos[j]
}

// exceptionSize is the bytes an exception costs: a u16 position and a u32
// offset.
const exceptionSize = 6

// lineSize is the bytes a line page adds: its slope u32 and bias i32.
const lineSize = 8

// Pack makes the sealed page of up to StrideSize codes whose cell i is
// NULL when nulls[i] is set (nulls may be nil: none is). The base is the
// smallest non-NULL code (0 when every cell is NULL). The width is the one
// that makes the page smallest, counting the packed words and an
// exception for each offset wider than it; among widths of equal size the
// widest wins, so a page no exception pays for packs every offset at
// bitpack.WidthFor of the largest. A stride of two codes or more with no
// NULL whose codes never descend is coded against its line instead when
// that makes the page smaller.
func Pack(id ID, codes []uint64, nulls []bool) *Page {
	if len(codes) > StrideSize || nulls != nil && len(nulls) != len(codes) {
		panic(fmt.Sprintf("page: cannot pack %d codes with %d NULL flags", len(codes), len(nulls)))
	}
	lo, hi, seen, anyNull, sorted := uint64(0), uint64(0), false, false, true
	for i, c := range codes {
		sorted = sorted && (i == 0 || c >= codes[i-1])
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
	width, patched, size := packWidth(len(codes), bitpack.WidthFor(hi-lo), &byLen)
	if sorted && !anyNull && len(codes) >= 2 {
		var res [StrideSize]uint64
		var resLen [bitpack.MaxWidth + 1]int
		if slope, bias, span, ok := lineOffsets(codes, res[:len(codes)], &resLen); ok {
			if w, x, s := packWidth(len(codes), bitpack.WidthFor(span), &resLen); s+lineSize < size {
				p.base, p.line, p.slope, p.bias = codes[0], true, slope, bias
				offs, width, patched = res[:len(codes)], w, x
			}
		}
	}
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

// lineOffsets writes into res the offsets a line page packs for codes,
// two or more that never descend: cell i's residual from the line through
// the first and last code, less the smallest residual, counting them by
// bit length in byLen. It returns the line's slope, that smallest residual
// (the bias) and the largest offset, or false when the last code, the
// slope or the offsets pass 32 bits.
func lineOffsets(codes, res []uint64, byLen *[bitpack.MaxWidth + 1]int) (slope uint32, bias int32, span uint64, ok bool) {
	first, last := codes[0], codes[len(codes)-1]
	s := (last - first) << 16 / uint64(len(codes)-1)
	if last > math.MaxUint32 || s > math.MaxUint32 {
		return 0, 0, 0, false
	}
	lo, hi := int64(0), int64(0) // cell 0 lies on the line
	for i, c := range codes {
		r := int64(c) - int64(first+uint64(i)*s>>16)
		res[i] = uint64(r)
		lo, hi = min(lo, r), max(hi, r)
	}
	if lo < math.MinInt32 || hi-lo > math.MaxUint32 {
		return 0, 0, 0, false
	}
	for i := range res {
		res[i] -= uint64(lo)
		byLen[bits.Len64(res[i])]++
	}
	return uint32(s), int32(lo), uint64(hi - lo), true
}

// packWidth returns the width, at most full, that makes n offsets
// smallest, how many offsets are wider than it, and the bytes they take:
// their packed words, ⌈n/⌊64/w⌋⌉ at width w, plus exceptionSize bytes for
// each of those, byLen counting the offsets of each bit length. Among
// equal sizes the widest wins.
func packWidth(n int, full uint, byLen *[bitpack.MaxWidth + 1]int) (width uint, patched, size int) {
	size = math.MaxInt
	wide := 0 // offsets longer than w bits
	for w := full; w >= 1; w-- {
		perWord := 64 / int(w)
		if sz := (n+perWord-1)/perWord*8 + wide*exceptionSize; sz < size {
			width, patched, size = w, wide, sz
		}
		wide += byLen[w]
	}
	return width, patched, size
}

// Rows returns the number of tuples stored.
func (p *Page) Rows() int { return p.codes.Len() }

// Patched returns the number of exceptions: the codes too wide for the
// packed width.
func (p *Page) Patched() int { return len(p.excPos) }

// Sorted reports whether the page is a line page: its codes never descend
// and it packs their residuals from its line.
func (p *Page) Sorted() bool { return p.line }

// origin returns the code of cell i when its offset is 0: the base, or on
// a line page the line at i plus the bias (a sum that may wrap, as an
// offset added to it brings it back).
func (p *Page) origin(i int) uint64 {
	return p.base + uint64(int64(p.bias)) + uint64(i)*uint64(p.slope)>>16
}

// Get returns the code of cell i and whether the cell is NULL (a NULL
// cell reads as the base).
func (p *Page) Get(i int) (uint64, bool) {
	return p.code(i), p.nulls != nil && p.nulls.Get(i)
}

// code is Get's code.
func (p *Page) code(i int) uint64 {
	off := p.codes.Get(i)
	if len(p.excPos) > 0 {
		if j, ok := slices.BinarySearch(p.excPos, uint16(i)); ok {
			off = uint64(p.excOff[j])
		}
	}
	return p.origin(i) + off
}

// Gather writes the codes at the ascending positions in sel into dst
// (grown as needed) and returns them with their NULL flags as a bitmap
// over selection positions, nil when none is NULL. The packed codes are
// gathered first, a line page's each plus its line at the cell (one
// multiply and one shift); then each exception that sel holds overwrites
// its slot.
func (p *Page) Gather(sel []int, dst []uint64) ([]uint64, *bitpack.Bitmap) {
	dst = p.codes.Gather(sel, p.origin(0), dst)
	slope := uint64(p.slope)
	if len(sel) == p.Rows() { // every position: dst[i] is cell i
		if p.line {
			for i := range dst {
				dst[i] += uint64(i) * slope >> 16
			}
		}
		for j, pos := range p.excPos {
			dst[pos] = p.origin(int(pos)) + uint64(p.excOff[j])
		}
	} else {
		if p.line {
			for k, i := range sel {
				dst[k] += uint64(i) * slope >> 16
			}
		}
		k := 0 // sel[:k] lies below the exceptions still to place
		for j, pos := range p.excPos {
			at, ok := slices.BinarySearch(sel[k:], int(pos))
			if k += at; ok {
				dst[k] = p.origin(int(pos)) + uint64(p.excOff[j])
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
// set afterwards to what out held before OR its own code's test. A line
// page's codes ascend, so the positions in range are one interval: two
// binary searches find it, and it is ORed into out a word at a time.
func (p *Page) SelectRange(lo, hi uint64, out *bitpack.Bitmap) {
	if p.line {
		n := p.Rows()
		from := sort.Search(n, func(i int) bool { return p.code(i) >= lo })
		to := from + sort.Search(n-from, func(k int) bool { return p.code(from+k) > hi })
		out.SetRange(from, to)
		return
	}
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
// when there is one, the exceptions, the header and a line page's slope
// and bias), the unit of buffer-pool accounting; the serialized page is
// exactly that long.
func (p *Page) MemSize() int {
	n := p.codes.SizeBytes() + len(p.excPos)*exceptionSize + headerSize
	if p.nulls != nil {
		n += nullWords * 8
	}
	if p.line {
		n += lineSize
	}
	return n
}

const pageMagic = 0xDA5B

// Flags in header byte 26. flagNoNulls marks a page serialized without a
// NULL bitmap. Pages written before the flag existed have zero there (and
// a zero base in bytes 22–25), so they read as base 0 with a bitmap.
// flagPatched marks a page whose exception list follows its packed words;
// a page without one serializes as it did before exceptions existed.
// flagLine marks a line page, whose slope and bias follow the header and
// whose base is its first code. flagExact marks packed words whose cells
// are exactly the width, ⌊64/width⌋ a word, as bitpack lays them out;
// Marshal always sets it. A page written before it packed each code in a
// cell one bit wider, ⌊64/(width+1)⌋ a word, and reads through a repack.
const (
	flagNoNulls = 1
	flagPatched = 2
	flagLine    = 4
	flagExact   = 8
)

// Marshal serializes the page: the header, a line page's slope u32 and
// bias i32, the NULL bitmap's words when the page holds one, the packed
// words, the exceptions when there are any, and a CRC of all that.
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
	buf[26] = flagExact
	binary.LittleEndian.PutUint16(buf[0:], pageMagic)
	binary.LittleEndian.PutUint16(buf[2:], uint16(p.codes.Width()))
	binary.LittleEndian.PutUint32(buf[4:], p.ID.Table)
	binary.LittleEndian.PutUint16(buf[8:], p.ID.Column)
	binary.LittleEndian.PutUint32(buf[10:], p.ID.Stride)
	binary.LittleEndian.PutUint32(buf[14:], uint32(p.codes.Len()))
	binary.LittleEndian.PutUint32(buf[18:], uint32(len(words)))
	binary.LittleEndian.PutUint32(buf[22:], uint32(p.base))
	if p.nulls == nil {
		buf[26] |= flagNoNulls
	}
	if len(p.excPos) > 0 {
		buf[26] |= flagPatched
	}
	if p.line {
		buf[26] |= flagLine
		buf = binary.LittleEndian.AppendUint32(buf, p.slope)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.bias))
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
// older page may carry) is dropped. The packed words are adopted whole
// when the page sets flagExact; an older page's codes are repacked.
// Exceptions must ascend, lie inside the page on non-NULL cells, and not
// fit the packed width. A line page must carry no NULL bitmap, and its
// codes must never descend nor pass 32 bits.
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
	if body[26]&^(flagNoNulls|flagPatched|flagLine|flagExact) != 0 || body[27] != 0 {
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
	if p.line = body[26]&flagLine != 0; p.line {
		if nNull > 0 {
			return nil, fmt.Errorf("page: a line page carries a NULL bitmap")
		}
		off += lineSize
	}
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
	var codes *bitpack.Vector
	var err error
	if body[26]&flagExact != 0 {
		codes, err = bitpack.FromWords(width, n, raw[nNull:])
	} else {
		codes, err = repackDelimited(width, n, raw[nNull:])
	}
	if err != nil {
		return nil, fmt.Errorf("page: %w", err)
	}
	p.codes = codes
	if body[26]&flagPatched != 0 {
		if err := p.readExceptions(body[off:]); err != nil {
			return nil, err
		}
	}
	if p.line {
		p.slope = binary.LittleEndian.Uint32(body[headerSize-4:])
		p.bias = int32(binary.LittleEndian.Uint32(body[headerSize:]))
		if err := p.checkLine(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// repackDelimited returns the vector of the n codes in words as a page
// without flagExact packed them: each in a cell of width+1 bits, a word
// holding ⌊64/(width+1)⌋ cells from its low bits up, the bit above each
// code unused.
func repackDelimited(width uint, n int, words []uint64) (*bitpack.Vector, error) {
	if width < 1 || width > bitpack.MaxWidth {
		return nil, fmt.Errorf("old layout: width %d out of range [1,%d]", width, bitpack.MaxWidth)
	}
	cell := width + 1
	per := int(64 / cell)
	if len(words) != (n+per-1)/per {
		return nil, fmt.Errorf("old layout: %d words do not hold %d codes of width %d in cells of %d bits", len(words), n, width, cell)
	}
	var buf [StrideSize]uint64
	codes, mask := buf[:n], uint64(1)<<width-1
	for i := range codes {
		codes[i] = words[i/per] >> (uint(i%per) * cell) & mask
	}
	v := bitpack.NewVector(width)
	v.AppendAll(codes)
	return v, nil
}

// checkLine fails unless the line page's codes never descend and stay
// within 32 bits. Where the line climbs a cell at least the widest packed
// offset, no cell whose offset is packed lies below the one before it (an
// exception's offset passes the packed width), so only the cell after
// each exception and the two ends are decoded; otherwise every code is,
// in one pass over the unpacked offsets.
func (p *Page) checkLine() error {
	n := p.Rows()
	if n > 0 && uint64(p.slope)>>16 >= 1<<p.codes.Width()-1 {
		signed := func(i int) int64 { c, _ := p.Get(i); return int64(c) }
		for _, pos := range p.excPos {
			if i := int(pos) + 1; i < n && signed(i) < signed(i-1) {
				return fmt.Errorf("page: line page codes descend at %d", i)
			}
		}
		if first, last := signed(0), signed(n-1); first < 0 || last > math.MaxUint32 {
			return fmt.Errorf("page: line page codes %d to %d are not 32-bit codes", first, last)
		}
		return nil
	}
	var buf [StrideSize]uint64
	offs := p.codes.Unpack(0, buf[:0])
	for j, pos := range p.excPos {
		offs[pos] = uint64(p.excOff[j])
	}
	prev := int64(0)
	for i, o := range offs {
		c := int64(p.base) + int64(p.bias) + int64(uint64(i)*uint64(p.slope)>>16) + int64(o)
		switch {
		case c < 0 || c > math.MaxUint32:
			return fmt.Errorf("page: line page code %d at %d is not a 32-bit code", c, i)
		case c < prev:
			return fmt.Errorf("page: line page codes descend at %d", i)
		}
		prev = c
	}
	return nil
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
