package page

import (
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dashdb/internal/bitpack"
)

// checkCodes fails t unless p answers Get, Gather (every position, every
// other one, none) and SelectRange at every bound in bounds as the plain
// codes and NULL flags do.
func checkCodes(t testing.TB, p *Page, codes []uint64, nulls []bool, bounds []uint64) {
	t.Helper()
	null := func(i int) bool { return nulls != nil && nulls[i] }
	if p.Rows() != len(codes) {
		t.Fatalf("rows %d, want %d", p.Rows(), len(codes))
	}
	for i, c := range codes {
		got, isNull := p.Get(i)
		if isNull != null(i) || !isNull && got != c {
			t.Fatalf("Get(%d) = %d, %v; want %d, %v", i, got, isNull, c, null(i))
		}
	}
	var every, odd []int
	for i := range codes {
		every = append(every, i)
		if i%2 == 1 {
			odd = append(odd, i)
		}
	}
	for _, sel := range [][]int{every, odd, nil} {
		got, gotNulls := p.Gather(sel, nil)
		anyNull := false
		for k, i := range sel {
			isNull := gotNulls != nil && gotNulls.Get(k)
			anyNull = anyNull || isNull
			if isNull != null(i) || !isNull && got[k] != codes[i] {
				t.Fatalf("Gather of %d positions: [%d] = %d, %v; want %d, %v", len(sel), k, got[k], isNull, codes[i], null(i))
			}
		}
		if gotNulls != nil && !anyNull {
			t.Fatalf("Gather of %d positions: a NULL bitmap with no NULL", len(sel))
		}
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			out := bitpack.NewBitmap(len(codes))
			p.SelectRange(lo, hi, out)
			if nulls := p.Nulls(); nulls != nil {
				out.AndNot(nulls)
			}
			for i, c := range codes {
				if want := !null(i) && lo <= c && c <= hi; out.Get(i) != want {
					t.Fatalf("SelectRange(%d, %d): position %d (code %d, NULL %v) selected %v", lo, hi, i, c, null(i), out.Get(i))
				}
			}
			// A second range ORs into what the first selected, as a
			// predicate of several ranges does: together, every code past
			// hi or in [lo, hi].
			if hi == math.MaxUint64 {
				continue
			}
			out.Reset()
			p.SelectRange(hi+1, math.MaxUint64, out)
			p.SelectRange(lo, hi, out)
			if nulls := p.Nulls(); nulls != nil {
				out.AndNot(nulls)
			}
			for i, c := range codes {
				if want := !null(i) && (c > hi || lo <= c); out.Get(i) != want {
					t.Fatalf("SelectRange(%d, max) then (%d, %d): position %d (code %d, NULL %v) selected %v", hi+1, lo, hi, i, c, null(i), out.Get(i))
				}
			}
		}
	}
}

// rangeBounds returns bounds around and inside codes' span: below, at and
// past its ends, and some codes themselves.
func rangeBounds(codes []uint64) []uint64 {
	bounds := []uint64{0, 1 << 33}
	if len(codes) == 0 {
		return bounds
	}
	lo, hi := codes[0], codes[0]
	for _, c := range codes {
		lo, hi = min(lo, c), max(hi, c)
	}
	bounds = append(bounds, lo, hi, lo+1, hi+1, codes[len(codes)/2])
	if lo > 0 {
		bounds = append(bounds, lo-1)
	}
	if hi > 0 {
		bounds = append(bounds, hi-1)
	}
	return bounds
}

func roundTrip(t testing.TB, p *Page) *Page {
	t.Helper()
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != p.ID {
		t.Fatalf("id %v, want %v", got.ID, p.ID)
	}
	return got
}

func TestPageMarshalRoundTrip(t *testing.T) {
	id := ID{Table: 7, Column: 3, Stride: 42}
	rng := rand.New(rand.NewSource(5))
	codes := make([]uint64, 1000)
	nulls := make([]bool, 1000)
	for i := range codes {
		codes[i] = 5000 + rng.Uint64()&2047
		nulls[i] = i%17 == 0
	}
	p := Pack(id, codes, nulls)
	checkCodes(t, p, codes, nulls, rangeBounds(codes))
	checkCodes(t, roundTrip(t, p), codes, nulls, rangeBounds(codes))
}

// TestPackBaseAndWidth: the base is the smallest non-NULL code and the
// width that of the largest offset from it; NULL cells pack 0, and a page
// with no NULL holds no bitmap.
func TestPackBaseAndWidth(t *testing.T) {
	for _, c := range []struct {
		name  string
		codes []uint64
		nulls []bool
		base  uint64
		width uint
	}{
		{"clustered", []uint64{1000, 1003, 1010, 1001}, nil, 1000, 4},
		{"zero-based", []uint64{0, 5, 3}, nil, 0, 3},
		{"repeated", []uint64{77, 77, 77}, nil, 77, 1},
		{"nulls", []uint64{0, 300, 0, 310}, []bool{true, false, true, false}, 300, 4},
		{"all NULL", []uint64{0, 0}, []bool{true, true}, 0, 1},
		{"NULL flags, none set", []uint64{9, 12}, []bool{false, false}, 9, 2},
		{"empty", nil, nil, 0, 1},
	} {
		p := Pack(ID{Table: 1}, c.codes, c.nulls)
		if p.base != c.base || p.codes.Width() != c.width {
			t.Errorf("%s: base %d width %d, want %d and %d", c.name, p.base, p.codes.Width(), c.base, c.width)
		}
		anyNull := false
		for i, null := range c.nulls {
			anyNull = anyNull || null
			if null && p.codes.Get(i) != 0 {
				t.Errorf("%s: NULL cell %d packs %d", c.name, i, p.codes.Get(i))
			}
		}
		if (p.Nulls() != nil) != anyNull {
			t.Errorf("%s: holds a bitmap %v, has a NULL %v", c.name, p.Nulls() != nil, anyNull)
		}
		checkCodes(t, p, c.codes, c.nulls, rangeBounds(c.codes))
		checkCodes(t, roundTrip(t, p), c.codes, c.nulls, rangeBounds(c.codes))
	}
}

// fatTail returns n codes over base whose offsets are below 1<<narrow,
// but for an offset of 1<<wideBits plus its position at each position in
// wide.
func fatTail(n int, base uint64, narrow, wideBits uint, wide ...int) []uint64 {
	codes := make([]uint64, n)
	for i := range codes {
		codes[i] = base + uint64(i*7919)%(1<<narrow)
	}
	for _, i := range wide {
		codes[i] = base + 1<<wideBits + uint64(i)
	}
	return codes
}

// TestPackPatchesOutliers: a page packs its narrow offsets at the width
// that makes it smallest and keeps the wider ones as exceptions, the
// widest width of the fewest words winning; a page whose outliers do not
// pay for their bytes, or that has none, packs every offset.
func TestPackPatchesOutliers(t *testing.T) {
	ends := []int{0, 100, 500, 1022, 1023}
	many := make([]int, 0, 450) // 450 outliers cost 2 700 B: 10 bits save 1 368
	for i := 0; i < 450; i++ {
		many = append(many, i*2)
	}
	withNulls := make([]bool, StrideSize)
	for i := range withNulls {
		withNulls[i] = i%9 == 4
	}
	nullCodes := fatTail(StrideSize, 70_000, 10, 20, 0, 1023, 7, 600)
	for i, null := range withNulls {
		if null {
			nullCodes[i] = 0
		}
	}
	for _, c := range []struct {
		name    string
		codes   []uint64
		nulls   []bool
		width   uint
		patched int
		size    int
	}{
		// Offsets below 1<<10 and five at 1<<20: 21 bits pack 3 a word
		// (342 words), 11 bits 5 (205 words) and 10 bits 6 (171 words), so
		// 10.
		{"ends", fatTail(StrideSize, 5000, 10, 20, ends...), nil, 10, 5, 171*8 + 5*6 + 32},
		{"no outlier", fatTail(StrideSize, 5000, 10, 20), nil, 10, 0, 171*8 + 32},
		{"outliers do not pay", fatTail(StrideSize, 5000, 10, 20, many...), nil, 21, 0, 342*8 + 32},
		{"NULLs", nullCodes, withNulls, 10, 4, 171*8 + 4*6 + 128 + 32},
		// 40 offsets below 8 pack 21 a word at 3 bits (2 words), and one
		// past 1<<30 would take 31 (20 words).
		{"short page", fatTail(40, 9, 3, 30, 39), nil, 3, 1, 2*8 + 6 + 32},
	} {
		p := Pack(ID{Table: 2}, c.codes, c.nulls)
		if p.codes.Width() != c.width || p.Patched() != c.patched || p.MemSize() != c.size {
			t.Errorf("%s: width %d, %d exceptions, %d B; want %d, %d, %d B", c.name, p.codes.Width(), p.Patched(), p.MemSize(), c.width, c.patched, c.size)
		}
		for j, pos := range p.excPos {
			if p.codes.Get(int(pos)) != 0 || c.codes[pos]-p.base != uint64(p.excOff[j]) {
				t.Errorf("%s: exception %d at %d packs %d and keeps %d", c.name, j, pos, p.codes.Get(int(pos)), p.excOff[j])
			}
		}
		if len(p.Marshal()) != p.MemSize() {
			t.Errorf("%s: Marshal %d bytes, MemSize %d", c.name, len(p.Marshal()), p.MemSize())
		}
		checkCodes(t, p, c.codes, c.nulls, rangeBounds(c.codes))
		checkCodes(t, roundTrip(t, p), c.codes, c.nulls, rangeBounds(c.codes))
	}
}

// TestPageGoldenPatched pins the patched layout: flag 2 in byte 26 and,
// between the packed words and the CRC, each exception's position (u16)
// and offset (u32). The page is codes 100 101 102 103 100 101 102 103 100
// 5100 of table 4, column 1, stride 9: offsets to 3 and one of 5 000 pack
// at 6 bits, the widest width that holds ten codes in one word, with
// 5 000 at position 9 an exception. The same page as the layout before
// flag 8 wrote it (5 bits, each in a six-bit cell) still reads with its
// codes and exception.
func TestPageGoldenPatched(t *testing.T) {
	codes := []uint64{100, 101, 102, 103, 100, 101, 102, 103, 100, 5100}
	data := golden(t, "5bda0600040000000100090000000a0000000100000064000000"+"0b00"+ // header, flags: no NULLs, patched, exact
		"40200c40200c0000"+ // one word: nine offsets in six-bit cells, and a 0
		"0900"+"88130000"+ // the exception: position 9, offset 5 000
		"00000000") // CRC, filled in
	p := Pack(ID{Table: 4, Column: 1, Stride: 9}, codes, nil)
	if got := p.Marshal(); hex.EncodeToString(got) != hex.EncodeToString(data) {
		t.Fatalf("Marshal\n%x\nwant\n%x", got, data)
	}
	checkFixture(t, data, codes, nil)
	old := golden(t, "5bda0500040000000100090000000a0000000100000064000000"+"0300"+ // header, flags: no NULLs, patched
		"40200c40200c0000"+ // one word: nine offsets of five bits in six-bit cells, and a 0
		"0900"+"88130000"+ // the exception: position 9, offset 5 000
		"00000000") // CRC, filled in
	pd := checkFixture(t, old, codes, nil)
	if pd.codes.Width() != 5 || pd.Patched() != 1 || pd.excPos[0] != 9 || pd.excOff[0] != 5000 || pd.Sorted() {
		t.Fatalf("old patched page: width %d, exceptions %v %v, line page %v", pd.codes.Width(), pd.excPos, pd.excOff, pd.Sorted())
	}
}

// TestPageUnmarshalBadExceptions: an exception list that does not fill
// its bytes, whose positions do not ascend or pass the page's end, that
// patches a NULL cell, or whose offset would fit the packed width is an
// error even under a valid checksum, in either layout.
func TestPageUnmarshalBadExceptions(t *testing.T) {
	for _, data := range badExceptionPages() {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("page %x read", data)
		}
	}
}

// badExceptionPages returns patched pages edited to break one rule of the
// exception list each, resealed, in both layouts.
func badExceptionPages() [][]byte {
	codes := fatTail(100, 10, 4, 16, 3, 50, 99)
	nulls := make([]bool, len(codes))
	nulls[20] = true
	codes[20] = 0
	var out [][]byte
	for _, good := range bothLayouts(Pack(ID{Table: 5}, codes, nulls)) { // width 4: 7 words (9 before flag 8), 3 exceptions
		excAt := len(good) - 4 - 3*exceptionSize
		for _, edit := range []func([]byte) []byte{
			func(b []byte) []byte { return append(b[:len(b)-4:len(b)-4], 0, 0, 0, 0, 0) },     // a byte past the last exception
			func(b []byte) []byte { binary.LittleEndian.PutUint16(b[excAt+6:], 3); return b }, // 3 then 3
			func(b []byte) []byte { binary.LittleEndian.PutUint16(b[excAt:], 60); return b },  // 60 then 50
			func(b []byte) []byte { binary.LittleEndian.PutUint16(b[excAt+12:], 100); return b },
			func(b []byte) []byte { binary.LittleEndian.PutUint16(b[excAt+6:], 20); return b }, // the NULL cell
			func(b []byte) []byte { binary.LittleEndian.PutUint32(b[excAt+2:], 15); return b }, // fits 4 bits
			func(b []byte) []byte { return append(b[:excAt:excAt], 0, 0, 0, 0) },               // flagged, none listed
		} {
			data := edit(append([]byte(nil), good...))
			reseal(data)
			out = append(out, data)
		}
	}
	return out
}

// sortedStride is a stride of codes with its NULL flags (nil: none) and
// whether Pack codes it against its line.
type sortedStride struct {
	name  string
	codes []uint64
	nulls []bool
	line  bool
}

// sortedStrides returns strides whose codes never descend but for the
// ones named so.
func sortedStrides() []sortedStride {
	gen := func(n int, f func(i int) uint64) []uint64 {
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = f(i)
		}
		return codes
	}
	lifted := gen(StrideSize, func(i int) uint64 { return 7_000 + 1000*uint64(i) })
	for i := 500; i < 503; i++ {
		lifted[i] = lifted[503] // three cells lifted to the next: residuals 3 000, 2 000, 1 000
	}
	descends := gen(StrideSize, func(i int) uint64 { return 9_000 + 3*uint64(i) })
	descends[StrideSize-1] = 9_000
	oneNull := make([]bool, StrideSize)
	oneNull[300] = true
	return []sortedStride{
		{"consecutive", gen(StrideSize, func(i int) uint64 { return 1_000_000 + uint64(i) }), nil, true},
		{"plateaus", gen(StrideSize, func(i int) uint64 { return 40_000 + uint64(i/60) }), nil, true},
		{"steep", gen(StrideSize, func(i int) uint64 { return 5 + 4093*uint64(i) + uint64(i*7)%13 }), nil, true},
		{"lifted run", lifted, nil, true},
		{"dips from 0", gen(StrideSize, func(i int) uint64 { return uint64(max(0, i-100)) * 9 }), nil, true},
		{"near 32 bits", gen(StrideSize, func(i int) uint64 { return 1<<32 - 5_000 + 4*uint64(i) }), nil, true},
		{"one code", gen(StrideSize, func(int) uint64 { return 77 }), nil, false},
		{"two codes", gen(StrideSize, func(i int) uint64 { return 10 + 90*uint64(i/512) }), nil, false},
		{"descends at the end", descends, nil, false},
		{"one NULL", gen(StrideSize, func(i int) uint64 { return 500 + 7*uint64(i) }), oneNull, false},
		{"short", gen(77, func(i int) uint64 { return 3*uint64(i) + uint64(i%2) }), nil, true},
		{"two cells", []uint64{3, 100_000}, nil, false},
		{"slope past 32 bits", gen(StrideSize, func(i int) uint64 { return uint64(i) << 20 }), nil, false},
	}
}

// TestPackSortedStrides: a stride of two codes or more with no NULL whose
// codes never descend is a line page when that is smaller than its frame
// of reference, by the line's eight bytes at least: steep climbs, plateaus,
// codes below the line (a negative bias) and a run lifted off it (kept as
// exceptions) all are; one code, a step, a descent, a NULL or a slope past
// 32 bits are not. Every page reads back as its codes, before and after a
// round trip.
func TestPackSortedStrides(t *testing.T) {
	for _, c := range sortedStrides() {
		p := Pack(ID{Table: 6}, c.codes, c.nulls)
		if p.Sorted() != c.line {
			t.Errorf("%s: line page %v, want %v", c.name, p.Sorted(), c.line)
		}
		if len(p.Marshal()) != p.MemSize() {
			t.Errorf("%s: Marshal %d bytes, MemSize %d", c.name, len(p.Marshal()), p.MemSize())
		}
		checkCodes(t, p, c.codes, c.nulls, rangeBounds(c.codes))
		checkCodes(t, roundTrip(t, p), c.codes, c.nulls, rangeBounds(c.codes))
	}
	// Known line pages: consecutive codes lie on their line (16 words of
	// width 1); the lifted run's three residuals are exceptions; codes
	// flat at 0 then climbing lie below the line from 0 (171 words of 10
	// bits).
	for _, c := range []struct {
		name    string
		patched int
		bias    int32
		size    int
	}{
		{"consecutive", 0, 0, 16*8 + lineSize + 32},
		{"lifted run", 3, 0, 16*8 + 3*exceptionSize + lineSize + 32},
		{"dips from 0", 0, -812, 171*8 + lineSize + 32},
	} {
		for _, s := range sortedStrides() {
			if s.name != c.name {
				continue
			}
			p := Pack(ID{}, s.codes, nil)
			if p.Patched() != c.patched || p.bias != c.bias || p.MemSize() != c.size {
				t.Errorf("%s: %d exceptions, bias %d, %d B; want %d, %d, %d B", c.name, p.Patched(), p.bias, p.MemSize(), c.patched, c.bias, c.size)
			}
		}
	}
}

// TestPageGoldenSorted pins the line layout: flags 1|4 in byte 26, the
// first code as the base, then the slope u32 and bias i32. The page is
// codes 1000 1498 2000 2500 3001 3500 4000 4502 5000 5501 of table 4,
// column 2, stride 3: its line climbs 4 501/9 a cell, so the slope is
// ⌊4 501·2¹⁶/9⌋ = 32 775 281 (rounded down: up, cell 9's residual would be
// 0), the residuals are 0 −2 0 0 1 0 0 2 0 1, the bias is −2, and the
// offsets 2 0 2 2 3 2 2 4 2 3 pack at 3 bits, 21 a word: one word and
// 48 B, where the frame of reference takes three words of 13 bits and
// 56 B. The same page as the layout before flag 8 wrote it (each offset
// in a four-bit cell) still reads with its line.
func TestPageGoldenSorted(t *testing.T) {
	codes := []uint64{1000, 1498, 2000, 2500, 3001, 3500, 4000, 4502, 5000, 5501}
	data := golden(t, "5bda0300040000000200030000000a00000001000000e8030000"+"0d00"+ // header, flags: no NULLs, line, exact
		"711cf401"+"feffffff"+ // slope 32 775 281, bias −2
		"8234891a00000000"+ // one word: ten offsets in three-bit cells
		"00000000") // CRC, filled in
	p := Pack(ID{Table: 4, Column: 2, Stride: 3}, codes, nil)
	if got := p.Marshal(); hex.EncodeToString(got) != hex.EncodeToString(data) {
		t.Fatalf("Marshal\n%x\nwant\n%x", got, data)
	}
	if got := checkFixture(t, data, codes, nil); !got.Sorted() || got.MemSize() != 48 {
		t.Fatalf("line page %v of %d B, want a line page of 48 B", got.Sorted(), got.MemSize())
	}
	old := golden(t, "5bda0300040000000200030000000a00000001000000e8030000"+"0500"+ // header, flags: no NULLs, line
		"711cf401"+"feffffff"+ // slope 32 775 281, bias −2
		"0222234232000000"+ // one word: ten offsets in four-bit cells
		"00000000") // CRC, filled in
	if got := marshalDelimited(p); hex.EncodeToString(got) != hex.EncodeToString(old) {
		t.Fatalf("the layout before flag 8\n%x\nwant\n%x", got, old)
	}
	pd := checkFixture(t, old, codes, nil)
	if !pd.Sorted() || pd.slope != 32_775_281 || pd.bias != -2 || pd.base != 1000 || pd.Patched() != 0 {
		t.Fatalf("old line page: line %v, slope %d, bias %d, base %d, %d exceptions", pd.Sorted(), pd.slope, pd.bias, pd.base, pd.Patched())
	}
}

// TestPageUnmarshalBadSorted: a line page that carries a NULL bitmap,
// whose residuals decode to codes that descend, whose slope or bias takes
// a code past 32 bits or below 0, or that sets the unknown flag 16 is an
// error even under a valid checksum, in either layout.
func TestPageUnmarshalBadSorted(t *testing.T) {
	for _, data := range badSortedPages(t) {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("page %x read", data)
		}
	}
}

// badSortedPages returns line pages edited to break one rule each,
// resealed, in both layouts. The lifted run's page and the page near 32 bits climb more a
// cell than their widest packed offset, so Unmarshal checks them at their
// exceptions and ends only; the plateaus' page it checks cell by cell.
func badSortedPages(t testing.TB) [][]byte {
	var lifted, plateaus, top []uint64
	for _, s := range sortedStrides() {
		switch s.name {
		case "lifted run":
			lifted = s.codes
		case "plateaus":
			plateaus = s.codes
		case "near 32 bits":
			top = s.codes
		}
	}
	patchedPage, plateauPage := Pack(ID{}, lifted, nil), Pack(ID{}, plateaus, nil)
	if !patchedPage.Sorted() || patchedPage.Patched() != 3 || !plateauPage.Sorted() {
		t.Fatal("the strides must pack as line pages")
	}
	// Some cell of the plateaus, raised to the widest packed offset,
	// passes the code of the cell after it.
	widest, at := uint64(1)<<plateauPage.codes.Width()-1, -1
	for i := 0; i+1 < plateauPage.Rows() && at < 0; i++ {
		if plateauPage.origin(i)+widest > plateauPage.code(i+1) {
			at = i
		}
	}
	if at < 0 {
		t.Fatal("no cell of the plateaus can be raised past its successor")
	}
	raise := func(b []byte) []byte {
		cell := plateauPage.codes.Width()
		if b[26]&flagExact == 0 {
			cell++ // the layout before flag 8
		}
		per := int(64 / cell)
		word := headerSize - 4 + lineSize + 8*(at/per)
		w := binary.LittleEndian.Uint64(b[word:])
		binary.LittleEndian.PutUint64(b[word:], w|widest<<(uint(at%per)*cell))
		return b
	}
	var out [][]byte
	for _, edit := range []struct {
		p    *Page
		edit func([]byte) []byte
	}{
		{patchedPage, func(b []byte) []byte { // a NULL bitmap holding cell 9
			b[26] &^= flagNoNulls
			bitmap := make([]byte, nullWords*8)
			bitmap[1] = 2
			return slices.Concat(b[:headerSize-4+lineSize], bitmap, b[headerSize-4+lineSize:])
		}},
		{plateauPage, raise},
		{patchedPage, func(b []byte) []byte { // cell 502 lifted past cell 503
			binary.LittleEndian.PutUint32(b[len(b)-4-exceptionSize+2:], 1500)
			return b
		}},
		{Pack(ID{}, top, nil), func(b []byte) []byte { binary.LittleEndian.PutUint32(b[28:], math.MaxUint32); return b }},
		{Pack(ID{}, top, nil), func(b []byte) []byte { binary.LittleEndian.PutUint32(b[32:], math.MaxInt32); return b }},
		{plateauPage, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[32:], 1<<31); return b }}, // −2³¹
		{plateauPage, func(b []byte) []byte { b[26] |= 16; return b }},
	} {
		for _, data := range bothLayouts(edit.p) {
			data = edit.edit(data)
			reseal(data)
			out = append(out, data)
		}
	}
	return out
}

// TestPageMemSizeExact: the packed words, the bitmap only when held, and
// the 32-byte header; the serialized page is exactly that long.
func TestPageMemSizeExact(t *testing.T) {
	codes := make([]uint64, StrideSize)
	for i := range codes {
		codes[i] = 1<<20 + uint64(i%100) // width 7: 9 codes a word
	}
	nulls := make([]bool, StrideSize)
	nulls[3] = true
	for _, c := range []struct {
		nulls []bool
		want  int
	}{{nil, 114*8 + 32}, {nulls, 114*8 + 128 + 32}} {
		p := Pack(ID{}, codes, c.nulls)
		if p.MemSize() != c.want || len(p.Marshal()) != c.want {
			t.Errorf("MemSize %d, Marshal %d bytes; want %d", p.MemSize(), len(p.Marshal()), c.want)
		}
	}
}

// TestPageGoldenPreBaseLayout: a page serialized before pages carried a
// base and flags (bytes 22–27 zero, bitmap always present) still reads
// with its codes and NULLs. The bytes were written by that release's
// Marshal: width 4, codes 3 0 7 15 9 0 12 1 2 11, cells 1 and 5 NULL.
func TestPageGoldenPreBaseLayout(t *testing.T) {
	golden := "5bda0400030000000200050000000a00000001000000000000000000" + // header
		"2200000000000000" + strings.Repeat("00", 15*8) + // NULL bitmap: bits 1 and 5
		"039c97000b620100" + // one word: ten codes in five-bit cells
		"e8d74a89" // CRC
	data, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := (ID{Table: 3, Column: 2, Stride: 5}); p.ID != want {
		t.Fatalf("id %v, want %v", p.ID, want)
	}
	codes := []uint64{3, 0, 7, 15, 9, 0, 12, 1, 2, 11}
	nulls := []bool{false, true, false, false, false, true, false, false, false, false}
	checkFixture(t, data, codes, nulls)
	if p.MemSize() != 8+128+32 {
		t.Fatalf("MemSize %d: the bitmap it holds counts", p.MemSize())
	}
}

// TestPageGoldenExact pins the current layout, flag 8 in byte 26: cells of
// exactly the width, ⌊64/width⌋ a word from the low bits up.
//   - A frame-of-reference page with NULLs: the codes of
//     TestPageGoldenPreBaseLayout over base 1 pack offsets 2 0 6 14 8 0 11
//     0 1 10 at 4 bits, 16 a word.
//   - Width 1: 70 codes, 501 at every third position from 0 and 500
//     elsewhere, pack 64 a word: two words.
//   - Width 32: offsets 0, 2³²−1, 2³¹ and 3·2³⁰ pack 2 a word. At 31
//     bits three would be exceptions.
func TestPageGoldenExact(t *testing.T) {
	w1 := make([]uint64, 70)
	for i := range w1 {
		w1[i] = 500
		if i%3 == 0 {
			w1[i] = 501
		}
	}
	for _, c := range []struct {
		name   string
		id     ID
		codes  []uint64
		nulls  []bool
		width  uint
		golden string
	}{
		{"FOR", ID{Table: 3, Column: 2, Stride: 5}, []uint64{3, 0, 7, 15, 9, 0, 12, 1, 2, 11},
			[]bool{false, true, false, false, false, true, false, false, false, false}, 4,
			"5bda0400030000000200050000000a00000001000000010000000800" + // header, base 1, flags: exact
				"2200000000000000" + strings.Repeat("00", 15*8) + // NULL bitmap: bits 1 and 5
				"02e6080ba1000000" + // one word: ten offsets in four-bit cells
				"00000000"},
		{"width 1", ID{Table: 8, Column: 1, Stride: 2}, w1, nil, 1,
			"5bda0100080000000100020000004600000002000000f40100000900" + // header, base 500, flags: no NULLs, exact
				"4992244992244992" + "2400000000000000" + // bits 0, 3, …, 63, then 66 and 69
				"00000000"},
		{"width 32", ID{Table: 8, Column: 3, Stride: 1}, []uint64{0, 1<<32 - 1, 1 << 31, 3 << 30}, nil, 32,
			"5bda2000080000000300010000000400000002000000000000000900" + // header, base 0, flags: no NULLs, exact
				"00000000ffffffff" + "00000080000000c0" + // two offsets a word
				"00000000"},
	} {
		data := golden(t, c.golden)
		p := Pack(c.id, c.codes, c.nulls)
		if p.codes.Width() != c.width || p.Patched() != 0 || p.Sorted() {
			t.Fatalf("%s: width %d, %d exceptions, line page %v; want width %d, a frame of reference", c.name, p.codes.Width(), p.Patched(), p.Sorted(), c.width)
		}
		if got := p.Marshal(); hex.EncodeToString(got) != hex.EncodeToString(data) {
			t.Fatalf("%s: Marshal\n%x\nwant\n%x", c.name, got, data)
		}
		checkFixture(t, data, c.codes, c.nulls)
		checkFixture(t, marshalDelimited(p), c.codes, c.nulls)
	}
}

func TestPageChecksumDetectsCorruption(t *testing.T) {
	data := Pack(ID{Table: 1}, []uint64{1, 2, 3}, nil).Marshal()
	data[30] ^= 0xff
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("corruption must be detected")
	}
}

func TestPageUnmarshalTruncated(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil input must error")
	}
	if _, err := Unmarshal(make([]byte, 10)); err == nil {
		t.Fatal("short input must error")
	}
	data := Pack(ID{}, []uint64{1}, []bool{true}).Marshal()
	if _, err := Unmarshal(data[:len(data)-20]); err == nil {
		t.Fatal("truncated body must error")
	}
}

// reseal rewrites the checksum of data after a header edit.
func reseal(data []byte) {
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
}

// golden returns the page bytes h spells in hex, its CRC filled in.
func golden(t testing.TB, h string) []byte {
	t.Helper()
	data, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	reseal(data)
	return data
}

// checkFixture fails t unless data reads as a page that answers as codes
// and NULL flags do, and whose Marshal, in the current layout and exactly
// MemSize bytes, reads back as the same codes, exceptions and line; it
// returns the page read.
func checkFixture(t testing.TB, data []byte, codes []uint64, nulls []bool) *Page {
	t.Helper()
	p, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	checkCodes(t, p, codes, nulls, rangeBounds(codes))
	again := p.Marshal()
	if again[26]&flagExact == 0 || len(again) != p.MemSize() {
		t.Fatalf("marshalled again: flags %#x, %d bytes, MemSize %d", again[26], len(again), p.MemSize())
	}
	q, err := Unmarshal(again)
	if err != nil {
		t.Fatal(err)
	}
	checkCodes(t, q, codes, nulls, rangeBounds(codes))
	if q.ID != p.ID || q.base != p.base || q.Sorted() != p.Sorted() || q.slope != p.slope || q.bias != p.bias ||
		!slices.Equal(q.excPos, p.excPos) || !slices.Equal(q.excOff, p.excOff) {
		t.Fatalf("marshalled again: %+v, read %+v", q, p)
	}
	return p
}

// marshalDelimited returns p's bytes as Marshal wrote them before flag 8:
// the flag clear, and each code in a cell one bit wider than the width,
// ⌊64/(width+1)⌋ a word.
func marshalDelimited(p *Page) []byte {
	data := p.Marshal()
	w := p.codes.Width()
	per := int(64 / (w + 1))
	words := make([]uint64, (p.Rows()+per-1)/per)
	for i := 0; i < p.Rows(); i++ {
		words[i/per] |= p.codes.Get(i) << (uint(i%per) * (w + 1))
	}
	at := headerSize - 4
	if p.line {
		at += lineSize
	}
	if p.nulls != nil {
		at += nullWords * 8
	}
	out := slices.Clone(data[:at])
	for _, word := range words {
		out = binary.LittleEndian.AppendUint64(out, word)
	}
	out = append(out, data[at+8*len(p.codes.Words()):]...)
	out[26] &^= flagExact
	binary.LittleEndian.PutUint32(out[18:], uint32(len(words)))
	reseal(out)
	return out
}

// bothLayouts returns p's bytes in the current layout and in the one
// before flag 8.
func bothLayouts(p *Page) [2][]byte {
	return [2][]byte{p.Marshal(), marshalDelimited(p)}
}

// TestPageUnmarshalInconsistentHeader: a header whose code count the
// packed words cannot hold, whose flags are unknown, that claims a bitmap,
// exceptions or a line the body lacks, or whose flag 8 names the other
// layout (so the word count does not fit it) is an error even under a
// valid checksum, in either layout.
func TestPageUnmarshalInconsistentHeader(t *testing.T) {
	p := Pack(ID{}, []uint64{1, 30, 60, 90, 120, 150, 180, 200}, nil) // width 8: one word of 8, two of 7 before flag 8
	if p.Patched() != 0 || p.codes.Width() != 8 || len(p.codes.Words()) != 1 {
		t.Fatalf("width %d in %d words with %d exceptions, want 8 in 1 and none", p.codes.Width(), len(p.codes.Words()), p.Patched())
	}
	for _, good := range bothLayouts(p) {
		for _, edit := range []func([]byte){
			func(b []byte) { binary.LittleEndian.PutUint32(b[14:], 100) }, // 100 codes in 1 or 2 words
			func(b []byte) { b[26] |= 4 },                                 // a line the body does not hold
			func(b []byte) { b[27] = 1 },
			func(b []byte) { b[26] &^= flagNoNulls }, // a bitmap the body does not hold
			func(b []byte) { b[26] |= 2 },            // exceptions the body does not hold
			func(b []byte) { b[26] |= 16 },
			func(b []byte) { b[26] ^= flagExact }, // 8 codes in 1 word of 7 cells, or 2 words of 8
		} {
			data := slices.Clone(good)
			edit(data)
			reseal(data)
			if _, err := Unmarshal(data); err == nil {
				t.Fatalf("edited header %x read", data[:28])
			}
		}
	}
}

func TestPageBadMagic(t *testing.T) {
	data := Pack(ID{}, []uint64{1}, nil).Marshal()
	data[0] = 0
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("bad magic must error (and not pass checksum)")
	}
}

func TestPageMemSizeReflectsWidth(t *testing.T) {
	narrow := make([]uint64, StrideSize)
	wide := make([]uint64, StrideSize)
	for i := range narrow {
		narrow[i] = 1<<30 + uint64(i%2) // a wide code, a narrow span
		wide[i] = uint64(i) << 20
	}
	n, w := Pack(ID{}, narrow, nil), Pack(ID{}, wide, nil)
	if n.MemSize() >= w.MemSize() {
		t.Errorf("narrow %d must be smaller than wide %d", n.MemSize(), w.MemSize())
	}
}

// Property: Pack → Marshal → Unmarshal answers as the codes do, for
// random pages of random span, base, NULL density and outliers, sorted or
// not; some of the pages drawn are patched, some are line pages and some
// patched line pages.
func TestPageRoundTripProperty(t *testing.T) {
	patched, line, patchedLine := 0, 0, 0
	f := func(seed int64, widthSel uint8, nSel uint16) bool {
		codes, nulls := drawPage(seed, widthSel, nSel)
		p := Pack(ID{Table: uint32(seed)}, codes, nulls)
		switch {
		case p.Sorted() && p.Patched() > 0:
			patchedLine++
		case p.Sorted():
			line++
		case p.Patched() > 0:
			patched++
		}
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		checkCodes(t, got, codes, nulls, rangeBounds(codes))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if patched == 0 || line == 0 || patchedLine == 0 {
		t.Errorf("of the drawn pages %d were patched, %d line pages and %d patched line pages; want some of each", patched, line, patchedLine)
	}
}

// drawPage draws up to a stride of codes of some span over some base, with
// NULLs at some density (none, some or all) and, on some pages, outliers:
// a cell in every few, tens or hundreds whose code lies anywhere up to 32
// bits. A third of the pages are sorted instead: each code climbs a step
// below the span (and below 2¹⁶) from the last, plus noise no wider than
// the step, and the outliers are cells lifted to the code after them,
// which leaves the codes sorted.
func drawPage(seed int64, widthSel uint8, nSel uint16) ([]uint64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	width := uint(widthSel%32) + 1
	n := int(nSel) % (StrideSize + 1)
	base := rng.Uint64() & (1<<32 - 1) >> (rng.Intn(33))
	span := uint64(1)<<width - 1
	density := []int{0, 0, 10, 2, 1}[rng.Intn(5)]
	outliers := []int{0, 0, 300, 60, 5}[rng.Intn(5)]
	codes, nulls := make([]uint64, n), make([]bool, n)
	sorted := rng.Intn(3) == 0
	if sorted {
		step := 1 + rng.Uint64()&min(span, 1<<16-1) // a slope past 32 bits makes no line page
		noise := max(1, step>>rng.Intn(16))
		for i := range codes {
			codes[i] = min(base+uint64(i)*step+rng.Uint64()%noise, 1<<32-1)
		}
		for i := n - 2; i >= 0; i-- {
			if outliers > 0 && rng.Intn(outliers) == 0 {
				codes[i] = codes[i+1]
			}
		}
		if rng.Intn(4) > 0 {
			density = 0
		}
	}
	for i := range codes {
		if !sorted {
			codes[i] = min(base+rng.Uint64()&span, 1<<32-1)
			if outliers > 0 && rng.Intn(outliers) == 0 {
				codes[i] = max(base, rng.Uint64()&(1<<32-1))
			}
		}
		nulls[i] = density > 0 && rng.Intn(density) == 0
		if nulls[i] {
			codes[i] = 0
		}
	}
	if density == 0 && rng.Intn(2) == 0 {
		nulls = nil
	}
	return codes, nulls
}

// roundTripSeed is one input of FuzzPageRoundTrip, drawPage's arguments,
// and of FuzzPageUnmarshal, raw bytes for Unmarshal. codes and nulls are
// what raw reads as when it is a page packed here; codes is nil for raw
// that is no page, or a page Unmarshal must refuse.
type roundTripSeed struct {
	seed     int64
	widthSel uint8
	nSel     uint16
	raw      []byte
	codes    []uint64
	nulls    []bool
}

// roundTripSeeds are FuzzPageRoundTrip's and FuzzPageUnmarshal's seeds:
// patched pages, line pages (one patched), exception lists and line pages
// Unmarshal must refuse, and pages in the layout before flag 8.
func roundTripSeeds(tb testing.TB) []roundTripSeed {
	packed := func(seed int64, widthSel uint8, codes []uint64, nulls []bool, marshal func(*Page) []byte) roundTripSeed {
		return roundTripSeed{seed, widthSel, uint16(len(codes)), marshal(Pack(ID{Table: 9}, codes, nulls)), codes, nulls}
	}
	current := (*Page).Marshal
	tail := fatTail(StrideSize, 77, 9, 24, 0, 5, 1023)
	seeds := []roundTripSeed{
		{seed: 1, widthSel: 4, nSel: 1000, raw: []byte{}},
		{seed: 2, widthSel: 31, nSel: 1024, raw: []byte{0x5b, 0xda}},
		packed(3, 0, []uint64{4, 4, 5}, []bool{false, true, false}, current),
		packed(4, 9, tail, nil, current),
	}
	for _, s := range sortedStrides() {
		if s.name == "plateaus" || s.name == "lifted run" {
			seeds = append(seeds, packed(int64(len(s.name)), 12, s.codes, nil, current))
		}
	}
	for i, bad := range slices.Concat(badExceptionPages(), badSortedPages(tb)) {
		seeds = append(seeds, roundTripSeed{seed: int64(5 + i), widthSel: uint8(i), nSel: 1024, raw: bad})
	}
	for i, s := range sortedStrides() {
		seeds = append(seeds, packed(int64(100+i), uint8(i), s.codes, s.nulls, marshalDelimited))
	}
	return append(seeds, packed(200, 20, tail, nil, marshalDelimited))
}

// TestPageRoundTripSeeds runs every seed of FuzzPageRoundTrip through
// checkCodes' full rangeBounds sweep, which the fuzz body samples: the page
// drawPage draws from it and, where the raw bytes are a page packed here,
// the page they read as.
func TestPageRoundTripSeeds(t *testing.T) {
	for _, s := range roundTripSeeds(t) {
		codes, nulls := drawPage(s.seed, s.widthSel, s.nSel)
		checkCodes(t, roundTrip(t, Pack(ID{Stride: uint32(s.nSel)}, codes, nulls)), codes, nulls, rangeBounds(codes))
		if s.codes == nil {
			continue
		}
		p, err := Unmarshal(s.raw)
		if err != nil {
			t.Fatalf("seed %d: %v", s.seed, err)
		}
		checkCodes(t, p, s.codes, s.nulls, rangeBounds(s.codes))
	}
}

// FuzzPageUnmarshal: Unmarshal of any bytes returns a page or an error,
// never a panic, and a page it returns answers Get, Gather and
// SelectRange. It draws no page of its own, so minimizing an input costs
// one Unmarshal and one pass over its cells.
func FuzzPageUnmarshal(f *testing.F) {
	for _, s := range roundTripSeeds(f) {
		f.Add(s.raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if p, err := Unmarshal(raw); err == nil {
			for i := 0; i < p.Rows(); i++ {
				p.Get(i)
			}
			p.Gather([]int{0, p.Rows() / 2}[:min(p.Rows(), 2)], nil)
			p.SelectRange(0, 1<<32, bitpack.NewBitmap(p.Rows()))
		}
	})
}

// FuzzPageRoundTrip: a page packed from drawn codes reads back through
// Marshal and Unmarshal as those codes. An odd nSel draws a short page,
// 1 to 1 023 codes, the form every open stride rests in; seeds of 1, 2,
// 63, 64, 65 and 1 023 codes start it there. Its range checks are both
// open ends and two bounds drawn from rangeBounds, so an input costs a few
// SelectRange sweeps instead of all of rangeBounds' pairs;
// TestPageRoundTripSeeds runs the seeds through every pair, and
// FuzzPageUnmarshal feeds the seeds' raw bytes to Unmarshal.
func FuzzPageRoundTrip(f *testing.F) {
	for _, s := range roundTripSeeds(f) {
		f.Add(s.seed, s.widthSel, s.nSel)
	}
	for _, n := range []uint16{1, 2, 63, 64, 65, StrideSize - 1} {
		f.Add(int64(n), uint8(n), 2*n-1) // odd: n codes
	}
	f.Fuzz(func(t *testing.T, seed int64, widthSel uint8, nSel uint16) {
		if nSel%2 == 1 {
			nSel = 1 + nSel/2%(StrideSize-1)
		}
		codes, nulls := drawPage(seed, widthSel, nSel)
		got, err := Unmarshal(Pack(ID{Stride: uint32(nSel)}, codes, nulls).Marshal())
		if err != nil {
			t.Fatal(err)
		}
		all, rng := rangeBounds(codes), rand.New(rand.NewSource(^seed))
		checkCodes(t, got, codes, nulls, []uint64{0, 1 << 33, all[rng.Intn(len(all))], all[rng.Intn(len(all))]})
	})
}

// BenchmarkPageGather gathers a stride of codes from a page packed at 24
// bits (two codes a word), from a patched page whose offsets are 17 bits
// but for ten of 24 (packed three a word at 21 bits, the widest of the
// widths 17–21 that all hold three, with ten exceptions), and from a line
// page of codes climbing 4 096 a cell plus noise below 16 (residuals of 5
// bits, twelve a word), over every position and over every eighth. It reports 0
// allocs/op: the patch is a loop over the exceptions, not a copy, and the
// line one multiply and one shift a cell.
func BenchmarkPageGather(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	wide, narrow := make([]uint64, StrideSize), make([]uint64, StrideSize)
	for i := range wide {
		wide[i] = rng.Uint64() & (1<<24 - 1)
		narrow[i] = rng.Uint64() & (1<<17 - 1)
	}
	wide[0] = 1<<24 - 1
	for j := 0; j < 10; j++ {
		narrow[j*101] = 1<<23 + uint64(j)
	}
	unpatched, patched := Pack(ID{}, wide, nil), Pack(ID{}, narrow, nil)
	if unpatched.codes.Width() != 24 || unpatched.Patched() != 0 || patched.codes.Width() != 21 || patched.Patched() != 10 {
		b.Fatalf("pages at %d and %d bits with %d and %d exceptions", unpatched.codes.Width(), patched.codes.Width(), unpatched.Patched(), patched.Patched())
	}
	line := Pack(ID{}, climbing(rng), nil)
	if !line.Sorted() || line.codes.Width() != 5 || line.Patched() != 0 {
		b.Fatalf("line page %v at %d bits with %d exceptions", line.Sorted(), line.codes.Width(), line.Patched())
	}
	var every, eighth []int
	for i := 0; i < StrideSize; i++ {
		every = append(every, i)
		if i%8 == 0 {
			eighth = append(eighth, i)
		}
	}
	for _, pg := range []struct {
		name string
		p    *Page
	}{{"unpatched24", unpatched}, {"patched21x10", patched}, {"line5", line}} {
		for _, sel := range []struct {
			name string
			sel  []int
		}{{"full", every}, {"eighth", eighth}} {
			b.Run(pg.name+"/"+sel.name, func(b *testing.B) {
				dst := make([]uint64, StrideSize)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dst, _ = pg.p.Gather(sel.sel, dst)
				}
			})
		}
	}
}

// climbing returns a stride of codes that climb 4 096 a cell plus noise
// below 16: a frame of reference packs them at 22 bits, a line page its
// residuals at 5.
func climbing(rng *rand.Rand) []uint64 {
	codes := make([]uint64, StrideSize)
	for i := range codes {
		codes[i] = 1_000 + uint64(i)<<12 + rng.Uint64()&15
	}
	return codes
}

// forPage packs codes as a frame-of-reference page at the width of their
// span, as Pack would were they not sorted.
func forPage(codes []uint64) *Page {
	lo, hi := slices.Min(codes), slices.Max(codes)
	p := &Page{base: lo, codes: bitpack.NewVector(bitpack.WidthFor(hi - lo))}
	for _, c := range codes {
		p.codes.Append(c - lo)
	}
	return p
}

// BenchmarkPageSelectRange selects a range holding about a quarter of a
// stride of climbing codes (see climbing) from its line page, two binary
// searches and a run of words set, and from the frame-of-reference page
// of the same codes, one SWAR pass over its 512 words of 22 bits. Both report 0
// allocs/op.
func BenchmarkPageSelectRange(b *testing.B) {
	codes := climbing(rand.New(rand.NewSource(1)))
	lo, hi := codes[300], codes[556]
	for _, pg := range []struct {
		name string
		p    *Page
	}{{"line", Pack(ID{}, codes, nil)}, {"for", forPage(codes)}} {
		b.Run(pg.name, func(b *testing.B) {
			out := bitpack.NewBitmap(StrideSize)
			pg.p.SelectRange(lo, hi, out)
			n := 0
			out.ForEach(func(int) { n++ })
			if n != 257 {
				b.Fatalf("%d positions selected, want 257", n)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out.Reset()
				pg.p.SelectRange(lo, hi, out)
			}
		})
	}
}
