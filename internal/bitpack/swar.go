package bitpack

import "math/bits"

// CmpOp names a comparison predicate applied in code space.
type CmpOp uint8

const (
	// CmpEQ selects codes equal to the constant.
	CmpEQ CmpOp = iota
	// CmpNE selects codes not equal to the constant.
	CmpNE
	// CmpLT selects codes strictly below the constant.
	CmpLT
	// CmpLE selects codes at or below the constant.
	CmpLE
	// CmpGT selects codes strictly above the constant.
	CmpGT
	// CmpGE selects codes at or above the constant.
	CmpGE
)

// swarPatterns holds the per-width word constants used by the kernels.
type swarPatterns struct {
	ones  uint64 // 1 in the lowest payload bit of every cell
	delim uint64 // 1 in the delimiter (top) bit of every cell
}

func (v *Vector) patterns() swarPatterns {
	var p swarPatterns
	for s := 0; s < v.perWord; s++ {
		p.ones |= 1 << (uint(s) * v.cell)
	}
	p.delim = p.ones << v.width
	return p
}

// replicate spreads the k-bit constant c into every cell of a word.
func (v *Vector) replicate(c uint64) uint64 {
	var w uint64
	for s := 0; s < v.perWord; s++ {
		w |= c << (uint(s) * v.cell)
	}
	return w
}

// Compare evaluates "code OP c" over every code in the vector using
// word-parallel (SWAR) arithmetic and ORs the matching positions into out,
// which must have length v.Len(). Passing a shared out bitmap lets callers
// accumulate disjunctions without allocation; start from a zero bitmap for
// a plain predicate. c is clamped semantics-free: callers must ensure
// c <= max code for the width (the encoding layer guarantees it by
// translating out-of-domain constants before reaching code space).
//
//dashdb:hotpath
func (v *Vector) Compare(op CmpOp, c uint64, out *Bitmap) {
	if out.Len() != v.n {
		panic("bitpack: Compare bitmap length mismatch")
	}
	switch op {
	case CmpEQ:
		v.swarEQ(c, out, false)
	case CmpNE:
		v.swarEQ(c, out, true)
	case CmpLT:
		v.swarGE(c, out, true)
	case CmpGE:
		v.swarGE(c, out, false)
	case CmpLE:
		if c >= v.maxCode() {
			v.allMatch(out)
			return
		}
		v.swarGE(c+1, out, true) // x <= c  ⇔  !(x >= c+1)
	case CmpGT:
		if c >= v.maxCode() {
			return // nothing can exceed the max code
		}
		v.swarGE(c+1, out, false) // x > c  ⇔  x >= c+1
	}
}

// CompareRange ORs positions with lo <= code <= hi into out (a BETWEEN in
// code space, used heavily by data skipping and date-range predicates).
//
//dashdb:hotpath
func (v *Vector) CompareRange(lo, hi uint64, out *Bitmap) {
	if lo > hi {
		return
	}
	tmp := NewBitmap(v.n)
	v.Compare(CmpGE, lo, tmp)
	hiMask := NewBitmap(v.n)
	v.Compare(CmpLE, hi, hiMask)
	tmp.And(hiMask)
	out.Or(tmp)
}

// swarGE sets (or, when invert, clears-from-full) positions where
// code >= c. Core identity: with each cell's delimiter bit forced to 1,
// subtracting the replicated constant leaves the delimiter set exactly
// when the cell's payload did not borrow, i.e. payload >= c.
//
//dashdb:hotpath
func (v *Vector) swarGE(c uint64, out *Bitmap, invert bool) {
	p := v.patterns()
	cw := v.replicate(c)
	for wi, w := range v.words {
		sub := (w | p.delim) - cw
		match := sub & p.delim
		if invert {
			match = ^sub & p.delim
		}
		v.scatter(match, wi, out)
	}
}

// swarEQ sets positions where code == c (or != when invert). Zero cells of
// w XOR replicate(c) are detected word-parallel: a cell is zero exactly
// when subtracting 1 (with the delimiter as landing zone) clears its
// delimiter and the cell itself had no bits set.
//
//dashdb:hotpath
func (v *Vector) swarEQ(c uint64, out *Bitmap, invert bool) {
	p := v.patterns()
	cw := v.replicate(c)
	for wi, w := range v.words {
		t := w ^ cw
		u := (t | p.delim) - p.ones
		match := ^(t | u) & p.delim
		if invert {
			match = (t | u) & p.delim
		}
		v.scatter(match, wi, out)
	}
}

// allMatch sets every valid position.
func (v *Vector) allMatch(out *Bitmap) {
	for i := 0; i < v.n; i++ {
		out.Set(i)
	}
}

// scatter converts delimiter-bit matches of word wi into dense bitmap
// positions, masking cells beyond Len() in the final partial word.
//
//dashdb:hotpath
func (v *Vector) scatter(match uint64, wi int, out *Bitmap) {
	base := wi * v.perWord
	// Cells past the logical end hold zero payloads; they can match
	// predicates like EQ 0, so they must be suppressed.
	limit := v.n - base
	for match != 0 {
		tz := bits.TrailingZeros64(match)
		slot := tz / int(v.cell)
		if slot < limit {
			out.Set(base + slot)
		}
		match &= match - 1
	}
}

// CompareScalar is the value-at-a-time reference implementation: it
// unpacks each code and compares it individually. It exists for
// correctness testing and as the "decode then evaluate" ablation used by
// the cloud column-store baseline (DESIGN.md §6).
//
//dashdb:hotpath
func (v *Vector) CompareScalar(op CmpOp, c uint64, out *Bitmap) {
	if out.Len() != v.n {
		panic("bitpack: CompareScalar bitmap length mismatch")
	}
	for i := 0; i < v.n; i++ {
		x := v.Get(i)
		var m bool
		switch op {
		case CmpEQ:
			m = x == c
		case CmpNE:
			m = x != c
		case CmpLT:
			m = x < c
		case CmpLE:
			m = x <= c
		case CmpGT:
			m = x > c
		case CmpGE:
			m = x >= c
		}
		if m {
			out.Set(i)
		}
	}
}

// The kernels below operate on unpacked code lanes ([]uint64, one code per
// row) as carried by the executor's code vectors, rather than on packed
// words. They evaluate dictionary-translated predicates entirely in code
// space: the encoding layer turns "col OP const" into a set of closed code
// ranges, and these loops select the qualifying positions of a batch
// without decoding a single value. Ranges arrive as plain [2]uint64
// lo/hi pairs so this package stays dependency-free.

// SelectCodesRange appends to out the members of idx whose code lies in
// [lo, hi], skipping NULL positions. The containment test is the
// branch-free unsigned trick c-lo <= hi-lo (wraparound pushes codes below
// lo past the span).
//
//dashdb:hotpath
func SelectCodesRange(codes []uint64, lo, hi uint64, nulls *Bitmap, idx []int, out []int) []int {
	span := hi - lo
	if nulls == nil {
		for _, i := range idx {
			if codes[i]-lo <= span {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range idx {
		if codes[i]-lo <= span && !nulls.Get(i) {
			out = append(out, i)
		}
	}
	return out
}

// SelectCodesInRanges appends to out the members of idx whose code falls
// in any of the closed [lo, hi] ranges, skipping NULL positions. Ranges
// are disjoint (the encoding layer emits them sorted and non-overlapping),
// so a position is appended at most once.
//
//dashdb:hotpath
func SelectCodesInRanges(codes []uint64, ranges [][2]uint64, nulls *Bitmap, idx []int, out []int) []int {
	switch len(ranges) {
	case 0:
		return out
	case 1:
		return SelectCodesRange(codes, ranges[0][0], ranges[0][1], nulls, idx, out)
	}
	for _, i := range idx {
		if nulls != nil && nulls.Get(i) {
			continue
		}
		c := codes[i]
		for _, r := range ranges {
			if c-r[0] <= r[1]-r[0] {
				out = append(out, i)
				break
			}
		}
	}
	return out
}
