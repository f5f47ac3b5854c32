package bitpack

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

// foldStep is one step of packing a word's delimiter matches toward its
// low bits: groups of g bits spaced g cells apart become groups of 2g
// bits spaced 2g cells apart.
type foldStep struct {
	shift uint   // g*width: brings each odd group next to its even neighbour
	keep  uint64 // the merged groups' bit positions
}

// swarPatterns holds the per-width word constants used by the kernels.
// A word's matches, one bit per cell at the cell's start, pack into its
// low perWord bits in two stages: fold steps (for widths up to 6) until
// there are no more groups than bits in a cell, then one multiply that
// gathers every group into the top of the product.
type swarPatterns struct {
	delim  uint64 // 1 in the delimiter (top) bit of every cell
	fold   [4]foldStep
	nfold  int
	gather uint64 // multiplier that moves group j to bit gshift + j*g
	gshift uint
}

func (v *Vector) patterns() swarPatterns {
	p := swarPatterns{delim: v.replicate(1) << v.width}
	g := uint(1) // bits per group
	for (uint(v.perWord)+g-1)/g > v.cell {
		span := 2 * g * v.cell
		var keep uint64
		for at := uint(0); at < 64; at += span {
			keep |= (1<<(2*g) - 1) << at
		}
		p.fold[p.nfold] = foldStep{shift: g * v.width, keep: keep}
		p.nfold++
		g *= 2
	}
	// The q = ceil(perWord/g) <= cell groups of g bits sit g cells apart.
	// Multiplying by the sum over j of 2^(gshift - j*g*width) moves group
	// j to bit gshift + j*g, and every other term to a distinct g-bit slot
	// below gshift or past bit 63, so no two terms collide and no carry
	// reaches the result.
	q := (uint(v.perWord) + g - 1) / g
	p.gshift = 64 - q*g
	for j := uint(0); j < q; j++ {
		p.gather |= 1 << (p.gshift - j*g*v.width)
	}
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
	top := v.maxCode() + 1 // an exclusive bound no code reaches
	switch op {
	case CmpEQ:
		v.selectRange(c, c+1, 0, out)
	case CmpNE:
		v.selectRange(c, c+1, ^uint64(0), out)
	case CmpLT:
		if c == 0 {
			return // nothing is below the min code
		}
		v.selectRange(0, c, 0, out)
	case CmpGE:
		v.selectRange(c, top, 0, out)
	case CmpLE:
		if c >= v.maxCode() {
			out.SetAll()
			return
		}
		v.selectRange(0, c+1, 0, out)
	case CmpGT:
		if c >= v.maxCode() {
			return // nothing can exceed the max code
		}
		v.selectRange(c+1, top, 0, out)
	}
}

// CompareRange ORs positions with lo <= code <= hi into out, which must
// have length v.Len() (a BETWEEN in code space, used heavily by data
// skipping and date-range predicates). It is one pass over the words.
//
//dashdb:hotpath
func (v *Vector) CompareRange(lo, hi uint64, out *Bitmap) {
	if out.Len() != v.n {
		panic("bitpack: CompareRange bitmap length mismatch")
	}
	if lo > hi || lo > v.maxCode() {
		return
	}
	v.selectRange(lo, min(hi, v.maxCode())+1, 0, out)
}

// selectRange is the one SWAR kernel: it ORs into out the positions whose
// code x has lo <= x < hiEx, or, when flip is all ones, those where that
// fails. Both bounds are at most 1<<width. Both borrow tests run in the
// same pass: with each cell's delimiter bit forced to 1, subtracting a
// replicated constant leaves the delimiter set exactly when the payload
// did not borrow, i.e. payload >= the constant. An upper bound of
// 1<<width replicates to the delimiters themselves, whose subtraction
// never borrows, so the upper test drops out without a second loop.
//
// A word's matches leave it a word at a time: its delimiter bits pack
// into its low perWord bits (see swarPatterns), which are appended to a
// register that is ORed into out once it holds 64 positions. A word
// with no match skips the packing.
//
//dashdb:hotpath
func (v *Vector) selectRange(lo, hiEx, flip uint64, out *Bitmap) {
	p := v.patterns()
	rlo, rhi := v.replicate(lo), v.replicate(hiEx)
	dst, per := out.words, uint(v.perWord)
	var acc uint64
	fill, o := uint(0), 0 // positions held in acc; the next word of dst
	for _, w := range v.words {
		x := w | p.delim
		m := (((x-rlo)&^(x-rhi) ^ flip) & p.delim) >> (v.width & 63)
		if m != 0 {
			for _, f := range p.fold[:p.nfold] {
				m = (m | m>>(f.shift&63)) & f.keep
			}
			m = m * p.gather >> (p.gshift & 63)
			acc |= m << (fill & 63)
		}
		if fill += per; fill >= 64 {
			dst[o] |= acc
			o++
			fill -= 64
			acc = m >> ((per - fill) & 63)
		}
	}
	// Cells past the logical end hold zero payloads and can match (EQ 0);
	// their positions lie at or past Len(), and are dropped here.
	if o < len(dst) {
		dst[o] |= acc
	}
	out.trimTail()
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
