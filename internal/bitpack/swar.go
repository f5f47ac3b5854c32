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

// foldStep is one step of packing a word's matches toward its low bits:
// groups of g bits spaced g cells apart become groups of 2g bits spaced
// 2g cells apart.
type foldStep struct {
	shift uint   // g*(width-1): brings each odd group next to its even neighbour
	keep  uint64 // the merged groups' bit positions
}

// swarPatterns holds the per-width word constants used by the kernel at
// widths 2 and up. A word's matches, one bit per cell at the cell's top
// bit, are shifted to the cells' low bits and pack into the low perWord
// bits in two stages: fold steps (for widths up to 7) until there
// are no more groups than bits in a cell, then one multiply that gathers
// every group into the top of the product.
type swarPatterns struct {
	top    uint64 // 1 in the top bit of every cell
	fold   [4]foldStep
	nfold  int
	gather uint64 // multiplier that moves group j to bit gshift + j*g
	gshift uint
}

func (v *Vector) patterns() swarPatterns {
	p := swarPatterns{top: v.replicate(1 << (v.width - 1))}
	low := v.width - 1 // bits below a cell's top bit
	g := uint(1)       // bits per group
	for (uint(v.perWord)+g-1)/g > v.width {
		span := 2 * g * v.width
		var keep uint64
		for at := uint(0); at < 64; at += span {
			keep |= (1<<(2*g) - 1) << at
		}
		p.fold[p.nfold] = foldStep{shift: g * low, keep: keep}
		p.nfold++
		g *= 2
	}
	// The q = ceil(perWord/g) <= width groups of g bits sit g cells apart.
	// Multiplying by the sum over j of 2^(gshift - j*g*(width-1)) moves
	// group j to bit gshift + j*g, and every other term to a distinct g-bit
	// slot below gshift or past bit 63, so no two terms collide and no
	// carry reaches the result.
	q := (uint(v.perWord) + g - 1) / g
	p.gshift = 64 - q*g
	for j := uint(0); j < q; j++ {
		p.gather |= 1 << (p.gshift - j*g*low)
	}
	return p
}

// pack moves m's bits, a word's matches at its cells' low bits, into its
// low perWord bits.
func (p *swarPatterns) pack(m uint64) uint64 {
	for _, f := range p.fold[:p.nfold] {
		m = (m | m>>(f.shift&63)) & f.keep
	}
	return m * p.gather >> (p.gshift & 63)
}

// replicate spreads the k-bit constant c into every cell of a word.
func (v *Vector) replicate(c uint64) uint64 {
	var w uint64
	for s := 0; s < v.perWord; s++ {
		w |= c << (uint(s) * v.width)
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
// fails; lo <= max code < hiEx <= 1<<width. An open top (hiEx =
// 1<<width) is the complement of [0, lo), so only bounds that fit the
// width are tested.
//
// A test x >= c borrows from each cell's own top bit: with H that bit of
// every cell, d = (x | H) - (c's low bits, replicated) cannot borrow
// across cells, since every minuend cell has its top bit set and every
// subtrahend cell has it clear, and d keeps that bit exactly when x's low
// bits are at least c's. c's own top bit is fixed for the call, so x >= c
// is x AND d when c's top bit is 1, and x OR d when it is 0. With both
// bounds' top bits 0 the range x >= lo AND NOT x >= hiEx is dlo AND NOT
// dhi AND NOT x; with both 1 it is dlo AND NOT dhi AND x; and when it
// straddles the top bit, (dlo AND NOT x) OR (x AND NOT dhi).
//
// A word's matches leave it a word at a time: its cells' top bits pack
// into perWord bits (see swarPatterns), which are ORed into out at the
// word's first position, spilling into the next word of out when they
// cross one. A word with no match skips the packing. At width 1 each cell
// is its own top bit and a word holds 64 cells, so the word is the
// bitmap's word.
//
//dashdb:hotpath
func (v *Vector) selectRange(lo, hiEx, flip uint64, out *Bitmap) {
	if hiEx > v.maxCode() {
		lo, hiEx, flip = 0, lo, ^flip
	}
	dst := out.words
	if v.width == 1 {
		var one, zero uint64 // all ones when a 1, a 0 lies in [lo, hiEx)
		if lo <= 1 && 1 < hiEx {
			one = ^uint64(0)
		}
		if lo == 0 && hiEx > 0 {
			zero = ^uint64(0)
		}
		for i, x := range v.words {
			dst[i] |= (x&one | ^x&zero) ^ flip
		}
		out.trimTail()
		return
	}
	p := v.patterns()
	low := uint64(1)<<(v.width-1) - 1
	rlo, rhi := v.replicate(lo&low), v.replicate(hiEx&low)
	straddle := lo <= low && hiEx > low
	var below uint64 // all ones when both bounds' top bits are 0
	if hiEx <= low {
		below = ^uint64(0)
	}
	per, shift := uint(v.perWord), (v.width-1)&63
	at := uint(0) // the position of the word's first cell
	// Each form of the range test has its own loop, so a word pays for its
	// form's few operations and no choice between forms.
	if straddle {
		for _, x := range v.words {
			xh := x | p.top
			if m := (((xh-rlo)&^x | x&^(xh-rhi)) ^ flip) & p.top; m != 0 {
				m = p.pack(m >> shift)
				o, s := at>>6, at&63
				dst[o] |= m << s
				if s+per > 64 && int(o)+1 < len(dst) {
					dst[o+1] |= m >> (64 - s)
				}
			}
			at += per
		}
	} else {
		for _, x := range v.words {
			xh := x | p.top
			if m := ((xh-rlo)&^(xh-rhi)&(x^below) ^ flip) & p.top; m != 0 {
				m = p.pack(m >> shift)
				o, s := at>>6, at&63
				dst[o] |= m << s
				if s+per > 64 && int(o)+1 < len(dst) {
					dst[o+1] |= m >> (64 - s)
				}
			}
			at += per
		}
	}
	// Cells past the logical end hold zero and can match (EQ 0); their
	// positions lie at or past Len(), and are dropped here.
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
