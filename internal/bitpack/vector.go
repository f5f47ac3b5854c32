// Package bitpack implements the bit-packed code vectors and the
// "software SIMD" predicate evaluation at the heart of the BLU-style
// engine (paper §II.B.6).
//
// Column values are first reduced to small unsigned integer codes by the
// encoding layer (dictionary, minus/frame-of-reference, ...). This package
// packs those k-bit codes into 64-bit words — many values per word — and
// evaluates comparison predicates on all values in a word with a handful
// of arithmetic instructions (SWAR: SIMD Within A Register), for any code
// width, not just power-of-two byte sizes.
//
// Layout: each code occupies a cell of k+1 bits. The extra high bit of
// every cell (the delimiter) is kept zero in stored data and acts as the
// carry/borrow landing zone during word-parallel arithmetic, so cells
// never interfere. A 64-bit word therefore holds 64/(k+1) codes. Cells do
// not straddle word boundaries.
package bitpack

import (
	"fmt"
	"math/bits"
)

// MaxWidth is the widest supported code in bits. Codes wider than this
// should be stored unpacked; the encoding layer never produces them.
const MaxWidth = 32

// The panic formatting below lives in dedicated helpers: a fmt.Sprintf
// inline in Get/Set/Append pushes those per-element accessors past the
// compiler's inlining budget, so every SWAR kernel pays an outlined call
// per element for a message that is never built. The helpers panic as
// their first statement, which hotpathcg recognizes as abort stubs.

func panicIndexRange(i, n int) {
	panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, n))
}

func panicCodeOverflow(code uint64, width uint) {
	panic(fmt.Sprintf("bitpack: code %d overflows width %d", code, width))
}

func panicWidthRange(width uint) {
	panic(fmt.Sprintf("bitpack: width %d out of range [1,%d]", width, MaxWidth))
}

// WidthFor returns the minimum code width (≥1) able to represent every
// code in [0, maxCode].
func WidthFor(maxCode uint64) uint {
	if maxCode == 0 {
		return 1
	}
	return uint(bits.Len64(maxCode))
}

// Vector is an append-only sequence of k-bit unsigned codes packed into
// 64-bit words with one delimiter bit per cell.
type Vector struct {
	words   []uint64
	n       int  // number of codes stored
	width   uint // k: payload bits per code
	cell    uint // k+1: cell size in bits
	perWord int  // cells per 64-bit word
}

// NewVector returns an empty vector for codes of the given width in bits.
// Width must be in [1, MaxWidth].
func NewVector(width uint) *Vector {
	if width < 1 || width > MaxWidth {
		panicWidthRange(width)
	}
	cell := width + 1
	return &Vector{
		width:   width,
		cell:    cell,
		perWord: int(64 / cell),
	}
}

// FromWords returns a vector of n codes of the given width over words,
// packed as Append packs them, and takes ownership of words: bits outside
// the n cells' payloads are cleared a word at a time. It fails when the
// width is out of range or the word count does not hold exactly n codes.
func FromWords(width uint, n int, words []uint64) (*Vector, error) {
	if width < 1 || width > MaxWidth {
		return nil, fmt.Errorf("bitpack: width %d out of range [1,%d]", width, MaxWidth)
	}
	v := NewVector(width)
	if n < 0 || len(words) != (n+v.perWord-1)/v.perWord {
		return nil, fmt.Errorf("bitpack: %d words do not hold %d codes of width %d", len(words), n, width)
	}
	payload := v.replicate(v.maxCode())
	for i := range words {
		words[i] &= payload
	}
	if tail := n % v.perWord; tail != 0 {
		words[len(words)-1] &= 1<<(uint(tail)*v.cell) - 1
	}
	v.words, v.n = words, n
	return v, nil
}

// Width returns the payload width k in bits.
func (v *Vector) Width() uint { return v.width }

// Len returns the number of codes stored.
func (v *Vector) Len() int { return v.n }

// PerWord returns how many codes share one 64-bit word.
func (v *Vector) PerWord() int { return v.perWord }

// Words exposes the raw packed words (including a possibly partial last
// word). The slice must be treated as read-only.
func (v *Vector) Words() []uint64 { return v.words }

// SizeBytes returns the in-memory footprint of the packed payload.
func (v *Vector) SizeBytes() int { return len(v.words) * 8 }

// maxCode returns the largest representable code for the vector's width.
func (v *Vector) maxCode() uint64 { return (1 << v.width) - 1 }

// Append adds one code. It panics if the code does not fit the width;
// the encoding layer sizes widths before packing, so an overflow here is
// always a programming error, not bad user data.
func (v *Vector) Append(code uint64) {
	if code > v.maxCode() {
		panicCodeOverflow(code, v.width)
	}
	slot := v.n % v.perWord
	if slot == 0 {
		v.words = append(v.words, 0)
	}
	v.words[len(v.words)-1] |= code << (uint(slot) * v.cell)
	v.n++
}

// AppendAll adds each code in order.
func (v *Vector) AppendAll(codes []uint64) {
	for _, c := range codes {
		v.Append(c)
	}
}

// Get returns the i'th code. It panics when i is out of range.
func (v *Vector) Get(i int) uint64 {
	if i < 0 || i >= v.n {
		panicIndexRange(i, v.n)
	}
	word := v.words[i/v.perWord]
	shift := uint(i%v.perWord) * v.cell
	return (word >> shift) & v.maxCode()
}

// Set overwrites the i'th code in place.
func (v *Vector) Set(i int, code uint64) {
	if i < 0 || i >= v.n {
		panicIndexRange(i, v.n)
	}
	if code > v.maxCode() {
		panicCodeOverflow(code, v.width)
	}
	shift := uint(i%v.perWord) * v.cell
	w := &v.words[i/v.perWord]
	*w &^= v.maxCode() << shift
	*w |= code << shift
}

// Unpack decodes all codes into dst, which is grown as needed, and
// returns it. Useful for operators that must leave code space.
//
//dashdb:hotpath
func (v *Vector) Unpack(dst []uint64) []uint64 {
	if cap(dst) < v.n {
		dst = make([]uint64, v.n)
	}
	dst = dst[:v.n]
	mask, cell, per := v.maxCode(), v.cell, v.perWord
	for wi, w := range v.words {
		cells := dst[wi*per : min(wi*per+per, v.n)]
		for s := range cells {
			cells[s] = w & mask
			w >>= cell
		}
	}
	return dst
}

// Gather is Unpack restricted to the positions in sel, which must ascend:
// dst[k] becomes the code at sel[k]. dst is grown as needed and returned.
// A selection of every position is a plain Unpack; otherwise the words
// are walked in step with sel, so no position costs a division.
//
//dashdb:hotpath
func (v *Vector) Gather(sel []int, dst []uint64) []uint64 {
	if len(sel) == v.n {
		return v.Unpack(dst) // ascending and distinct: sel is 0..n-1
	}
	if cap(dst) < len(sel) {
		dst = make([]uint64, len(sel))
	}
	dst = dst[:len(sel)]
	mask, cell, per := v.maxCode(), v.cell, v.perWord
	wi, first := 0, 0 // the current word and the position of its first cell
	for k, i := range sel {
		for i >= first+per {
			wi++
			first += per
		}
		dst[k] = v.words[wi] >> (uint(i-first) * cell) & mask
	}
	return dst
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	out := NewVector(v.width)
	out.words = append([]uint64(nil), v.words...)
	out.n = v.n
	return out
}

// Reset empties the vector, retaining capacity.
func (v *Vector) Reset() {
	v.words = v.words[:0]
	v.n = 0
}
