package bitpack

import "math/bits"

// Bitmap is a fixed-length bitset used as a selection vector: bit i is set
// when tuple i of a stride satisfies the predicates applied so far.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an all-zero bitmap of length n.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// BitmapFromWords returns a bitmap of n bits over words, laid out as
// Words returns them, and takes ownership of words: bits at positions n
// and past are cleared. len(words) must be (n+63)/64.
func BitmapFromWords(n int, words []uint64) *Bitmap {
	if len(words) != (n+63)/64 {
		panic("bitpack: BitmapFromWords word count does not hold the length")
	}
	b := &Bitmap{words: words, n: n}
	b.trimTail()
	return b
}

// Words exposes the raw words, bit i at bit i%64 of word i/64. The slice
// must be treated as read-only.
func (b *Bitmap) Words() []uint64 { return b.words }

// Len returns the bitmap length in bits.
func (b *Bitmap) Len() int { return b.n }

// Resize sets the length to n bits, keeping the first min(n, Len()) and
// clearing the rest. Growing reuses the words' capacity, so a bitmap that
// follows a growing column allocates only as often as an append would.
func (b *Bitmap) Resize(n int) {
	if w := (n + 63) / 64; w > len(b.words) {
		b.words = append(b.words, make([]uint64, w-len(b.words))...)
	} else {
		b.words = b.words[:w]
	}
	b.n = n
	b.trimTail()
}

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i/64] |= 1 << (uint(i) % 64) }

// SetRange sets bits from through to-1, a word at a time; it sets none
// when to ≤ from.
func (b *Bitmap) SetRange(from, to int) {
	if to <= from {
		return
	}
	first, last := from/64, (to-1)/64
	head, tail := ^uint64(0)<<(uint(from)%64), ^uint64(0)>>(63-uint(to-1)%64)
	if first == last {
		b.words[first] |= head & tail
		return
	}
	b.words[first] |= head
	for i := first + 1; i < last; i++ {
		b.words[i] = ^uint64(0)
	}
	b.words[last] |= tail
}

// SetAll sets every bit, a word at a time.
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trimTail()
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.words[i/64] &^= 1 << (uint(i) % 64) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool { return b.words[i/64]&(1<<(uint(i)%64)) != 0 }

// Any reports whether at least one bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// And intersects other into b. Both bitmaps must have equal length.
func (b *Bitmap) And(other *Bitmap) {
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// AndNot removes other's bits from b.
func (b *Bitmap) AndNot(other *Bitmap) {
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
}

// AndNotAt removes from b the bits of other at positions off through
// off+b.Len()-1, a word at a time: bit i of b is cleared when bit off+i of
// other is set. off must be a multiple of 64, and other must cover the
// whole range.
func (b *Bitmap) AndNotAt(other *Bitmap, off int) {
	if off%64 != 0 || off+b.n > other.n {
		panic("bitpack: AndNotAt range is unaligned or out of bounds")
	}
	src := other.words[off/64:]
	for i := range b.words {
		b.words[i] &^= src[i]
	}
}

// trimTail zeroes bits at positions >= n in the last word.
func (b *Bitmap) trimTail() {
	if tail := uint(b.n) % 64; tail != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << tail) - 1
	}
}

// ForEach calls fn with the index of every set bit in ascending order.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi * 64
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Gather returns the bits of b at the positions in sel as a bitmap over
// selection positions (bit k is b's bit sel[k]), or nil when none of them
// is set.
func (b *Bitmap) Gather(sel []int) *Bitmap {
	if !b.Any() {
		return nil
	}
	var out *Bitmap
	for k, i := range sel {
		if b.Get(i) {
			if out == nil {
				out = NewBitmap(len(sel))
			}
			out.Set(k)
		}
	}
	return out
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	return &Bitmap{words: append([]uint64(nil), b.words...), n: b.n}
}

// Reset clears every bit.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}
