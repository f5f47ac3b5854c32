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

// NewBitmapFull returns an all-one bitmap of length n.
func NewBitmapFull(n int) *Bitmap {
	b := NewBitmap(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trimTail()
	return b
}

// Len returns the bitmap length in bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.words[i/64] &^= 1 << (uint(i) % 64) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool { return b.words[i/64]&(1<<(uint(i)%64)) != 0 }

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

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

// Or unions other into b. Both bitmaps must have equal length.
func (b *Bitmap) Or(other *Bitmap) {
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// AndNot removes other's bits from b.
func (b *Bitmap) AndNot(other *Bitmap) {
	for i := range b.words {
		b.words[i] &^= other.words[i]
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
