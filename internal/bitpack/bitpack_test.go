package bitpack

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestWidthFor(t *testing.T) {
	cases := []struct {
		max  uint64
		want uint
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}, {1 << 31, 32},
	}
	for _, c := range cases {
		if got := WidthFor(c.max); got != c.want {
			t.Errorf("WidthFor(%d)=%d want %d", c.max, got, c.want)
		}
	}
}

func TestVectorAppendGet(t *testing.T) {
	for _, width := range []uint{1, 2, 3, 5, 7, 8, 13, 17, 31, 32} {
		v := NewVector(width)
		max := uint64(1)<<width - 1
		var want []uint64
		rng := rand.New(rand.NewSource(int64(width)))
		for i := 0; i < 1000; i++ {
			c := rng.Uint64() & max
			v.Append(c)
			want = append(want, c)
		}
		if v.Len() != 1000 {
			t.Fatalf("width %d: len=%d", width, v.Len())
		}
		for i, w := range want {
			if got := v.Get(i); got != w {
				t.Fatalf("width %d: Get(%d)=%d want %d", width, i, got, w)
			}
		}
		got := v.Unpack(0, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("width %d: Unpack[%d]=%d want %d", width, i, got[i], want[i])
			}
		}
	}
}

// TestAppendAllGather: runs appended with AppendAll, starting at every
// slot of a word, read back by Get; Gather of ascending selections,
// dense, sparse and empty, equals the base plus Get at each selected
// position.
func TestAppendAllGather(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, width := range []uint{1, 3, 7, 8, 13, 21, 32} {
		v := NewVector(width)
		var want []uint64
		for len(want) < 1000 {
			run := make([]uint64, rng.Intn(70))
			for i := range run {
				run[i] = rng.Uint64() & (1<<width - 1)
			}
			v.AppendAll(run)
			want = append(want, run...)
		}
		for i, w := range want {
			if got := v.Get(i); got != w {
				t.Fatalf("width %d: AppendAll then Get(%d)=%d want %d", width, i, got, w)
			}
		}
		for _, p := range []float64{1, 0.9, 0.3, 0.01, 0} {
			var sel []int
			for i := range want {
				if rng.Float64() < p {
					sel = append(sel, i)
				}
			}
			base := uint64(len(sel)) << 20
			got := v.Gather(sel, base, nil)
			for k, i := range sel {
				if got[k] != base+want[i] {
					t.Fatalf("width %d, %d selected: Gather[%d]=%d want base %d + code %d's %d", width, len(sel), k, got[k], base, i, want[i])
				}
			}
		}
	}
}

func TestVectorAppendOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow")
		}
	}()
	NewVector(3).Append(8)
}

func TestPerWordPacking(t *testing.T) {
	// A cell is exactly the code's width and a word holds ⌊64/k⌋ of them:
	// "tens of values" per word at narrow widths.
	for _, c := range []struct {
		width uint
		per   int
	}{{1, 64}, {2, 32}, {3, 21}, {5, 12}, {7, 9}, {8, 8}, {12, 5}, {17, 3}, {21, 3}, {22, 2}, {31, 2}, {32, 2}} {
		if got := NewVector(c.width).PerWord(); got != c.per || got != 64/int(c.width) {
			t.Errorf("width %d packs %d a word, want %d", c.width, got, c.per)
		}
	}
}

var allOps = []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}

// TestSWARMatchesScalar cross-validates every SWAR kernel against the
// value-at-a-time reference over many widths, lengths and constants,
// including boundary constants 0 and max.
func TestSWARMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for width := uint(1); width <= MaxWidth; width++ {
		max := uint64(1)<<width - 1
		for _, n := range []int{1, 7, 63, 64, 65, 1000} {
			v := NewVector(width)
			for i := 0; i < n; i++ {
				v.Append(rng.Uint64() & max)
			}
			consts := []uint64{0, max, max / 2, rng.Uint64() & max}
			for _, c := range consts {
				for _, op := range allOps {
					fast := NewBitmap(n)
					slow := NewBitmap(n)
					v.Compare(op, c, fast)
					v.CompareScalar(op, c, slow)
					for i := 0; i < n; i++ {
						if fast.Get(i) != slow.Get(i) {
							t.Fatalf("width=%d n=%d op=%d c=%d pos=%d code=%d: SWAR=%v scalar=%v",
								width, n, op, c, i, v.Get(i), fast.Get(i), slow.Get(i))
						}
					}
				}
			}
		}
	}
}

func TestCompareRange(t *testing.T) {
	v := NewVector(8)
	for i := uint64(0); i < 200; i++ {
		v.Append(i)
	}
	out := NewBitmap(200)
	v.CompareRange(50, 59, out)
	if out.Count() != 10 {
		t.Fatalf("range count = %d want 10", out.Count())
	}
	for i := 0; i < 200; i++ {
		want := i >= 50 && i <= 59
		if out.Get(i) != want {
			t.Fatalf("pos %d: got %v", i, out.Get(i))
		}
	}
	// Inverted range selects nothing.
	out2 := NewBitmap(200)
	v.CompareRange(60, 50, out2)
	if out2.Any() {
		t.Error("inverted range must match nothing")
	}
}

func TestTailCellsDoNotMatch(t *testing.T) {
	// Width 20 packs 3 cells a word and leaves its top 4 bits spare; a
	// second word holds 2 live cells and a zero tail. EQ 0 and a range
	// from 0 must match neither the tail nor the spare bits, even when the
	// words handed to FromWords set them.
	words := []uint64{5 | 9<<40 | 0xf<<60, 7<<20 | 0xabc<<40 | 0xf<<60}
	v, err := FromWords(20, 5, words)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Unpack(0, nil); !slices.Equal(got, []uint64{5, 0, 9, 0, 7}) {
		t.Fatalf("codes %v", got)
	}
	out := NewBitmap(5)
	v.Compare(CmpEQ, 0, out)
	if out.Count() != 2 || !out.Get(1) || !out.Get(3) {
		t.Fatalf("EQ 0 matched wrong set: count=%d", out.Count())
	}
	for _, c := range []struct {
		lo, hi uint64
		want   []int
	}{{0, 0, []int{1, 3}}, {0, 6, []int{0, 1, 3}}, {1 << 19, 1<<20 - 1, nil}} {
		out := NewBitmap(5)
		v.CompareRange(c.lo, c.hi, out)
		var got []int
		out.ForEach(func(i int) { got = append(got, i) })
		if !slices.Equal(got, c.want) {
			t.Fatalf("range [%d,%d] matched %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

// TestSelectRangeEveryWidth holds CompareRange and all six Compare ops to
// the scalar reference at every width, at lengths one word short of,
// equal to and one past a word's cells and across a stride, for bounds at
// 0, 1, both sides of the cell's top bit, the largest code and an open
// top: each bound's top bit set and clear, against codes on either side
// of every bound.
func TestSelectRangeEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for width := uint(1); width <= MaxWidth; width++ {
		max, half := uint64(1)<<width-1, uint64(1)<<(width-1)
		bounds := []uint64{0, 1, half - 1, half, half + 1, max}
		var near []uint64 // every bound and its neighbours that fit the width
		for _, b := range bounds {
			for _, c := range []uint64{b - 1, b, b + 1} {
				if c <= max {
					near = append(near, c)
				}
			}
		}
		per := NewVector(width).PerWord()
		for _, n := range []int{1, per - 1, per, per + 1, 1024} {
			if n < 1 {
				continue
			}
			v := NewVector(width)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					v.Append(near[rng.Intn(len(near))])
				} else {
					v.Append(rng.Uint64() & max)
				}
			}
			for _, lo := range bounds {
				for _, hi := range append(bounds, max+1, math.MaxUint64) { // open tops
					was := NewBitmap(n)
					if rng.Intn(2) == 0 {
						for i := 0; i < n; i += 1 + rng.Intn(5) {
							was.Set(i)
						}
					}
					out := was.Clone()
					v.CompareRange(lo, hi, out)
					checkRange(t, v, lo, hi, was, out)
				}
				for _, op := range allOps {
					if lo > max {
						break // Compare takes constants the width holds
					}
					fast, slow := NewBitmap(n), NewBitmap(n)
					v.Compare(op, lo, fast)
					v.CompareScalar(op, lo, slow)
					if !slices.Equal(fast.Words(), slow.Words()) {
						t.Fatalf("width %d n %d op %d c %d: SWAR %x, scalar %x", width, n, op, lo, fast.Words(), slow.Words())
					}
				}
			}
		}
	}
}

// checkRange fails t unless out equals was ORed with the positions whose
// code lies in [lo, hi], by the scalar oracle's GE lo and LE hi.
func checkRange(t testing.TB, v *Vector, lo, hi uint64, was, out *Bitmap) {
	t.Helper()
	ge, le := NewBitmap(v.Len()), NewBitmap(v.Len())
	v.CompareScalar(CmpGE, lo, ge)
	v.CompareScalar(CmpLE, hi, le)
	want := was.Clone()
	for i := 0; i < v.Len(); i++ {
		if ge.Get(i) && le.Get(i) {
			want.Set(i)
		}
	}
	for i := 0; i < v.Len(); i++ {
		if out.Get(i) != want.Get(i) {
			t.Fatalf("width=%d n=%d [%d,%d] pos=%d code=%d: CompareRange=%v oracle=%v",
				v.Width(), v.Len(), lo, hi, i, v.Get(i), out.Get(i), want.Get(i))
		}
	}
	if bits := out.Count(); bits != want.Count() {
		t.Fatalf("width=%d n=%d [%d,%d]: %d bits set, want %d", v.Width(), v.Len(), lo, hi, bits, want.Count())
	}
}

// TestCompareRangeMatchesScalar holds the fused range kernel to the
// scalar GE ∧ LE oracle at every width, at lengths that end mid-word and
// cross 64-bit output words, for point, inverted, zero-based and
// open-topped ranges, ORing into a bitmap that already holds bits.
func TestCompareRangeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for width := uint(1); width <= MaxWidth; width++ {
		max := uint64(1)<<width - 1
		for _, n := range []int{1, 5, 63, 64, 65, 127, 129, 1024, 1000} {
			v := NewVector(width)
			for i := 0; i < n; i++ {
				v.Append(rng.Uint64() & max)
			}
			mid := rng.Uint64() & max
			ranges := [][2]uint64{
				{mid, mid}, {v.Get(n / 2), v.Get(n / 2)}, // lo == hi
				{mid + 1, mid}, {max, 0}, // lo > hi
				{0, mid}, {0, 0}, // lo == 0
				{mid, max}, {0, max}, {mid, max + 5}, // hi >= max
				{mid / 2, mid},
			}
			for _, r := range ranges {
				if r[0] > max {
					continue
				}
				was := NewBitmap(n)
				for i := 0; i < n; i += 1 + rng.Intn(9) {
					was.Set(i)
				}
				for _, start := range []*Bitmap{NewBitmap(n), was} {
					out := start.Clone()
					v.CompareRange(r[0], r[1], out)
					checkRange(t, v, r[0], r[1], start, out)
				}
			}
		}
	}
}

func TestCompareRangeLengthMismatchPanics(t *testing.T) {
	v := NewVector(4)
	v.AppendAll(make([]uint64, 100))
	for _, n := range []int{64, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CompareRange into a %d-bit bitmap over 100 codes did not panic", n)
				}
			}()
			v.CompareRange(0, 3, NewBitmap(n))
		}()
	}
}

// FuzzCompareRange draws a width, words and a range, and holds
// CompareRange to the scalar oracle. The vector adopts the drawn words
// through FromWords, so the bits above a word's last cell and the cells
// past the end start out set and must never match. The seeds cover width
// 1, width 32 and widths whose cells leave spare bits (5, 12, 17).
func FuzzCompareRange(f *testing.F) {
	f.Add(uint8(3), int64(1), uint16(100), uint64(2), uint64(5))
	f.Add(uint8(1), int64(2), uint16(64), uint64(0), uint64(0))
	f.Add(uint8(32), int64(3), uint16(3), uint64(7), uint64(1<<40))
	f.Add(uint8(20), int64(4), uint16(5), uint64(9), uint64(1))
	for _, width := range []uint8{1, 32, 5, 12, 17} {
		f.Add(width-1, int64(width), uint16(1024), uint64(1)<<(width-1)-1, uint64(1)<<(width-1))
		f.Add(width-1, int64(width)+1, uint16(65), uint64(0), uint64(1)<<width-1)
	}
	f.Fuzz(func(t *testing.T, widthSel uint8, seed int64, n uint16, lo, hi uint64) {
		width := uint(widthSel)%MaxWidth + 1
		max := uint64(1)<<width - 1
		rng := rand.New(rand.NewSource(seed))
		codes := int(n) % 2048
		per := 64 / int(width)
		words := make([]uint64, (codes+per-1)/per)
		for i := range words {
			words[i] = rng.Uint64()
		}
		v, err := FromWords(width, codes, words)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range v.Words() {
			if w&^v.replicate(max) != 0 || i == len(words)-1 && codes%per != 0 && w>>(uint(codes%per)*width) != 0 {
				t.Fatalf("width %d: word %d keeps %x outside its cells", width, i, w)
			}
		}
		lo &= max
		was := NewBitmap(v.Len())
		for i := 0; i < v.Len(); i += 1 + rng.Intn(64) {
			was.Set(i)
		}
		out := was.Clone()
		v.CompareRange(lo, hi, out)
		checkRange(t, v, lo, hi, was, out)
	})
}

func TestCountCompare(t *testing.T) {
	v := NewVector(4)
	for i := 0; i < 100; i++ {
		v.Append(uint64(i % 16))
	}
	out := NewBitmap(v.Len())
	v.Compare(CmpLT, 8, out)
	if got := out.Count(); got != 52 {
		// values 0..15 repeating: 0..7 appear ceil counts; 100 values:
		// 6 full cycles (96) → 48 below 8, plus 0,1,2,3 → 52.
		t.Fatalf("count of LT 8 = %d want 52", got)
	}
}

// Property: for random code sets and constants, SWAR GE partitions the
// vector exactly complementarily to LT.
func TestGELTPartitionProperty(t *testing.T) {
	f := func(seed int64, widthSel uint8) bool {
		width := uint(widthSel%MaxWidth) + 1
		rng := rand.New(rand.NewSource(seed))
		max := uint64(1)<<width - 1
		v := NewVector(width)
		n := 257
		for i := 0; i < n; i++ {
			v.Append(rng.Uint64() & max)
		}
		c := rng.Uint64() & max
		ge := NewBitmap(n)
		lt := NewBitmap(n)
		v.Compare(CmpGE, c, ge)
		v.Compare(CmpLT, c, lt)
		inter := ge.Clone()
		inter.And(lt)
		return ge.Count()+lt.Count() == n && !inter.Any()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBitmapOps(t *testing.T) {
	a := NewBitmap(130)
	b := NewBitmap(130)
	a.Set(0)
	a.Set(64)
	a.Set(129)
	b.Set(64)
	b.Set(100)

	and := a.Clone()
	and.And(b)
	if and.Count() != 1 || !and.Get(64) {
		t.Fatalf("And: %d", and.Count())
	}
	// AndNotAt clears bit i where bit off+i of the wider bitmap is set.
	wide := NewBitmap(256)
	for _, i := range []int{63, 64, 128, 192, 255} {
		wide.Set(i)
	}
	at := NewBitmapFull(130)
	at.AndNotAt(wide, 64)
	if at.Count() != 127 || at.Get(0) || at.Get(64) || at.Get(128) || !at.Get(63) {
		t.Fatalf("AndNotAt: %d", at.Count())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AndNotAt at an unaligned offset did not panic")
			}
		}()
		at.AndNotAt(wide, 32)
	}()
	a.AndNot(b)
	if a.Count() != 2 || a.Get(64) {
		t.Fatalf("AndNot: %d", a.Count())
	}

	full := NewBitmapFull(130)
	if full.Count() != 130 {
		t.Fatalf("full count %d", full.Count())
	}

	// SetRange ORs [from, to) as Set of each bit would, over bits already
	// set, for ends at, beside and across word edges.
	edges := []int{0, 1, 62, 63, 64, 65, 127, 128, 129, 130}
	for _, from := range edges {
		for _, to := range edges {
			got, want := NewBitmap(130), NewBitmap(130)
			got.Set(70)
			want.Set(70)
			got.SetRange(from, to)
			for i := from; i < to; i++ {
				want.Set(i)
			}
			if !slices.Equal(got.Words(), want.Words()) {
				t.Fatalf("SetRange(%d, %d): %x, want %x", from, to, got.Words(), want.Words())
			}
		}
	}
}

// TestBitmapWordsRoundTrip: a bitmap rebuilt from its words holds the
// same bits, and bits past the length are cleared on adoption.
func TestBitmapWordsRoundTrip(t *testing.T) {
	a := NewBitmap(130)
	for _, i := range []int{0, 63, 64, 129} {
		a.Set(i)
	}
	words := append([]uint64(nil), a.Words()...)
	words[2] |= 1 << 5 // bit 133, past the length
	b := BitmapFromWords(130, words)
	if b.Len() != 130 || b.Count() != 4 || !b.Get(0) || !b.Get(63) || !b.Get(64) || !b.Get(129) {
		t.Fatalf("adopted words: len %d, %d bits", b.Len(), b.Count())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("three words for 200 bits did not panic")
			}
		}()
		BitmapFromWords(200, words)
	}()
}

func TestBitmapForEachOrder(t *testing.T) {
	b := NewBitmap(200)
	want := []int{3, 77, 128, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v want %v", got, want)
		}
	}
}

func BenchmarkSWARCompare(b *testing.B) {
	for _, width := range []uint{3, 8, 17} {
		v := NewVector(width)
		rng := rand.New(rand.NewSource(1))
		max := uint64(1)<<width - 1
		for i := 0; i < 64*1024; i++ {
			v.Append(rng.Uint64() & max)
		}
		out := NewBitmap(v.Len())
		b.Run(map[uint]string{3: "width3", 8: "width8", 17: "width17"}[width], func(b *testing.B) {
			b.SetBytes(int64(v.SizeBytes()))
			for i := 0; i < b.N; i++ {
				out.Reset()
				v.Compare(CmpLT, max/2, out)
			}
		})
	}
}

func BenchmarkScalarCompare(b *testing.B) {
	for _, width := range []uint{3, 8, 17} {
		v := NewVector(width)
		rng := rand.New(rand.NewSource(1))
		max := uint64(1)<<width - 1
		for i := 0; i < 64*1024; i++ {
			v.Append(rng.Uint64() & max)
		}
		out := NewBitmap(v.Len())
		b.Run(map[uint]string{3: "width3", 8: "width8", 17: "width17"}[width], func(b *testing.B) {
			b.SetBytes(int64(v.SizeBytes()))
			for i := 0; i < b.N; i++ {
				out.Reset()
				v.CompareScalar(CmpLT, max/2, out)
			}
		})
	}
}

func BenchmarkCompareRange(b *testing.B) {
	for _, width := range []uint{3, 8, 17} {
		v := NewVector(width)
		rng := rand.New(rand.NewSource(1))
		max := uint64(1)<<width - 1
		for i := 0; i < 64*1024; i++ {
			v.Append(rng.Uint64() & max)
		}
		out := NewBitmap(v.Len())
		name := map[uint]string{3: "width3", 8: "width8", 17: "width17"}[width]
		for _, r := range []struct {
			name   string
			lo, hi uint64
		}{{"point", max / 3, max / 3}, {"half", max / 4, max / 4 * 3}} {
			b.Run(name+"/"+r.name, func(b *testing.B) {
				b.SetBytes(int64(v.SizeBytes()))
				for i := 0; i < b.N; i++ {
					out.Reset()
					v.CompareRange(r.lo, r.hi, out)
				}
			})
		}
	}
}

// NewBitmapFull returns an all-one bitmap of length n.
func NewBitmapFull(n int) *Bitmap {
	b := NewBitmap(n)
	b.SetAll()
	return b
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}
