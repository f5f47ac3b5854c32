package bitpack

import (
	"math/rand"
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
		got := v.Unpack(nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("width %d: Unpack[%d]=%d want %d", width, i, got[i], want[i])
			}
		}
	}
}

// TestAppendAllGather: runs appended with AppendAll, starting at every
// slot of a word, read back by Get; Gather of ascending selections,
// dense, sparse and empty, equals Get at each selected position.
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
			got := v.Gather(sel, nil)
			for k, i := range sel {
				if got[k] != want[i] {
					t.Fatalf("width %d, %d selected: Gather[%d]=%d want code %d's %d", width, len(sel), k, got[k], i, want[i])
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
	// Width 7 → 8-bit cells → 8 codes per word: "tens of values" per word
	// at narrow widths (width 1 → 32 per word).
	if NewVector(7).PerWord() != 8 {
		t.Error("width 7 must pack 8 per word")
	}
	if NewVector(1).PerWord() != 32 {
		t.Error("width 1 must pack 32 per word")
	}
	if NewVector(31).PerWord() != 2 {
		t.Error("width 31 must pack 2 per word")
	}
}

var allOps = []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}

// TestSWARMatchesScalar cross-validates every SWAR kernel against the
// value-at-a-time reference over many widths, lengths and constants,
// including boundary constants 0 and max.
func TestSWARMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, width := range []uint{1, 2, 3, 4, 6, 9, 12, 16, 21, 32} {
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
	// 3 codes of width 20 → one word holds 3 cells; a second word holds
	// 2 live cells and a zero tail. EQ 0 must not match the tail.
	v := NewVector(20)
	v.AppendAll([]uint64{5, 0, 9, 0, 7})
	out := NewBitmap(5)
	v.Compare(CmpEQ, 0, out)
	if out.Count() != 2 || !out.Get(1) || !out.Get(3) {
		t.Fatalf("EQ 0 matched wrong set: count=%d", out.Count())
	}
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
		union := ge.Clone()
		union.Or(lt)
		inter := ge.Clone()
		inter.And(lt)
		return union.Count() == n && !inter.Any()
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
	or := a.Clone()
	or.Or(b)
	if or.Count() != 4 {
		t.Fatalf("Or: %d", or.Count())
	}
	a.AndNot(b)
	if a.Count() != 2 || a.Get(64) {
		t.Fatalf("AndNot: %d", a.Count())
	}

	full := NewBitmapFull(130)
	if full.Count() != 130 {
		t.Fatalf("full count %d", full.Count())
	}
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
