package synopsis

import (
	"math"
	"testing"
)

// TestSketchSmallCountsNearExact: linear counting keeps tiny cardinalities
// (the dimension-table case that decides join order) essentially exact.
func TestSketchSmallCountsNearExact(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 25} {
		var s Sketch
		for i := 0; i < n; i++ {
			// Repeat each code several times: duplicates must not inflate.
			for rep := 0; rep < 7; rep++ {
				s.AddCode(uint64(i) * 1000003)
			}
		}
		est := s.Estimate()
		if math.Abs(est-float64(n)) > math.Max(1, 0.3*float64(n)) {
			t.Fatalf("n=%d: estimate %.1f", n, est)
		}
	}
}

// TestSketchLargeCountsWithinError: the m=64 HLL should track large
// cardinalities within a generous 3σ-ish bound (σ ≈ 1.04/sqrt(64) ≈ 13%).
func TestSketchLargeCountsWithinError(t *testing.T) {
	for _, n := range []int{1000, 10000, 100000} {
		var s Sketch
		for i := 0; i < n; i++ {
			s.AddCode(uint64(i))
		}
		est := s.Estimate()
		if est < 0.6*float64(n) || est > 1.4*float64(n) {
			t.Fatalf("n=%d: estimate %.0f outside ±40%%", n, est)
		}
	}
}

// TestSketchDenseVsSparseCodes: frame-of-reference codes are dense small
// ints; dictionary codes can be sparse. Hashing must make both behave.
func TestSketchDenseVsSparseCodes(t *testing.T) {
	var dense, sparse Sketch
	for i := 0; i < 5000; i++ {
		dense.AddCode(uint64(i))
		sparse.AddCode(uint64(i) << 40)
	}
	de, se := dense.Estimate(), sparse.Estimate()
	if de < 3000 || de > 7000 || se < 3000 || se > 7000 {
		t.Fatalf("dense=%.0f sparse=%.0f, want both near 5000", de, se)
	}
}

// TestColumnObserveAndCopy: Column feeds the sketch via Observe, skipping
// NULLs; SketchCopy snapshots are independent of the sealed state.
func TestColumnObserveAndCopy(t *testing.T) {
	var c Column
	codes := make([]uint64, 100)
	for i := range codes {
		codes[i] = uint64(i % 10)
	}
	c.Observe(codes, func(i int) bool { return i%2 == 1 })
	base := c.SketchCopy().Estimate()
	if base < 3 || base > 12 {
		t.Fatalf("estimate %.1f, want ≈ 5..10", base)
	}
	cp := c.SketchCopy()
	for i := 0; i < 100; i++ {
		cp.AddCode(uint64(1000 + i))
	}
	if after := c.SketchCopy().Estimate(); after != base {
		t.Fatalf("mutating a copy changed the column sketch: %.1f != %.1f", after, base)
	}
}
