package synopsis

import (
	"math"
	"math/bits"
)

// sketchRegisters is the HyperLogLog register count (m). 64 registers cost
// 64 bytes per column — noise next to the min/max entries — and keep the
// relative error near 1.04/sqrt(64) ≈ 13%, plenty for join planning where
// estimates only need to be right to within an order of magnitude.
const sketchRegisters = 64

// sketchAlpha is the HyperLogLog bias-correction constant for m = 64.
const sketchAlpha = 0.709

// Sketch is a fixed-size HyperLogLog distinct-count estimator over column
// codes. It is fed at stride-seal time (and again on encoder rebuilds,
// after the synopsis resets), so by the time the planner consults it the
// sketch covers every sealed stride. Codes are hashed, not used directly:
// frame-of-reference codes are dense small integers whose low bits carry
// no entropy. Because every encoder in the engine assigns codes
// injectively, distinct codes equal distinct values.
//
// The zero value is an empty sketch. Sketch is a plain value type: copy it
// to take a snapshot that can absorb the open stride without perturbing
// the sealed state.
type Sketch struct {
	reg [sketchRegisters]uint8
}

// AddCode observes one (non-NULL) code.
func (s *Sketch) AddCode(code uint64) {
	h := mix64(code)
	idx := h & (sketchRegisters - 1)
	// Rank of the first set bit in the remaining hash bits (1-based).
	rest := h>>6 | 1<<58 // sentinel so rank is bounded
	rank := uint8(bits.TrailingZeros64(rest) + 1)
	if rank > s.reg[idx] {
		s.reg[idx] = rank
	}
}

// Estimate returns the approximate number of distinct codes observed.
func (s Sketch) Estimate() float64 {
	sum := 0.0
	zeros := 0
	for _, r := range s.reg {
		sum += math.Ldexp(1, -int(r))
		if r == 0 {
			zeros++
		}
	}
	est := sketchAlpha * sketchRegisters * sketchRegisters / sum
	// Linear counting for the small range, where raw HLL is biased.
	if est <= 2.5*sketchRegisters && zeros > 0 {
		est = sketchRegisters * math.Log(float64(sketchRegisters)/float64(zeros))
	}
	return est
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer, so dense code domains spread evenly over the registers.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
