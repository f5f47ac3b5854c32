//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package hotcgok is the negative hotpathcg fixture: kernels whose
// helpers are clean, //dashdb:coldpath-annotated, hotpath kernels
// themselves, or abort stubs reached only through guards.
package hotcgok

import "fmt"

// double is a clean helper: no hazards however deep.
func double(x int) int { return x * 2 }

// boundsPanic is an abort stub; guarded calls to it are deliberate
// bounds checks, and nothing inside an abort stub counts as a hazard
// (the fmt.Sprintf below never runs on the hot path — and never
// outlines the caller, because the whole helper is already a call).
func boundsPanic(i, n int) {
	panic(fmt.Sprintf("hotcgok: index %d out of range [0,%d)", i, n))
}

// errNegative builds the failure error off the steady-state path; the
// annotation is the source-visible assertion that makes it exempt.
//
//dashdb:coldpath error construction runs only on failing inputs
func errNegative(x int) error {
	return fmt.Errorf("hotcgok: negative value %d", x)
}

// inner is itself a hotpath kernel: audited as its own root, never
// re-reported through callers.
//
//dashdb:hotpath
func inner(x int) int { return x + 1 }

// kernel stays clean through every hop.
//
//dashdb:hotpath
func kernel(xs []int) int {
	total := 0
	for i, x := range xs {
		if i >= len(xs) {
			boundsPanic(i, len(xs))
		}
		total += double(x) + inner(x)
	}
	return total
}

// kernelErr returns a cold-constructed error on the failure path.
//
//dashdb:hotpath
func kernelErr(xs []int) (int, error) {
	total := 0
	for _, x := range xs {
		if x < 0 {
			return 0, errNegative(x)
		}
		total += x
	}
	return total, nil
}
