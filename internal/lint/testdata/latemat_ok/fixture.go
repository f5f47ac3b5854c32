//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package kernels holds the negative latemat fixtures: code-space
// kernels, sanctioned materialization sites, non-hotpath helpers, and an
// explicitly suppressed decode.
package kernels

// Dict is a local stand-in for encoding.Dict (fixtures are stdlib-only).
type Dict struct{ dom []string }

// Decode maps one code back to its value.
func (d *Dict) Decode(c uint64) string { return d.dom[c] }

// filterCodes stays entirely in code space — the intended shape.
//
//dashdb:hotpath
func filterCodes(codes []uint64, lo, hi uint64, sel []int) []int {
	out := sel[:0]
	for i, c := range codes {
		if c-lo <= hi-lo {
			out = append(out, i)
		}
	}
	return out
}

// emitGroups is a sanctioned decode point: once per distinct group at
// emit, not once per input row.
//
//dashdb:hotpath
func emitGroups(d *Dict, groupCodes []uint64) []string {
	out := make([]string, len(groupCodes))
	for i, c := range groupCodes {
		out[i] = d.Decode(c)
	}
	return out
}

// materializeColumn is the projection's single materialization pass.
//
//dashdb:hotpath
func materializeColumn(d *Dict, codes []uint64) []string {
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = d.Decode(c)
	}
	return out
}

// debugValue is not a hotpath kernel, so decoding is fine.
func debugValue(d *Dict, c uint64) string { return d.Decode(c) }

// padUnmatched decodes one value on the cold outer-join padding path; the
// suppression documents why the invariant does not apply.
//
//dashdb:hotpath
func padUnmatched(d *Dict, c uint64) string {
	return d.Decode(c) //dashdb:nolint latemat cold path, runs once per unmatched row batch
}
