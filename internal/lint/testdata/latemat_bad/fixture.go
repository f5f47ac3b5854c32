//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package kernels exercises the latemat analyzer: hotpath executor
// kernels must keep dictionary codes encoded instead of decoding per
// element.
package kernels

// Dict is a local stand-in for encoding.Dict (fixtures are stdlib-only).
type Dict struct{ dom []string }

// Decode maps one code back to its value.
func (d *Dict) Decode(c uint64) string { return d.dom[c] }

// filterStride compares in value space by decoding every element — the
// exact anti-pattern operate-on-compressed-data execution forbids.
//
//dashdb:hotpath
func filterStride(d *Dict, codes []uint64, want string, sel []int) []int {
	out := sel[:0]
	for i, c := range codes {
		if d.Decode(c) == want { //lint:expect latemat
			out = append(out, i)
		}
	}
	return out
}

// groupKeys decodes inside the build loop instead of once per distinct
// group at emit.
//
//dashdb:hotpath
func groupKeys(d *Dict, codes []uint64) map[string]int {
	counts := make(map[string]int, len(codes))
	for _, c := range codes {
		counts[d.Decode(c)]++ //lint:expect latemat
	}
	return counts
}
