//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

//dashdb:nolint droppederr typeassert file-wide: fallback shims ignore parse errors by design
package quiet

import "strconv"

// fileScopeDrops would trip droppederr without the file-level directive
// above the package clause.
func fileScopeDrops(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

// fileScopeAssert would trip typeassert without the file-level directive.
func fileScopeAssert(v any) int {
	return v.(int)
}
