package mem

import (
	"unsafe"

	"dashdb/internal/types"
)

// valueSize is the in-memory footprint of one types.Value, including its
// embedded 16-byte string header and alignment padding. Computed from the
// real struct layout rather than guessed, so reservations track the heap
// the runtime actually allocates.
const valueSize = int64(unsafe.Sizeof(types.Value{}))

// rowHeaderSize is the slice header of a types.Row.
const rowHeaderSize = int64(unsafe.Sizeof(types.Row{}))

// RowBytes is the row-sizing helper of the join reservations, whose state
// is rows (group-by and sort charge the columns they allocate). It
// charges the slice header, the full boxed Value array (every element
// carries the union payload and string header whether or not that arm is in
// use), and the out-of-line string bytes.
func RowBytes(r types.Row) int64 {
	sz := rowHeaderSize + valueSize*int64(cap(r))
	for _, v := range r {
		if v.Kind() == types.KindString && !v.IsNull() {
			sz += int64(len(v.Str()))
		}
	}
	return sz
}

// RowsBytes sums RowBytes over a batch.
func RowsBytes(rows []types.Row) int64 {
	var sz int64
	for _, r := range rows {
		sz += RowBytes(r)
	}
	return sz
}
