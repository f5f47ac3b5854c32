package columnar

import (
	"fmt"
	"sync"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/vec"
)

// VectorsEnc materializes the batch's selected tuples as typed column
// vectors, decoding column-at-a-time: one page lookup per column and a
// tight decode loop over the selected offsets, instead of the per-row
// Value calls Row performs. projection lists the table-schema ordinals to
// produce (nil = all columns). Like Row, the returned vectors are copies
// and stay valid after the scan callback returns. Their payloads come from
// vec's pools (vec.NewPooled): a caller that wraps them in a batch may mark
// it owned (vec.Batch.Own), so the consumer that copies it out returns
// them (vec.Batch.Release); vectors nobody releases are garbage, as any
// allocation is.
//
// encoded gives per-output-position control over compressed emission: when
// encoded[j] is true the j'th output column is delivered as a code-carrying
// vector (dictionary codes + *encoding.Dict reference) instead of
// materialized values — the paper's operate-on-compressed-data hand-off
// (§II.B.2). encoded positions must correspond to columns for which
// ColumnDict reports a dictionary; nil encoded means decode everything. The
// scan's pinned epoch guarantees the dictionary captured inside each code
// vector assigned every code in the batch (dictionaries are append-only, so
// later epochs can only extend it).
func (b *Batch) VectorsEnc(projection []int, encoded []bool) []*vec.Vector {
	if projection == nil {
		out := make([]*vec.Vector, len(b.t.schema))
		for ci := range b.t.schema {
			out[ci] = b.vector(ci, len(encoded) > ci && encoded[ci])
		}
		return out
	}
	out := make([]*vec.Vector, len(projection))
	for j, ci := range projection {
		out[j] = b.vector(ci, len(encoded) > j && encoded[j])
	}
	return out
}

// vector decodes one column of the batch's selected tuples, or gathers
// its raw dictionary codes when wantCodes is set. Either way the codes are
// gathered once, a page word at a time, and a decoded column goes through
// its encoder's one typed kernel.
func (b *Batch) vector(ci int, wantCodes bool) *vec.Vector {
	kind := b.t.schema[ci].Kind
	enc := b.st.cols[ci].enc
	if d, ok := enc.(*encoding.Dict); ok && wantCodes {
		v := vec.NewPooledCodes(kind, len(b.sel), d)
		v.Codes, v.Nulls = b.page(ci).Gather(b.sel, v.Codes)
		return v
	}
	// A column the planner thought dictionary-encoded may have been
	// re-encoded since (e.g. truncate + reload): it is decoded instead.
	v := vec.NewPooled(kind, len(b.sel))
	buf := codeScratch.Get().(*[page.StrideSize]uint64)
	codes, nulls := b.page(ci).Gather(b.sel, buf[:0])
	v.Nulls = nulls
	enc.DecodeAll(codes, nulls, encoding.Decoded{I64: v.I64, F64: v.F64, Str: v.Str, Any: v.Any})
	codeScratch.Put(buf)
	return v
}

// codeScratch recycles the buffers vector gathers a column's codes into
// before it decodes them, so a decoded batch allocates its vectors and no
// more.
var codeScratch = sync.Pool{New: func() any { return new([page.StrideSize]uint64) }}

// page loads (and caches) the batch's page for column ci: the tail's, or
// a sealed page.
func (b *Batch) page(ci int) *page.Page {
	pg, ok := b.pages[ci]
	if !ok {
		var err error
		if pg, err = b.t.pageOf(b.st, ci, b.stride); err != nil {
			panicPageLoad(b.t.id, ci, b.st.cols[ci].gen, b.stride, err)
		}
		b.pages[ci] = pg
	}
	return pg
}

// panicPageLoad keeps the formatted abort out of Batch.page: the page
// lookup runs once per column per stride from the vector-scan kernels,
// and an inline fmt.Sprintf would outline it from every caller.
func panicPageLoad(tableID uint32, ci int, gen uint32, stride int, err error) {
	panic(fmt.Sprintf("columnar: batch page load %v: %v", pageIDFor(tableID, ci, gen, stride), err))
}
