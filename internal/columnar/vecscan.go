package columnar

import (
	"fmt"
	"sync"

	"dashdb/internal/bitpack"
	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/vec"
)

// VectorsEnc materializes the batch's selected tuples as typed column
// vectors, decoding column-at-a-time: one page lookup per column and a
// tight decode loop over the selected offsets, instead of the per-row
// Value calls Row performs. projection lists the table-schema ordinals to
// produce (nil = all columns). Like Row, the returned vectors are copies
// and stay valid after the scan callback returns.
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
// gathered once, a page word at a time or from the open stride's codes,
// and a decoded column goes through its encoder's one typed kernel.
func (b *Batch) vector(ci int, wantCodes bool) *vec.Vector {
	kind := b.t.schema[ci].Kind
	enc := b.st.cols[ci].enc
	if d, ok := enc.(*encoding.Dict); ok && wantCodes {
		v := vec.NewCodes(kind, len(b.sel), d)
		_, v.Nulls = b.gather(ci, v.Codes)
		return v
	}
	// A column the planner thought dictionary-encoded may have been
	// re-encoded since (e.g. truncate + reload): it is decoded instead.
	v := vec.New(kind, len(b.sel))
	buf := codeScratch.Get().(*[page.StrideSize]uint64)
	codes, nulls := b.gather(ci, buf[:0])
	v.Nulls = nulls
	enc.DecodeAll(codes, nulls, encoding.Decoded{I64: v.I64, F64: v.F64, Str: v.Str, Any: v.Any})
	codeScratch.Put(buf)
	return v
}

// codeScratch recycles the buffers vector gathers a column's codes into
// before it decodes them, so a decoded batch allocates its vectors and no
// more.
var codeScratch = sync.Pool{New: func() any { return new([page.StrideSize]uint64) }}

// gather writes column ci's codes for the selected tuples into dst (grown
// as needed), in selection order, and returns them with their NULL flags
// as a bitmap over selection positions, nil when none is NULL.
func (b *Batch) gather(ci int, dst []uint64) ([]uint64, *bitpack.Bitmap) {
	if !b.open() {
		pg := b.page(ci)
		return pg.Codes.Gather(b.sel, dst), pg.Nulls.Gather(b.sel)
	}
	c := &b.st.cols[ci]
	return gatherOpen(c.openCodes, c.openNulls, b.sel, dst)
}

// gatherOpen is Batch.gather over the open stride's codes and NULL flags.
//
//dashdb:hotpath
func gatherOpen(codes []uint64, nulls []bool, sel []int, dst []uint64) ([]uint64, *bitpack.Bitmap) {
	if cap(dst) < len(sel) {
		dst = make([]uint64, len(sel))
	}
	dst = dst[:len(sel)]
	var nb *bitpack.Bitmap
	for k, off := range sel {
		dst[k] = codes[off]
		if nulls[off] {
			if nb == nil {
				nb = bitpack.NewBitmap(len(sel))
			}
			nb.Set(k)
		}
	}
	return dst, nb
}

// page loads (and caches) the batch's page for column ci.
func (b *Batch) page(ci int) *page.Page {
	pg, ok := b.pages[ci]
	if !ok {
		gen := b.st.cols[ci].gen
		var err error
		pg, err = b.t.loadPageGen(ci, gen, b.stride)
		if err != nil {
			panicPageLoad(b.t.id, ci, gen, b.stride, err)
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
