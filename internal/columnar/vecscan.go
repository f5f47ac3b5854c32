package columnar

import (
	"fmt"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
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
// its raw dictionary codes when wantCodes is set.
func (b *Batch) vector(ci int, wantCodes bool) *vec.Vector {
	kind := b.t.schema[ci].Kind
	c := &b.st.cols[ci]
	if wantCodes {
		if d, ok := c.enc.(*encoding.Dict); ok {
			return b.codeVector(ci, kind, d)
		}
		// Defensive: the planner thought this column was dict-encoded but
		// the encoder changed (e.g. truncate + reload); decode instead.
	}
	v := vec.New(kind, len(b.sel))
	if b.stride < 0 {
		// Open stride: values are buffered unencoded.
		for k, off := range b.sel {
			if c.openNulls[off] {
				v.SetNull(k)
			} else {
				v.Set(k, c.openVals[off])
			}
		}
		return v
	}
	pg := b.page(ci)
	codes, nulls := pg.Codes, pg.Nulls
	if f, ok := c.enc.(*encoding.IntFOR); ok && v.I64 != nil {
		// Frame-of-reference fast path: raw = base + code, written straight
		// into the int64 payload without boxing a types.Value per tuple.
		base := f.Base()
		for k, off := range b.sel {
			if nulls.Get(off) {
				v.SetNull(k)
				continue
			}
			v.I64[k] = base + int64(codes.Get(off))
		}
		return v
	}
	if d, ok := c.enc.(*encoding.Dict); ok {
		// Dictionary fast path: decode through a single snapshot instead of
		// a per-row Decode call (which takes the dictionary lock each time),
		// writing strings straight into the string payload with no per-row
		// types.Value boxing.
		dom := d.Snapshot()
		if v.Str != nil {
			for k, off := range b.sel {
				if nulls.Get(off) {
					v.SetNull(k)
					continue
				}
				v.Str[k] = dom[codes.Get(off)].Str()
			}
			return v
		}
		for k, off := range b.sel {
			if nulls.Get(off) {
				v.SetNull(k)
				continue
			}
			v.Set(k, dom[codes.Get(off)])
		}
		return v
	}
	enc := c.enc
	for k, off := range b.sel {
		if nulls.Get(off) {
			v.SetNull(k)
			continue
		}
		v.Set(k, enc.Decode(codes.Get(off)))
	}
	return v
}

// codeVector gathers column ci's dictionary codes for the selected tuples
// into a code-carrying vector over dict.
func (b *Batch) codeVector(ci int, kind types.Kind, dict *encoding.Dict) *vec.Vector {
	v := vec.NewCodes(kind, len(b.sel), dict)
	if b.stride < 0 {
		c := &b.st.cols[ci]
		for k, off := range b.sel {
			if c.openNulls[off] {
				v.SetNull(k)
				continue
			}
			v.Codes[k] = c.openCodes[off]
		}
		return v
	}
	pg := b.page(ci)
	codes, nulls := pg.Codes, pg.Nulls
	for k, off := range b.sel {
		if nulls.Get(off) {
			v.SetNull(k)
			continue
		}
		v.Codes[k] = codes.Get(off)
	}
	return v
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
