package vec

import (
	"sync"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
)

// Pooled payloads. A scan decodes every stride it visits into fresh
// vectors, and a sort, group-by or join gathers its output a chunk at a
// time; without recycling, each vector is a new 8–16 KB payload that lives
// only until the operator above has copied it out. So these producers take
// their payloads from per-kind pools of PoolCap-capacity arrays and mark
// the batches they build owned (Own), and the consumer that copies a batch
// out hands them back (Release).
//
// Ownership has three rules:
//   - An owned batch is never copied: WithSel copies are unowned, and so is
//     anything built over another batch's vectors unless it Adopts them.
//   - A pass-through operator moves the batch to its output: it narrows Sel
//     in place, or its output Adopts its input.
//   - Only a consumer that has copied out everything it keeps calls
//     Release. A holder that keeps the batch calls Disown instead.
//
// A batch that is never released is garbage, as any allocation is. A
// released vector has no payload, so a read after Release panics instead
// of seeing data some later batch wrote into the recycled array.

// PoolCap is the capacity of a pooled payload: one storage stride, the
// most positions a scan batch holds.
const PoolCap = page.StrideSize

// poolMin is the fewest positions a pooled payload is drawn for. A shorter
// vector costs less allocated to size than a stride-long array would, and
// a batch nobody releases then wastes at most PoolCap/poolMin times what it
// shows.
const poolMin = PoolCap / 4

var (
	i64Pool  = sync.Pool{New: func() any { return new([PoolCap]int64) }}
	f64Pool  = sync.Pool{New: func() any { return new([PoolCap]float64) }}
	strPool  = sync.Pool{New: func() any { return new([PoolCap]string) }}
	codePool = sync.Pool{New: func() any { return new([PoolCap]uint64) }}
)

// NewPooled is New with its payload taken from the pools. The payload is
// not zeroed: the caller writes every one of the n positions. A boxed
// (KindNull) vector, or one shorter than PoolCap/4 or longer than PoolCap,
// is allocated as New does.
func NewPooled(kind types.Kind, n int) *Vector {
	if n < poolMin || n > PoolCap {
		return New(kind, n)
	}
	v := &Vector{Kind: kind, pooled: true}
	v.I64, v.F64, v.Str, v.Any = payload(kind, n)
	return v
}

// payload takes an n-position payload of kind's representation from the
// pools (n ≤ PoolCap); a boxed one is allocated.
func payload(kind types.Kind, n int) ([]int64, []float64, []string, []types.Value) {
	switch kind {
	case types.KindInt, types.KindBool, types.KindDate, types.KindTimestamp:
		return i64Pool.Get().(*[PoolCap]int64)[:n], nil, nil, nil
	case types.KindFloat:
		return nil, f64Pool.Get().(*[PoolCap]float64)[:n], nil, nil
	case types.KindString:
		return nil, nil, strPool.Get().(*[PoolCap]string)[:n], nil
	}
	return nil, nil, nil, make([]types.Value, n)
}

// NewPooledCodes is NewCodes with its codes taken from the pools, on the
// terms of NewPooled; the caller writes all n. Materialize decodes such a
// vector into a pooled payload too.
func NewPooledCodes(kind types.Kind, n int, dict *encoding.Dict) *Vector {
	if n < poolMin || n > PoolCap {
		return NewCodes(kind, n, dict)
	}
	return &Vector{Kind: kind, Codes: codePool.Get().(*[PoolCap]uint64)[:n], Dict: dict, dom: dict.Snapshot(), pooled: true}
}

// recycle returns the vector's pooled payloads and drops every payload
// field, so a later read panics. A second call finds nothing to return.
func (v *Vector) recycle() {
	if v.pooled {
		if cap(v.I64) == PoolCap {
			i64Pool.Put((*[PoolCap]int64)(v.I64[:PoolCap]))
		}
		if cap(v.F64) == PoolCap {
			f64Pool.Put((*[PoolCap]float64)(v.F64[:PoolCap]))
		}
		if cap(v.Str) == PoolCap {
			s := (*[PoolCap]string)(v.Str[:PoolCap])
			clear(s[:]) // the pool must not keep the strings alive
			strPool.Put(s)
		}
		if cap(v.Codes) == PoolCap {
			codePool.Put((*[PoolCap]uint64)(v.Codes[:PoolCap]))
		}
	}
	v.I64, v.F64, v.Str, v.Any, v.Nulls = nil, nil, nil, nil, nil
	v.Codes, v.Dict, v.dom, v.pooled = nil, nil, nil, false
}

// Own marks the batch owned: its column vectors' pooled payloads are
// returned by Release. Only the producer that made the vectors calls it.
func (b *Batch) Own() { b.owns = b.cols }

// Adopt moves in's ownership to b, an output built over in's vectors (a
// projection): Release on b returns what in owned, including vectors b
// does not show, and in is left unowned.
func (b *Batch) Adopt(in *Batch) { b.owns, in.owns = in.owns, nil }

// Disown leaves the batch unowned, for a holder that keeps it: nothing
// will return its payloads, and they stay valid for as long as it is held.
func (b *Batch) Disown() { b.owns = nil }

// Release returns an owned batch's pooled payloads and leaves every vector
// it owned without one, so a vector two columns share is returned once. It
// is a no-op on an unowned batch. The caller must have copied out all it
// keeps: after Release no vector of the batch, nor any view of one, may be
// read.
func (b *Batch) Release() {
	for _, v := range b.owns {
		v.recycle()
	}
	b.owns = nil
}
