package encoding

import (
	"math"

	"dashdb/internal/types"
)

// IntFOR is the "minus encoding" of §II.B.1: integers (and dates and
// timestamps, which the engine holds as integer day / microsecond counts)
// are stored as the difference from a per-column base value. High-
// cardinality numerics with a bounded range compress to bits(max−min).
//
// Codes are fully order preserving: code(a) < code(b) ⇔ a < b, so every
// comparison predicate translates to a single code range.
type IntFOR struct {
	base  int64  // encoded value = raw − base
	limit uint64 // highest code handed out so far
	width uint
	kind  types.Kind // value kind to decode back into
}

// NewIntFOR creates a minus encoder for values known to lie in [min, max].
// The width is fixed by that range; Encode panics on values outside it
// (the analyzer widens the range before construction; the columnar layer
// extends the frame, or rebuilds the column, when a batch falls outside
// it).
func NewIntFOR(min, max int64, kind types.Kind) *IntFOR {
	if max < min {
		max = min
	}
	span := uint64(max - min)
	return &IntFOR{
		base:  min,
		limit: span,
		width: widthForSpan(span),
		kind:  kind,
	}
}

func widthForSpan(span uint64) uint {
	w := uint(1)
	for ; w < 64; w++ {
		if span < 1<<w {
			break
		}
	}
	if w > 32 {
		w = 32 // clamp to bitpack.MaxWidth; analyzer avoids wider spans
	}
	return w
}

// Kind reports KindIntFOR.
func (e *IntFOR) Kind() Kind { return KindIntFOR }

// Width returns the code width in bits.
func (e *IntFOR) Width() uint { return e.width }

// Cardinality returns the domain size (span + 1).
func (e *IntFOR) Cardinality() int { return int(e.limit) + 1 }

// MemSize is constant: minus encoding has no dictionary.
func (e *IntFOR) MemSize() int { return 32 }

// Contains reports whether raw lies inside the encodable domain.
func (e *IntFOR) Contains(raw int64) bool {
	return raw >= e.base && uint64(raw-e.base) <= e.limit
}

// Extend returns an encoder whose frame also holds every raw value in
// [lo, hi]: e itself when it already does (an empty span, lo > hi, needs
// nothing), otherwise an IntFOR with e's base whose limit reaches hi plus
// the analyzer's headroom. Codes are raw − base under both, so every code
// e handed out — sealed pages, synopsis entries, the open stride — keeps
// its meaning, and e itself stays as it is for the epochs that published
// it. ok is false when only a rebuild can hold the span: lo lies below
// the base, or hi − base does not fit 32 bits.
//
//dashdb:hotpath
func (e *IntFOR) Extend(lo, hi int64) (*IntFOR, bool) {
	return e.extend(lo, hi, 1)
}

// extend is Extend with the headroom unit of the caller's value domain.
func (e *IntFOR) extend(lo, hi, unit int64) (*IntFOR, bool) {
	if lo > hi || e.Contains(lo) && e.Contains(hi) {
		return e, true
	}
	if lo < e.base {
		return nil, false
	}
	span := uint64(hi) - uint64(e.base)
	if span >= 1<<maxFORWidth {
		return nil, false
	}
	limit := min(span+headroom(span, unit), 1<<maxFORWidth-1)
	return &IntFOR{base: e.base, limit: limit, width: widthForSpan(limit), kind: e.kind}, true
}

// EncodeAll writes the code of each value in vals to codes, 0 for a NULL.
// Every non-NULL value must be of an integral kind and inside the frame:
// the columnar layer extends or rebuilds the frame over a whole batch
// before it encodes any of it.
//
//dashdb:hotpath
func (e *IntFOR) EncodeAll(vals []types.Value, codes []uint64) {
	codes = codes[:len(vals)]
	for i, v := range vals {
		if v.IsNull() {
			codes[i] = 0
			continue
		}
		code := uint64(v.Int() - e.base)
		if code > e.limit {
			panic("encoding: IntFOR.EncodeAll outside domain; caller must fit the frame first")
		}
		codes[i] = code
	}
}

// Decode maps a code back to a value of the encoder's kind.
func (e *IntFOR) Decode(code uint64) types.Value {
	raw := e.base + int64(code)
	switch e.kind {
	case types.KindDate:
		return types.NewDate(raw)
	case types.KindTimestamp:
		return types.NewTimestamp(raw)
	case types.KindBool:
		return types.NewBool(raw != 0)
	default:
		return types.NewInt(raw)
	}
}

// Translate converts "column OP v" into code space. Because minus codes
// are order preserving, every operator becomes at most one code range.
func (e *IntFOR) Translate(op CmpOp, v types.Value) Predicate {
	if v.IsNull() {
		return NonePredicate()
	}
	// Constants may be floats (e.g. "x < 2.5"): compare against the
	// integer lattice correctly by flooring/ceiling.
	var lo, hi bool // constant below/above the whole domain
	var c int64
	if f, ok := v.AsFloat(); ok && v.Kind() == types.KindFloat && f != math.Trunc(f) {
		switch op {
		case OpEQ:
			return NonePredicate()
		case OpNE:
			return AllPredicate()
		case OpLT, OpLE:
			c = int64(math.Ceil(f)) // x < 2.5 ⇔ x <= 2 ⇔ x < 3
			op = OpLT
		case OpGT, OpGE:
			c = int64(math.Floor(f)) // x > 2.5 ⇔ x >= 3 ⇔ x > 2
			op = OpGT
		}
	} else if i, ok := v.AsInt(); ok {
		c = i
	} else {
		return NonePredicate()
	}
	lo = c < e.base
	hi = c > e.base+int64(e.limit)

	code := func() uint64 { return uint64(c - e.base) }
	switch op {
	case OpEQ:
		if lo || hi {
			return NonePredicate()
		}
		return Predicate{Ranges: []CodeRange{{code(), code()}}}
	case OpNE:
		if lo || hi {
			return AllPredicate()
		}
		var rs []CodeRange
		if code() > 0 {
			rs = append(rs, CodeRange{0, code() - 1})
		}
		if code() < e.limit {
			rs = append(rs, CodeRange{code() + 1, e.limit})
		}
		if len(rs) == 0 {
			return NonePredicate()
		}
		return Predicate{Ranges: rs}
	case OpLT:
		if lo {
			return NonePredicate()
		}
		if hi {
			return AllPredicate()
		}
		if code() == 0 {
			return NonePredicate()
		}
		return Predicate{Ranges: []CodeRange{{0, code() - 1}}}
	case OpLE:
		if lo {
			return NonePredicate()
		}
		if hi {
			return AllPredicate()
		}
		return Predicate{Ranges: []CodeRange{{0, code()}}}
	case OpGT:
		if hi {
			return NonePredicate()
		}
		if lo {
			return AllPredicate()
		}
		if code() == e.limit {
			return NonePredicate()
		}
		return Predicate{Ranges: []CodeRange{{code() + 1, e.limit}}}
	case OpGE:
		if hi {
			return NonePredicate()
		}
		if lo {
			return AllPredicate()
		}
		return Predicate{Ranges: []CodeRange{{code(), e.limit}}}
	}
	return NonePredicate()
}
