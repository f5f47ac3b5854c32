package encoding

import (
	"math"

	"dashdb/internal/types"
)

// FloatFOR encodes fixed-point floats (prices, amounts — the DECIMAL-like
// columns that dominate warehouse facts) as scaled integers under minus
// encoding: code = value·scale − base. This matches how the engine treats
// NUMBER/DECIMAL data and avoids drowning high-cardinality monetary
// columns in dictionary storage. Codes are order preserving, so every
// comparison translates to a single code range.
type FloatFOR struct {
	inner *IntFOR
	scale float64 // 1, 100 or 10000: decimal places × 2
}

// floatForScales are the fixed-point denominators the analyzer probes.
var floatForScales = []float64{1, 100, 10000}

// exactFixedPoint returns f·scale as an integer when that fixed-point
// form decodes back to f bit for bit. A tolerance here would make the
// encoding lossy: 861.99999999999989 would read back as 862 and change
// place under ORDER BY. NaN, ±Inf and -0 never qualify.
func exactFixedPoint(f, scale float64) (int64, bool) {
	s := f * scale
	if math.Abs(s) > 1e15 {
		return 0, false
	}
	r := int64(math.Round(s))
	if math.Float64bits(float64(r)/scale) != math.Float64bits(f) {
		return 0, false
	}
	return r, true
}

// fixedPointScale returns the smallest scale at which every sample value
// is exactly fixed-point, or 0 when none fits.
func fixedPointScale(sample []types.Value) float64 {
	for _, scale := range floatForScales {
		ok := true
		for _, v := range sample {
			f, isNum := v.AsFloat()
			if !isNum {
				return 0
			}
			if _, ok = exactFixedPoint(f, scale); !ok {
				break
			}
		}
		if ok {
			return scale
		}
	}
	return 0
}

// NewFloatFOR creates a fixed-point minus encoder covering
// [min·scale, max·scale].
func NewFloatFOR(min, max int64, scale float64) *FloatFOR {
	return &FloatFOR{inner: NewIntFOR(min, max, types.KindInt), scale: scale}
}

// Kind reports KindIntFOR (it is minus encoding, on scaled values).
func (e *FloatFOR) Kind() Kind { return KindIntFOR }

// Width returns the code width in bits.
func (e *FloatFOR) Width() uint { return e.inner.Width() }

// Cardinality returns the scaled-domain size.
func (e *FloatFOR) Cardinality() int { return e.inner.Cardinality() }

// MemSize is constant.
func (e *FloatFOR) MemSize() int { return 48 }

// Scaled converts a float to its fixed-point integer, reporting whether
// the conversion is exact.
func (e *FloatFOR) Scaled(f float64) (int64, bool) {
	return exactFixedPoint(f, e.scale)
}

// Extend is IntFOR.Extend over scaled values: lo and hi are value·scale,
// and the headroom unit is one scale step, as at analysis.
//
//dashdb:hotpath
func (e *FloatFOR) Extend(lo, hi int64) (*FloatFOR, bool) {
	inner, ok := e.inner.extend(lo, hi, int64(e.scale))
	switch {
	case !ok:
		return nil, false
	case inner == e.inner:
		return e, true
	}
	return &FloatFOR{inner: inner, scale: e.scale}, true
}

// EncodeAll writes the code of each value in vals to codes, 0 for a NULL.
// Every non-NULL value must be exact at the scale and inside the frame,
// which the columnar layer checks (Scaled) over a whole batch before it
// encodes any of it.
//
//dashdb:hotpath
func (e *FloatFOR) EncodeAll(vals []types.Value, codes []uint64) {
	codes = codes[:len(vals)]
	base, limit, scale := e.inner.base, e.inner.limit, e.scale
	for i, v := range vals {
		if v.IsNull() {
			codes[i] = 0
			continue
		}
		code := uint64(int64(math.Round(v.Float()*scale)) - base)
		if code > limit {
			panic("encoding: FloatFOR.EncodeAll outside domain; caller must fit the frame first")
		}
		codes[i] = code
	}
}

// Decode maps a code back to its float value.
func (e *FloatFOR) Decode(code uint64) types.Value {
	return types.NewFloat(float64(e.inner.Decode(code).Int()) / e.scale)
}

// Translate converts "column OP v" into code space by scaling the
// constant. A constant exact at the scale is its own fixed-point integer
// (0.07·100 is 7.000000000000001 in floating point, which would match no
// code); other scaled constants reuse IntFOR's floor/ceil logic.
func (e *FloatFOR) Translate(op CmpOp, v types.Value) Predicate {
	if v.IsNull() {
		return NonePredicate()
	}
	f, ok := v.AsFloat()
	if !ok {
		if op == OpNE {
			return AllPredicate()
		}
		return NonePredicate()
	}
	if raw, exact := e.Scaled(f); exact {
		return e.inner.Translate(op, types.NewInt(raw))
	}
	return e.inner.Translate(op, types.NewFloat(f*e.scale))
}
