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

// Contains reports whether the value lies in the encodable domain.
func (e *FloatFOR) Contains(f float64) bool {
	raw, ok := e.Scaled(f)
	return ok && e.inner.Contains(raw)
}

// Encode maps a value to its code; the value must be in-domain (the
// columnar layer re-analyzes on overflow, as with IntFOR).
func (e *FloatFOR) Encode(v types.Value) uint64 {
	f, ok := v.AsFloat()
	if !ok {
		panic("encoding: FloatFOR.Encode non-numeric value")
	}
	raw, exact := e.Scaled(f)
	if !exact || !e.inner.Contains(raw) {
		panic("encoding: FloatFOR.Encode outside domain; caller must re-analyze")
	}
	return e.inner.Encode(types.NewInt(raw))
}

// Decode maps a code back to its float value.
func (e *FloatFOR) Decode(code uint64) types.Value {
	return types.NewFloat(float64(e.inner.Decode(code).Int()) / e.scale)
}

// Translate converts "column OP v" into code space by scaling the
// constant; fractional scaled constants reuse IntFOR's floor/ceil logic.
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
	return e.inner.Translate(op, types.NewFloat(f*e.scale))
}
