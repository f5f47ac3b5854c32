package encoding

import (
	"math"
	"slices"

	"dashdb/internal/types"
)

// forHeadroomNum/forHeadroomDen widen the observed integer range before
// fixing a frame of reference, so moderate post-load drift does not force
// a column re-encode.
const (
	forHeadroomNum = 1
	forHeadroomDen = 4
)

// headroom is the padding a frame of reference leaves beyond an observed
// span: on both sides when the analyzer fixes a frame, above the top when
// a frame is extended. It is a quarter of the span plus one unit (1 for
// integers, the scale for fixed-point floats).
func headroom(span uint64, unit int64) uint64 {
	return span/forHeadroomDen*forHeadroomNum + uint64(unit)
}

// padFrame widens the observed range [min, max] by the headroom on both
// sides, clamping against overflow; fits is false when the padded span is
// too wide to bit-pack.
func padFrame(min, max, unit int64) (lo, hi int64, fits bool) {
	pad := int64(headroom(uint64(max-min), unit))
	lo, hi = min, max
	if lo > lo-pad {
		lo -= pad
	}
	if hi < hi+pad {
		hi += pad
	}
	return lo, hi, uint64(hi-lo) < 1<<maxFORWidth
}

// maxFORWidth is the widest span IntFOR will accept before the analyzer
// falls back to a dictionary; spans wider than the packer's MaxWidth
// cannot be bit-packed.
const maxFORWidth = 32

// ChooseEncoder is ChooseEncoderOf over boxed values of kind, NULLs
// ignored: what a column rebuild, which holds the column decoded, picks.
// Values without kind's payload (a string in a numeric column) take a
// dictionary of the values coerced to kind.
func ChooseEncoder(kind types.Kind, sample []types.Value) Encoder {
	if s, ok := sampleOf(kind, sample); ok {
		return ChooseEncoderOf(kind, s)
	}
	return BuildDict(kind, sample)
}

// sampleOf is the non-NULL values of sample as kind's typed payload; false
// when one has none.
func sampleOf(kind types.Kind, sample []types.Value) (s Sample, ok bool) {
	for _, v := range sample {
		switch {
		case v.IsNull():
		case kind == types.KindFloat:
			f, ok := v.AsFloat()
			if !ok {
				return s, false
			}
			s.F64 = append(s.F64, f)
		case kind == types.KindString:
			if v.Kind() != types.KindString {
				return s, false
			}
			s.Str = append(s.Str, v.Str())
		case kind == types.KindBool:
			s.I64 = append(s.I64, 0) // every BOOLEAN sample takes the frame 0..1
		case kind == types.KindInt || kind == types.KindDate || kind == types.KindTimestamp:
			i, ok := v.AsInt()
			if !ok {
				return s, false
			}
			s.I64 = append(s.I64, i)
		default:
			return s, false
		}
	}
	return s, true
}

// Sample is the non-NULL values of a column sample as the column kind's
// typed payload: I64 for the integral kinds and BOOLEAN, F64 for DOUBLE,
// Str for strings; the others are nil.
type Sample struct {
	I64 []int64
	F64 []float64
	Str []string
}

// ChooseEncoderOf analyzes a typed sample of column values and selects the
// best encoding, mirroring the engine's load-time compression optimization
// ("compression is then optimized globally per column", §II.B.1):
//
//   - integral kinds whose value span fits the packer → minus encoding,
//     with headroom for drift;
//   - floats all fixed-point at one scale whose scaled span fits → the
//     fixed-point frame of reference;
//   - everything else (strings, other floats, very wide integers) → the
//     frequency-partitioned dictionary, which boxes only the distinct
//     values.
//
// An empty sample yields an extension-only dictionary that grows with the
// data (the page-level dictionary path for tables populated by INSERT).
func ChooseEncoderOf(kind types.Kind, s Sample) Encoder {
	switch {
	case len(s.I64)+len(s.F64)+len(s.Str) == 0:
		return NewDict(kind)
	case kind == types.KindBool:
		return NewIntFOR(0, 1, kind)
	case s.F64 != nil:
		if e := chooseFloatFOR(s.F64); e != nil {
			return e
		}
		return buildDictOf(kind, s.F64, types.NewFloat)
	case s.I64 != nil:
		if e := chooseIntFOR(kind, s.I64); e != nil {
			return e
		}
		box := types.NewInt
		switch kind {
		case types.KindDate:
			box = types.NewDate
		case types.KindTimestamp:
			box = types.NewTimestamp
		}
		return buildDictOf(kind, s.I64, box)
	}
	return buildDictOf(kind, s.Str, types.NewString)
}

// chooseFloatFOR is the fixed-point frame of reference of non-NULL floats
// — prices, amounts — or nil when they are not all fixed-point at one
// scale or their span does not fit.
func chooseFloatFOR(fs []float64) Encoder {
	if scale := fixedPointScale(fs); scale > 0 {
		lo, hi := scaledRange(fs, scale)
		if lo, hi, fits := padFrame(lo, hi, int64(scale)); fits {
			return NewFloatFOR(lo, hi, scale)
		}
	}
	return nil
}

// chooseIntFOR is the frame of reference of non-NULL integral values of
// kind, or nil when their span does not fit.
func chooseIntFOR(kind types.Kind, is []int64) Encoder {
	if lo, hi, fits := padFrame(slices.Min(is), slices.Max(is), 1); fits {
		return NewIntFOR(lo, hi, kind)
	}
	return nil
}

// scaledRange returns the min and max of floats scaled to fixed point.
func scaledRange(fs []float64, scale float64) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, f := range fs {
		i := int64(f*scale + 0.5*sign(f))
		lo, hi = min(lo, i), max(hi, i)
	}
	return lo, hi
}

func sign(f float64) float64 {
	if f < 0 {
		return -1
	}
	return 1
}

// EstimateRawBytes returns the number of bytes the values would occupy in
// a naive uncompressed row representation (8 bytes per numeric, string
// length + 4-byte header per string); the numerator of the compression
// ratios reported by experiment F-B.
func EstimateRawBytes(sample []types.Value) int {
	sz := 0
	for _, v := range sample {
		if v.Kind() == types.KindString && !v.IsNull() {
			sz += 4 + len(v.Str())
			continue
		}
		sz += 8
	}
	return sz
}
