package encoding

import (
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

// ChooseEncoder analyzes a sample of column values and selects the best
// encoding, mirroring the engine's load-time compression optimization
// ("compression is then optimized globally per column", §II.B.1):
//
//   - integral kinds whose value span fits the packer → minus encoding,
//     with headroom for drift;
//   - everything else (strings, floats, very wide integers) → the
//     frequency-partitioned dictionary.
//
// An empty sample yields an extension-only dictionary that grows with the
// data (the page-level dictionary path for tables populated by INSERT).
func ChooseEncoder(kind types.Kind, sample []types.Value) Encoder {
	nulls := 0
	for _, v := range sample {
		if v.IsNull() {
			nulls++
		}
	}
	nonNull := sample
	if nulls > 0 {
		nonNull = make([]types.Value, 0, len(sample)-nulls)
		for _, v := range sample {
			if !v.IsNull() {
				nonNull = append(nonNull, v)
			}
		}
	}
	if len(nonNull) == 0 {
		return NewDict(kind)
	}
	switch kind {
	case types.KindBool:
		return NewIntFOR(0, 1, kind)
	case types.KindFloat:
		// Fixed-point floats (prices, amounts) become scaled minus codes;
		// other floats fall back to the dictionary.
		if scale := fixedPointScale(nonNull); scale > 0 {
			if min, max, ok := scaledRange(nonNull, scale); ok {
				if lo, hi, fits := padFrame(min, max, int64(scale)); fits {
					return NewFloatFOR(lo, hi, scale)
				}
			}
		}
		return BuildDict(kind, nonNull)
	case types.KindInt, types.KindDate, types.KindTimestamp:
		if min, max, ok := intRange(nonNull); ok {
			if lo, hi, fits := padFrame(min, max, 1); fits {
				return NewIntFOR(lo, hi, kind)
			}
		}
		return BuildDict(kind, nonNull)
	default:
		return BuildDict(kind, nonNull)
	}
}

// scaledRange returns the min and max of sample values scaled to fixed
// point.
func scaledRange(sample []types.Value, scale float64) (min, max int64, ok bool) {
	first := true
	for _, v := range sample {
		f, isNum := v.AsFloat()
		if !isNum {
			return 0, 0, false
		}
		i := int64(f*scale + 0.5*sign(f))
		if first {
			min, max, first = i, i, false
			continue
		}
		if i < min {
			min = i
		}
		if i > max {
			max = i
		}
	}
	return min, max, !first
}

func sign(f float64) float64 {
	if f < 0 {
		return -1
	}
	return 1
}

// intRange returns the min and max of integral values in the sample.
func intRange(sample []types.Value) (min, max int64, ok bool) {
	first := true
	for _, v := range sample {
		i, isInt := v.AsInt()
		if !isInt {
			return 0, 0, false
		}
		if first {
			min, max, first = i, i, false
			continue
		}
		if i < min {
			min = i
		}
		if i > max {
			max = i
		}
	}
	return min, max, !first
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
