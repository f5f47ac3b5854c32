package encoding

import (
	"dashdb/internal/bitpack"
	"dashdb/internal/types"
)

// Decoded is the target of Encoder.DecodeAll: typed payloads with one slot
// per code. Exactly one is non-nil, chosen by the column's kind as
// vec.Vector chooses: I64 for INT, BOOL (0/1), DATE (days) and TIMESTAMP
// (µs), F64 for DOUBLE, Str for STRING, and Any only for a column of mixed
// kind.
type Decoded struct {
	I64 []int64
	F64 []float64
	Str []string
	Any []types.Value
}

// clearNulls zeroes every slot nulls marks, whatever code it held: a NULL
// slot reads as its payload's zero value (types.Null when boxed), as
// vec.Vector.SetNull leaves it. nulls may be nil.
func (out Decoded) clearNulls(nulls *bitpack.Bitmap) {
	if nulls == nil {
		return
	}
	nulls.ForEach(func(k int) {
		switch {
		case out.I64 != nil:
			out.I64[k] = 0
		case out.F64 != nil:
			out.F64[k] = 0
		case out.Str != nil:
			out.Str[k] = ""
		default:
			out.Any[k] = types.Null
		}
	})
}

// DecodeAll writes base + code for every code: minus encoding's inverse,
// into the I64 payload of an INT, BOOL, DATE or TIMESTAMP column.
//
//dashdb:hotpath
func (e *IntFOR) DecodeAll(codes []uint64, nulls *bitpack.Bitmap, out Decoded) {
	decodeFOR(e.base, codes, out.I64)
	out.clearNulls(nulls)
}

// DecodeAll writes (base + code) / scale for every code into the F64
// payload: the arithmetic of Decode, so each float is bit-identical to
// what Decode returns.
//
//dashdb:hotpath
func (e *FloatFOR) DecodeAll(codes []uint64, nulls *bitpack.Bitmap, out Decoded) {
	decodeFixedPoint(e.inner.base, e.scale, codes, out.F64)
	out.clearNulls(nulls)
}

// DecodeAll looks every code up in one snapshot of the domain and writes
// the value's typed payload. A dictionary with no values has assigned no
// code, so every cell is NULL and nothing is looked up.
func (d *Dict) DecodeAll(codes []uint64, nulls *bitpack.Bitmap, out Decoded) {
	if dom := d.Snapshot(); len(dom) > 0 {
		switch {
		case out.I64 != nil:
			decodeDomInts(dom, codes, out.I64)
		case out.F64 != nil:
			decodeDomFloats(dom, codes, out.F64)
		case out.Str != nil:
			decodeDomStrings(dom, codes, out.Str)
		default:
			decodeDomValues(dom, codes, out.Any)
		}
	}
	out.clearNulls(nulls)
}

// decodeFOR is the frame-of-reference kernel: dst[k] = base + codes[k].
//
//dashdb:hotpath
func decodeFOR(base int64, codes []uint64, dst []int64) {
	dst = dst[:len(codes)]
	for k, c := range codes {
		dst[k] = base + int64(c)
	}
}

// decodeFixedPoint is the fixed-point kernel: dst[k] = (base + codes[k]) /
// scale.
//
//dashdb:hotpath
func decodeFixedPoint(base int64, scale float64, codes []uint64, dst []float64) {
	dst = dst[:len(codes)]
	for k, c := range codes {
		dst[k] = float64(base+int64(c)) / scale
	}
}

// decodeDomInts extracts the integer payload (days, µs, 0/1) of each
// code's value in dom.
//
//dashdb:hotpath
func decodeDomInts(dom []types.Value, codes []uint64, dst []int64) {
	dst = dst[:len(codes)]
	for k, c := range codes {
		dst[k] = dom[c].Int()
	}
}

// decodeDomFloats extracts the float of each code's value in dom.
//
//dashdb:hotpath
func decodeDomFloats(dom []types.Value, codes []uint64, dst []float64) {
	dst = dst[:len(codes)]
	for k, c := range codes {
		dst[k] = dom[c].Float()
	}
}

// decodeDomStrings extracts the string of each code's value in dom.
//
//dashdb:hotpath
func decodeDomStrings(dom []types.Value, codes []uint64, dst []string) {
	dst = dst[:len(codes)]
	for k, c := range codes {
		dst[k] = dom[c].Str()
	}
}

// decodeDomValues copies each code's value in dom, for a column of mixed
// kind.
//
//dashdb:hotpath
func decodeDomValues(dom []types.Value, codes []uint64, dst []types.Value) {
	dst = dst[:len(codes)]
	for k, c := range codes {
		dst[k] = dom[c]
	}
}
