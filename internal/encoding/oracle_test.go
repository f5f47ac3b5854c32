package encoding

import "dashdb/internal/types"

// The per-value encoders and lookup below are the tests' reference for
// the run encoders (EncodeAll) the load path uses and the batch lookup
// (ExistingCodes) the join probes with. The engine only ever encodes a
// frame-of-reference column, or looks dictionary codes up, a run at a
// time, so they live with the tests.

// Encode maps a value to its code. The value must be integral-kinded and
// inside the analyzed domain.
func (e *IntFOR) Encode(v types.Value) uint64 {
	raw, ok := v.AsInt()
	if !ok || !e.Contains(raw) {
		panic("encoding: IntFOR.Encode outside domain")
	}
	return uint64(raw - e.base)
}

// Contains reports whether the value lies in the encodable domain.
func (e *FloatFOR) Contains(f float64) bool {
	raw, ok := e.Scaled(f)
	return ok && e.inner.Contains(raw)
}

// Encode maps an in-domain value to its code.
func (e *FloatFOR) Encode(v types.Value) uint64 {
	f, ok := v.AsFloat()
	if !ok {
		panic("encoding: FloatFOR.Encode non-numeric value")
	}
	raw, exact := e.Scaled(f)
	if !exact || !e.inner.Contains(raw) {
		panic("encoding: FloatFOR.Encode outside domain")
	}
	return e.inner.Encode(types.NewInt(raw))
}

// existing is ExistingCodes for one value.
func existing(d *Dict, v types.Value) (uint64, bool) {
	codes, found := make([]uint64, 1), make([]bool, 1)
	d.ExistingCodes([]types.Value{v}, codes, found)
	return codes[0], found[0]
}
