package encoding

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dashdb/internal/types"
)

// TestChooseEncoderOfMatchesBoxed: over the same values, the typed chooser
// and ChooseEncoder over the values boxed pick the encoder the boxed
// reference (chooseBoxed) picks, byte for byte: frames of reference for
// narrow integers and fixed-point floats, dictionaries for wide integers,
// other floats and strings — their hot and cold partitions drawn from the
// same counts — and a growable dictionary for a sample of NULLs only.
func TestChooseEncoderOfMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 200 {
		n := rng.Intn(3000)
		kind := []types.Kind{types.KindInt, types.KindDate, types.KindTimestamp, types.KindBool, types.KindFloat, types.KindString}[trial%6]
		span := []int64{10, 1 << 20, 1 << 40, math.MaxInt64}[rng.Intn(4)]
		var boxed []types.Value
		var s Sample
		for i := range n {
			if rng.Intn(10) == 0 {
				boxed = append(boxed, types.NullOf(kind))
				continue
			}
			x := rng.Int63n(span)
			if i%3 == 0 {
				x %= 7 // a hot set
			}
			switch kind {
			case types.KindFloat:
				f := float64(x) / 100
				if trial%4 == 0 {
					f = rng.NormFloat64()
				}
				s.F64 = append(s.F64, f)
				boxed = append(boxed, types.NewFloat(f))
			case types.KindString:
				str := fmt.Sprintf("v%d", x%500)
				s.Str = append(s.Str, str)
				boxed = append(boxed, types.NewString(str))
			default:
				if kind == types.KindBool {
					x &= 1
				}
				s.I64 = append(s.I64, x)
				boxed = append(boxed, map[types.Kind]func(int64) types.Value{
					types.KindInt: types.NewInt, types.KindDate: types.NewDate, types.KindTimestamp: types.NewTimestamp,
					types.KindBool: func(x int64) types.Value { return types.NewBool(x != 0) },
				}[kind](x))
			}
		}
		want, err := AppendEncoder(nil, chooseBoxed(kind, boxed))
		if err != nil {
			t.Fatal(err)
		}
		for name, e := range map[string]Encoder{"typed": ChooseEncoderOf(kind, s), "boxed": ChooseEncoder(kind, boxed)} {
			got, err := AppendEncoder(nil, e)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d (%s, %d values): %s %x, reference %x", trial, kind, n, name, got, want)
			}
		}
	}
}

// chooseBoxed is the encoder choice over boxed values, each counted as a
// value: the reference the typed chooser must match.
func chooseBoxed(kind types.Kind, sample []types.Value) Encoder {
	var nonNull []types.Value
	for _, v := range sample {
		if !v.IsNull() {
			nonNull = append(nonNull, v)
		}
	}
	if len(nonNull) == 0 {
		return NewDict(kind)
	}
	switch kind {
	case types.KindBool:
		return NewIntFOR(0, 1, kind)
	case types.KindFloat:
		fs := make([]float64, len(nonNull))
		for i, v := range nonNull {
			fs[i], _ = v.AsFloat()
		}
		if e := chooseFloatFOR(fs); e != nil {
			return e
		}
	case types.KindInt, types.KindDate, types.KindTimestamp:
		is := make([]int64, len(nonNull))
		for i, v := range nonNull {
			is[i], _ = v.AsInt()
		}
		if e := chooseIntFOR(kind, is); e != nil {
			return e
		}
	}
	return BuildDict(kind, nonNull)
}
