package encoding

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dashdb/internal/types"
)

// evalPredicate applies a code-space Predicate to a code, using decode for
// residual ranges; the semantics scans implement.
func evalPredicate(p Predicate, code uint64, dec func(uint64) types.Value, op CmpOp, c types.Value) bool {
	if p.None {
		return false
	}
	if p.All {
		return true
	}
	for _, r := range p.Ranges {
		if code >= r.Lo && code <= r.Hi {
			return true
		}
	}
	for _, r := range p.Residual {
		if code >= r.Lo && code <= r.Hi {
			return op.Eval(dec(code), c)
		}
	}
	return false
}

var cmpOps = []CmpOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}

func TestIntFORRoundTrip(t *testing.T) {
	e := NewIntFOR(-100, 155, types.KindInt)
	if e.Width() != 8 {
		t.Fatalf("width=%d want 8", e.Width())
	}
	for _, raw := range []int64{-100, -1, 0, 42, 155} {
		code := e.Encode(types.NewInt(raw))
		if got := e.Decode(code); got.Int() != raw {
			t.Errorf("round trip %d -> %d -> %v", raw, code, got)
		}
	}
	if e.Contains(-101) || e.Contains(156) {
		t.Error("Contains out-of-domain")
	}
}

func TestIntFOROrderPreserving(t *testing.T) {
	e := NewIntFOR(-50, 50, types.KindInt)
	prev := uint64(0)
	for raw := int64(-50); raw <= 50; raw++ {
		code := e.Encode(types.NewInt(raw))
		if raw > -50 && code <= prev {
			t.Fatalf("codes not monotone at %d", raw)
		}
		prev = code
	}
}

// TestIntFORTranslateAgainstValueSpace exhaustively checks that the code-
// space translation of every operator agrees with value-space evaluation,
// including constants outside the domain.
func TestIntFORTranslateAgainstValueSpace(t *testing.T) {
	e := NewIntFOR(10, 20, types.KindInt)
	for _, c := range []int64{5, 9, 10, 11, 15, 19, 20, 21, 100} {
		cv := types.NewInt(c)
		for _, op := range cmpOps {
			p := e.Translate(op, cv)
			for raw := int64(10); raw <= 20; raw++ {
				code := e.Encode(types.NewInt(raw))
				got := evalPredicate(p, code, e.Decode, op, cv)
				want := op.Eval(types.NewInt(raw), cv)
				if got != want {
					t.Errorf("op %v c=%d raw=%d: code-space %v, value-space %v (pred %+v)",
						op, c, raw, got, want, p)
				}
			}
		}
	}
}

func TestIntFORTranslateFloatConstants(t *testing.T) {
	e := NewIntFOR(0, 10, types.KindInt)
	for _, tc := range []struct {
		op   CmpOp
		c    float64
		raw  int64
		want bool
	}{
		{OpLT, 2.5, 2, true},
		{OpLT, 2.5, 3, false},
		{OpGT, 2.5, 3, true},
		{OpGT, 2.5, 2, false},
		{OpEQ, 2.5, 2, false},
		{OpNE, 2.5, 2, true},
		{OpGE, 2.5, 3, true},
		{OpLE, 2.5, 2, true},
	} {
		p := e.Translate(tc.op, types.NewFloat(tc.c))
		code := e.Encode(types.NewInt(tc.raw))
		got := evalPredicate(p, code, e.Decode, tc.op, types.NewFloat(tc.c))
		if got != tc.want {
			t.Errorf("%d %v %v: got %v want %v", tc.raw, tc.op, tc.c, got, tc.want)
		}
	}
}

func TestIntFORNullConstant(t *testing.T) {
	e := NewIntFOR(0, 10, types.KindInt)
	for _, op := range cmpOps {
		if p := e.Translate(op, types.Null); !p.None {
			t.Errorf("op %v with NULL constant must match nothing", op)
		}
	}
}

func TestDictBuildAndRoundTrip(t *testing.T) {
	var sample []types.Value
	// Skewed: "apple" dominates.
	for i := 0; i < 90; i++ {
		sample = append(sample, types.NewString("apple"))
	}
	for _, s := range []string{"banana", "cherry", "date", "elderberry", "fig", "grape", "kiwi", "lemon"} {
		sample = append(sample, types.NewString(s))
	}
	d := BuildDict(types.KindString, sample)
	if d.Cardinality() != 9 {
		t.Fatalf("cardinality %d want 9", d.Cardinality())
	}
	// The dominant value must receive the smallest code (partition 0).
	if code, ok := existing(d, types.NewString("apple")); !ok || code != 0 {
		t.Errorf("hot value code = %d, %v; want 0", code, ok)
	}
	for _, s := range []string{"apple", "banana", "kiwi"} {
		code, ok := existing(d, types.NewString(s))
		if !ok {
			t.Fatalf("missing %s", s)
		}
		if got := d.Decode(code); got.Str() != s {
			t.Errorf("round trip %s -> %d -> %s", s, code, got.Str())
		}
	}
}

func TestDictOrderPreservingWithinPartition(t *testing.T) {
	// Uniform distribution → a single sorted partition; codes must order
	// exactly as values do.
	var sample []types.Value
	words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for _, w := range words {
		sample = append(sample, types.NewString(w))
	}
	d := BuildDict(types.KindString, sample)
	sorted := append([]string(nil), words...)
	sort.Strings(sorted)
	var prev uint64
	for i, w := range sorted {
		code, ok := existing(d, types.NewString(w))
		if !ok {
			t.Fatalf("missing %s", w)
		}
		if i > 0 && code <= prev {
			t.Fatalf("codes not order preserving: %s=%d after %d", w, code, prev)
		}
		prev = code
	}
}

func TestDictExtensionRegion(t *testing.T) {
	d := BuildDict(types.KindInt, []types.Value{types.NewInt(1), types.NewInt(2)})
	base := d.Cardinality()
	code := d.Encode(types.NewInt(99))
	if int(code) != base {
		t.Fatalf("extension code %d want %d", code, base)
	}
	if got := d.Decode(code); got.Int() != 99 {
		t.Fatalf("extension decode %v", got)
	}
	// Range predicate must include a residual range covering extension.
	p := d.Translate(OpGT, types.NewInt(50))
	if len(p.Residual) == 0 {
		t.Fatal("expected residual range over extension region")
	}
	if !evalPredicate(p, code, d.Decode, OpGT, types.NewInt(50)) {
		t.Error("extension value 99 must match > 50 via residual")
	}
	if evalPredicate(p, d.mustCode(t, types.NewInt(1)), d.Decode, OpGT, types.NewInt(50)) {
		t.Error("1 must not match > 50")
	}
}

func (d *Dict) mustCode(t *testing.T, v types.Value) uint64 {
	t.Helper()
	code, ok := existing(d, v)
	if !ok {
		t.Fatalf("value %v missing from dictionary", v)
	}
	return code
}

// TestDictTranslateAgainstValueSpace cross-validates every operator over a
// two-partition dictionary with an extension region.
func TestDictTranslateAgainstValueSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sample []types.Value
	for i := 0; i < 500; i++ {
		// Zipf-ish skew over 30 words.
		w := rng.Intn(30)
		if rng.Intn(100) < 70 {
			w = rng.Intn(3)
		}
		sample = append(sample, types.NewString(fmt.Sprintf("word%02d", w)))
	}
	d := BuildDict(types.KindString, sample)
	d.Encode(types.NewString("zzz-late-arrival"))
	d.Encode(types.NewString("aaa-late-arrival"))

	consts := []types.Value{
		types.NewString("word00"),
		types.NewString("word15"),
		types.NewString("word29"),
		types.NewString("nonexistent"),
		types.NewString("aaa-late-arrival"),
		types.NewString(""),
	}
	for _, cv := range consts {
		for _, op := range cmpOps {
			p := d.Translate(op, cv)
			for code := uint64(0); code < uint64(d.Cardinality()); code++ {
				val := d.Decode(code)
				got := evalPredicate(p, code, d.Decode, op, cv)
				want := op.Eval(val, cv)
				if got != want {
					t.Errorf("op %v const %v code %d (%v): code-space %v value-space %v",
						op, cv, code, val, got, want)
				}
			}
		}
	}
}

func TestChooseEncoder(t *testing.T) {
	ints := []types.Value{types.NewInt(5), types.NewInt(900), types.NewInt(-3)}
	if e := ChooseEncoder(types.KindInt, ints); e.Kind() != KindIntFOR {
		t.Errorf("small-span ints should use MINUS, got %v", e.Kind())
	}
	wide := []types.Value{types.NewInt(0), types.NewInt(1 << 40)}
	if e := ChooseEncoder(types.KindInt, wide); e.Kind() != KindDict {
		t.Errorf("wide ints should fall back to dictionary, got %v", e.Kind())
	}
	strs := []types.Value{types.NewString("a"), types.NewString("b")}
	if e := ChooseEncoder(types.KindString, strs); e.Kind() != KindDict {
		t.Errorf("strings should use dictionary, got %v", e.Kind())
	}
	if e := ChooseEncoder(types.KindInt, nil); e.Kind() != KindDict {
		t.Errorf("empty sample should yield growable dictionary, got %v", e.Kind())
	}
	// Headroom: values near the sample range must stay in-domain.
	e := ChooseEncoder(types.KindInt, ints).(*IntFOR)
	if !e.Contains(1000) {
		t.Error("headroom should cover moderate drift above max")
	}
}

// TestFloatFORIsLossless: fixed-point admission used to tolerate 1e-6 of
// rounding error and store the rounded integer, so 861.99999999999989
// read back as 862. Every value an encoder accepts must decode to the
// same bits; everything else has to fall to another encoding.
func TestFloatFORIsLossless(t *testing.T) {
	near, tenth := 861.99999999999989, 0.1
	inexact := []float64{near, tenth + 2*tenth, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1e-7}
	for _, scale := range floatForScales {
		e := NewFloatFOR(-1_000_000, 1_000_000, scale)
		for _, f := range inexact {
			if e.Contains(f) {
				t.Errorf("scale %v admits %v, which it cannot decode exactly", scale, f)
			}
		}
		for _, f := range []float64{862, -0.25, 449.99, 0} {
			if !e.Contains(f) {
				continue // e.g. 449.99 at scale 1
			}
			if got := e.Decode(e.Encode(types.NewFloat(f))).Float(); math.Float64bits(got) != math.Float64bits(f) {
				t.Errorf("scale %v: %v decodes to %v", scale, f, got)
			}
		}
	}
	cents := []types.Value{types.NewFloat(449.99), types.NewFloat(862), types.NewFloat(-3.5)}
	if _, ok := ChooseEncoder(types.KindFloat, cents).(*FloatFOR); !ok {
		t.Fatal("exact cent values should still use fixed-point minus encoding")
	}
	mixed := append(cents, types.NewFloat(near))
	if _, ok := ChooseEncoder(types.KindFloat, mixed).(*FloatFOR); ok {
		t.Fatalf("a sample holding %v must not be stored fixed-point", near)
	}
}

// TestFrameExtend: Extend keeps the base, so codes handed out before stay
// valid, reaches the new top with the analyzer's headroom, leaves the
// extended encoder as it was, and refuses what only a rebuild can hold.
func TestFrameExtend(t *testing.T) {
	e := NewIntFOR(100, 200, types.KindDate)
	if got, ok := e.Extend(150, 180); !ok || got != e {
		t.Fatal("a span inside the frame must return the frame itself")
	}
	if got, ok := e.Extend(1, 0); !ok || got != e {
		t.Fatal("an empty span must return the frame itself")
	}
	ext, ok := e.Extend(120, 1100)
	if !ok || ext.Decode(0).Int() != 100 || e.Contains(1100) {
		t.Fatalf("extension %+v ok=%v; the original must stay as it was", ext, ok)
	}
	if span := uint64(1000); ext.Cardinality() != int(span+headroom(span, 1))+1 || ext.Width() != 11 {
		t.Fatalf("extended frame has %d codes at %d bits", ext.Cardinality(), ext.Width())
	}
	v := types.NewDate(150)
	if ext.Encode(v) != e.Encode(v) || ext.Decode(50).Kind() != types.KindDate {
		t.Fatal("extension changed a code or the decode kind")
	}
	if _, ok := e.Extend(99, 150); ok {
		t.Fatal("a value below the base needs a rebuild")
	}
	if _, ok := e.Extend(100, 100+1<<32); ok {
		t.Fatal("a span past 32 bits needs a rebuild")
	}
	if top, ok := e.Extend(100, 100+1<<32-1); !ok || top.Width() != 32 {
		t.Fatal("the headroom must clamp to 32 bits rather than refuse")
	}
	f := NewFloatFOR(-100, 100, 100)
	fx, ok := f.Extend(0, 10_000)
	if !ok || !fx.Contains(100) || fx.Encode(types.NewFloat(0.5)) != f.Encode(types.NewFloat(0.5)) {
		t.Fatal("FloatFOR extension must reach 100.00 and keep 0.50's code")
	}
}

// TestEncodeAllMatchesEncode: the run encoders a load uses agree with
// Encode value by value, writing 0 for a NULL: EncodeAll over values, and
// a frame of reference's typed encode over a lane, whose NULL slots are
// never read.
func TestEncodeAllMatchesEncode(t *testing.T) {
	vals := []types.Value{types.NewInt(7), types.NullOf(types.KindInt), types.NewInt(-3), types.NewInt(40)}
	fvals := []types.Value{types.NewFloat(0.07), types.NullOf(types.KindFloat), types.NewFloat(-3.5)}
	for _, c := range []struct {
		enc interface {
			Encoder
			Encode(types.Value) uint64
		}
		vals []types.Value
	}{
		{NewIntFOR(-10, 50, types.KindInt), vals},
		{NewFloatFOR(-1000, 1000, 100), fvals},
		{BuildDict(types.KindInt, vals[:1]), vals}, // -3 and 40 join the extension
	} {
		codes := make([]uint64, len(c.vals))
		c.enc.EncodeAll(c.vals, codes)
		for i, v := range c.vals {
			want := uint64(0)
			if !v.IsNull() {
				want = c.enc.Encode(v)
			}
			if codes[i] != want {
				t.Errorf("%T: %v encodes to %d in a run, %d alone", c.enc, v, codes[i], want)
			}
		}
		lane, nulls := make([]uint64, len(c.vals)), make([]bool, len(c.vals))
		ints, floats := make([]int64, len(c.vals)), make([]float64, len(c.vals))
		for i, v := range c.vals {
			nulls[i], ints[i], floats[i] = v.IsNull(), v.Int(), v.Float()
			if nulls[i] {
				ints[i], floats[i] = 1<<40, math.NaN() // outside every frame
			}
		}
		switch e := c.enc.(type) {
		case *IntFOR:
			e.EncodeInts(ints, nulls, lane)
		case *FloatFOR:
			e.EncodeFloats(floats, nulls, lane)
		default:
			continue
		}
		if !slices.Equal(lane, codes) {
			t.Errorf("%T: the lane encodes to %v, the values to %v", c.enc, lane, codes)
		}
	}

	// A string lane: known values interleaved with unseen ones (one seen
	// twice), NULL slots holding garbage, one of them a known string. Two
	// dictionaries built alike must give the same codes through
	// EncodeStrings as through EncodeAll and end with the same domain.
	known := []types.Value{types.NewString("b"), types.NewString("d"), types.NewString("a")}
	strs := []string{"d", "zz", "a", "garbage", "q", "zz", "b", "d", "", "q"}
	nulls := []bool{false, false, false, true, false, false, true, false, false, false}
	svals := make([]types.Value, len(strs))
	for i, s := range strs {
		svals[i] = types.NewString(s)
		if nulls[i] {
			svals[i] = types.NullOf(types.KindString)
		}
	}
	byVals, byLane := BuildDict(types.KindString, known), BuildDict(types.KindString, known)
	codes, lane := make([]uint64, len(strs)), make([]uint64, len(strs))
	byVals.EncodeAll(svals, codes)
	byLane.EncodeStrings(strs, nulls, lane)
	if !slices.Equal(lane, codes) {
		t.Errorf("the string lane encodes to %v, the values to %v", lane, codes)
	}
	for i, v := range svals {
		if !v.IsNull() && byLane.Decode(lane[i]) != v {
			t.Errorf("string %q encodes to %d, which decodes to %v", strs[i], lane[i], byLane.Decode(lane[i]))
		}
	}
	a, errA := AppendEncoder(nil, byVals)
	b, errB := AppendEncoder(nil, byLane)
	if errA != nil || errB != nil || !slices.Equal(a, b) || byVals.MemSize() != byLane.MemSize() {
		t.Errorf("the domains differ after the load: %d vs %d bytes (errors %v, %v)", byVals.MemSize(), byLane.MemSize(), errA, errB)
	}
}

// TestFloatFORTranslateExactConstant: 0.07·100 is 7.000000000000001 in
// floating point, so scaling the constant by multiplication made
// "amount = 0.07" match nothing on a cents column.
func TestFloatFORTranslateExactConstant(t *testing.T) {
	e := NewFloatFOR(0, 10_000, 100)
	code := e.Encode(types.NewFloat(0.07))
	p := e.Translate(OpEQ, types.NewFloat(0.07))
	if p.None || len(p.Ranges) != 1 || p.Ranges[0] != (CodeRange{code, code}) {
		t.Fatalf("= 0.07 translates to %+v, want code %d", p, code)
	}
	if p := e.Translate(OpLT, types.NewFloat(0.07)); len(p.Ranges) != 1 || p.Ranges[0].Hi != code-1 {
		t.Fatalf("< 0.07 translates to %+v, want codes below %d", p, code)
	}
}

func TestFrontCodedList(t *testing.T) {
	words := []string{
		"", "app", "apple", "apple pie", "apples", "application",
		"banana", "band", "bandana", "bandwidth", "zebra",
	}
	// Pad beyond one restart block.
	for i := 0; i < 40; i++ {
		words = append(words, fmt.Sprintf("pad%04d", i))
	}
	sort.Strings(words)
	f := NewFrontCodedList(words)
	if f.Len() != len(words) {
		t.Fatalf("len %d want %d", f.Len(), len(words))
	}
	for i, w := range words {
		if got := f.Get(i); got != w {
			t.Fatalf("Get(%d)=%q want %q", i, got, w)
		}
	}
	for i, w := range words {
		pos, found := f.Search(w)
		if !found || pos != i {
			t.Fatalf("Search(%q)=(%d,%v) want (%d,true)", w, pos, found, i)
		}
	}
	if _, found := f.Search("not-in-list-xyz"); found {
		t.Error("Search must not find absent string")
	}
}

func TestFrontCodedListCompression(t *testing.T) {
	// Many strings sharing long prefixes must compress well.
	var words []string
	rawBytes := 0
	for i := 0; i < 1000; i++ {
		w := fmt.Sprintf("customer/region-north/account-%06d", i)
		words = append(words, w)
		rawBytes += len(w)
	}
	f := NewFrontCodedList(words)
	if f.MemSize() >= rawBytes {
		t.Errorf("front coding saved nothing: %d vs raw %d", f.MemSize(), rawBytes)
	}
}

func TestFrontCodedListRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsorted input")
		}
	}()
	NewFrontCodedList([]string{"b", "a"})
}

// Property: IntFOR translation agrees with value-space evaluation for
// random domains, constants and operators.
func TestIntFORTranslateProperty(t *testing.T) {
	f := func(base int16, spanSel uint8, cSel int32, opSel uint8) bool {
		span := int64(spanSel) + 1
		e := NewIntFOR(int64(base), int64(base)+span, types.KindInt)
		op := cmpOps[int(opSel)%len(cmpOps)]
		cv := types.NewInt(int64(cSel))
		p := e.Translate(op, cv)
		for raw := int64(base); raw <= int64(base)+span; raw += span/7 + 1 {
			code := e.Encode(types.NewInt(raw))
			if evalPredicate(p, code, e.Decode, op, cv) != op.Eval(types.NewInt(raw), cv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Dict round trip is the identity for random string sets.
func TestDictRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		var sample []types.Value
		for i := 0; i < n; i++ {
			sample = append(sample, types.NewString(fmt.Sprintf("v%d", rng.Intn(20))))
		}
		d := BuildDict(types.KindString, sample)
		for _, v := range sample {
			code, ok := existing(d, v)
			if !ok || types.Compare(d.Decode(code), v) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEstimateRawBytes(t *testing.T) {
	vals := []types.Value{types.NewInt(1), types.NewString("abcd"), types.Null}
	if got := EstimateRawBytes(vals); got != 8+8+8 {
		t.Errorf("EstimateRawBytes = %d", got)
	}
}

func BenchmarkDictEncode(b *testing.B) {
	var sample []types.Value
	for i := 0; i < 1000; i++ {
		sample = append(sample, types.NewString(fmt.Sprintf("key-%03d", i%100)))
	}
	d := BuildDict(types.KindString, sample)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Encode(sample[i%len(sample)])
	}
}

func BenchmarkDictDecode(b *testing.B) {
	var sample []types.Value
	for i := 0; i < 1000; i++ {
		sample = append(sample, types.NewString(fmt.Sprintf("key-%03d", i%100)))
	}
	d := BuildDict(types.KindString, sample)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decode(uint64(i % d.Cardinality()))
	}
}

func BenchmarkTranslateRange(b *testing.B) {
	var sample []types.Value
	for i := 0; i < 10000; i++ {
		sample = append(sample, types.NewString(fmt.Sprintf("key-%05d", i)))
	}
	d := BuildDict(types.KindString, sample)
	c := types.NewString("key-05000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Translate(OpGT, c)
	}
}
