package encoding

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"dashdb/internal/types"
)

// FuzzEncodingRoundTrip drives the three §II.B.1 encoders with arbitrary
// data and checks their core identity: every value admitted into an
// encoder's domain decodes back to itself (dictionary and minus/FOR
// codes), and front-coded lists reproduce and re-find every entry. The
// value codec's row stream and single cells return the same values too.
func FuzzEncodingRoundTrip(f *testing.F) {
	f.Add(int64(0), int64(100), int64(7), "alpha", "alphabet", "beta", 1.5)
	f.Add(int64(-50), int64(50), int64(0), "", "a", "aa", -123.75)
	f.Add(int64(1<<40), int64(1<<40+1000), int64(1<<40+500), "store", "stores", "story", 0.0)
	f.Add(int64(-1), int64(-1), int64(-1), "x", "x", "x", math.Inf(1))
	f.Fuzz(func(t *testing.T, a, b, c int64, s1, s2, s3 string, x float64) {
		fuzzDict(t, a, b, c, s1, s2, s3)
		fuzzIntFOR(t, a, b, c)
		fuzzFloatFOR(t, x)
		fuzzFrontCode(t, s1, s2, s3)
		fuzzValueCodec(t, a, s1, x)
	})
}

func fuzzValueCodec(t *testing.T, a int64, s string, x float64) {
	row := types.Row{
		types.NewInt(a), types.NewString(s), types.NewFloat(x),
		types.NullOf(types.KindInt), types.NullOf(types.KindString), types.NullOf(types.KindFloat),
	}
	// identical: same kind, same NULL-ness, same payload bits.
	identical := func(p, q types.Value) bool {
		return p.Kind() == q.Kind() && p.IsNull() == q.IsNull() && p.Int() == q.Int() && p.Str() == q.Str() &&
			math.Float64bits(p.Float()) == math.Float64bits(q.Float())
	}
	for _, v := range row {
		b, err := types.AppendCell(nil, v)
		r := types.NewReader(b)
		got := r.Cell()
		if err == nil {
			err = r.Err()
		}
		if err != nil || len(r.Rest()) != 0 || !identical(got, v) {
			t.Fatalf("cell: %v of %v -> % x -> %v of %v (err %v)", v, v.Kind(), b, got, got.Kind(), err)
		}
	}
	var buf bytes.Buffer
	if _, err := NewRowWriter(&buf).WriteRow(row); err != nil {
		t.Fatal(err)
	}
	got, err := NewRowReader(&buf).ReadRow()
	if err != nil || len(got) != len(row) {
		t.Fatalf("row stream: %v -> %v (err %v)", row, got, err)
	}
	for i := range row {
		if !identical(got[i], row[i]) {
			t.Fatalf("row stream: cell %d %v of %v -> %v of %v", i, row[i], row[i].Kind(), got[i], got[i].Kind())
		}
	}
}

func fuzzDict(t *testing.T, a, b, c int64, s1, s2, s3 string) {
	samples := map[types.Kind][]types.Value{
		types.KindInt: {
			types.NewInt(a), types.NewInt(b), types.NewInt(c),
			types.NewInt(a), types.NullOf(types.KindInt),
		},
		types.KindString: {
			types.NewString(s1), types.NewString(s2), types.NewString(s3),
			types.NewString(s2), types.NullOf(types.KindString),
		},
	}
	for kind, sample := range samples {
		d := BuildDict(kind, sample)
		for _, v := range sample {
			if v.IsNull() {
				continue
			}
			code, ok := existing(d, v)
			if !ok {
				t.Fatalf("dict(%v): sample value %v missing from domain", kind, v)
			}
			if got := d.Decode(code); !types.Equal(got, v) {
				t.Fatalf("dict(%v): %v -> code %d -> %v", kind, v, code, got)
			}
		}
		// Unseen values are admitted as extension codes and round-trip too.
		ext := types.NewString(s1 + "\x00ext")
		if kind == types.KindInt {
			ext = types.NewInt(a ^ 0x5a5a)
		}
		code := d.Encode(ext)
		if got := d.Decode(code); !types.Equal(got, ext) {
			t.Fatalf("dict(%v) extension: %v -> code %d -> %v", kind, ext, code, got)
		}
		snapshotTrip(t, d)
	}
}

// snapshotTrip holds an encoder's snapshot to its round trip: the encoder
// read back decodes every code of the domain as the original does, and
// snapshots to the same bytes.
func snapshotTrip(t *testing.T, e Encoder) {
	t.Helper()
	snap, err := AppendEncoder(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	r := types.NewReader(snap)
	back := ReadEncoder(&r)
	if err := r.Err(); err != nil || len(r.Rest()) != 0 {
		t.Fatalf("%T snapshot % x: err %v, %d bytes left", e, snap, err, len(r.Rest()))
	}
	if back.Cardinality() != e.Cardinality() {
		t.Fatalf("%T: %d codes read back as %d", e, e.Cardinality(), back.Cardinality())
	}
	for code := uint64(0); code < uint64(min(e.Cardinality(), 64)); code++ {
		if a, b := e.Decode(code), back.Decode(code); a.Kind() != b.Kind() || math.Float64bits(a.Float()) != math.Float64bits(b.Float()) || !types.Equal(a, b) {
			t.Fatalf("%T: code %d decodes to %v, read back to %v", e, code, a, b)
		}
	}
	if again, err := AppendEncoder(nil, back); err != nil || !bytes.Equal(again, snap) {
		t.Fatalf("%T: snapshot % x read back snapshots to % x (err %v)", e, snap, again, err)
	}
}

func fuzzIntFOR(t *testing.T, a, b, c int64) {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	// Keep the span inside the 32-bit packed-width contract the analyzer
	// guarantees in production.
	const maxSpan = 1 << 31
	if uhi := uint64(hi) - uint64(lo); uhi > maxSpan {
		hi = lo + maxSpan
	}
	mid := lo + (hi-lo)/2
	val := c
	if val < lo || val > hi {
		val = mid
	}
	e := NewIntFOR(lo, hi, types.KindInt)
	raws := []int64{lo, mid, val, hi}
	sort.Slice(raws, func(i, j int) bool { return raws[i] < raws[j] })
	prev := uint64(0)
	for i, raw := range raws {
		if !e.Contains(raw) {
			t.Fatalf("IntFOR[%d,%d]: Contains(%d)=false", lo, hi, raw)
		}
		code := e.Encode(types.NewInt(raw))
		if got := e.Decode(code).Int(); got != raw {
			t.Fatalf("IntFOR[%d,%d]: %d -> code %d -> %d", lo, hi, raw, code, got)
		}
		if i > 0 && code < prev {
			t.Fatalf("IntFOR[%d,%d]: codes not order preserving at %d", lo, hi, raw)
		}
		prev = code
	}
	if e.Contains(lo - 1) {
		t.Fatalf("IntFOR[%d,%d]: Contains(%d)=true below base", lo, hi, lo-1)
	}
	snapshotTrip(t, e)
}

func fuzzFloatFOR(t *testing.T, x float64) {
	for _, scale := range []float64{1, 100, 10000} {
		e := NewFloatFOR(-1_000_000, 1_000_000, scale)
		raw, exact := e.Scaled(x)
		if !exact || !e.Contains(x) {
			continue // out of fixed-point domain: nothing to round-trip
		}
		code := e.Encode(types.NewFloat(x))
		dec := e.Decode(code).Float()
		back, ok := e.Scaled(dec)
		if !ok || back != raw || math.Float64bits(dec) != math.Float64bits(x) {
			t.Fatalf("FloatFOR(scale=%v): %v -> code %d -> %v (raw %d vs %d)",
				scale, x, code, dec, raw, back)
		}
		snapshotTrip(t, e)
	}
}

func fuzzFrontCode(t *testing.T, s1, s2, s3 string) {
	// Build a sorted, deduplicated list large enough to cross restart
	// points, with shared prefixes to exercise the delta encoding.
	uniq := map[string]bool{}
	for _, base := range []string{s1, s2, s3} {
		uniq[base] = true
		for _, suf := range []string{"", "a", "ab", "b", "\x00", "zz"} {
			uniq[base+suf] = true
		}
	}
	sorted := make([]string, 0, len(uniq))
	for s := range uniq {
		sorted = append(sorted, s)
	}
	sort.Strings(sorted)
	fc := NewFrontCodedList(sorted)
	if fc.Len() != len(sorted) {
		t.Fatalf("frontcode: Len %d != %d", fc.Len(), len(sorted))
	}
	for i, want := range sorted {
		if got := fc.Get(i); got != want {
			t.Fatalf("frontcode: Get(%d)=%q want %q", i, got, want)
		}
		pos, found := fc.Search(want)
		if !found || pos != i {
			t.Fatalf("frontcode: Search(%q)=(%d,%v) want (%d,true)", want, pos, found, i)
		}
	}
	if _, found := fc.Search(sorted[len(sorted)-1] + "\xffmissing"); found {
		t.Fatal("frontcode: Search found a string not in the list")
	}
}

// TestEncoderSnapshotKinds round-trips a dictionary of every kind a column
// holds, with values in both partitions and the extension region — NaNs
// and -0 among the DOUBLEs — and the frame-of-reference encoders.
func TestEncoderSnapshotKinds(t *testing.T) {
	nan := math.NaN()
	for kind, vals := range map[types.Kind][]types.Value{
		types.KindBool:      {types.NewBool(true), types.NewBool(false), types.NewBool(true)},
		types.KindInt:       {types.NewInt(-1 << 62), types.NewInt(0), types.NewInt(7), types.NewInt(7)},
		types.KindFloat:     {types.NewFloat(nan), types.NewFloat(nan), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(2.5)},
		types.KindString:    {types.NewString(""), types.NewString("b"), types.NewString("ab"), types.NewString("b")},
		types.KindDate:      {types.NewDate(-3), types.NewDate(19000)},
		types.KindTimestamp: {types.NewTimestamp(1e15), types.NewTimestamp(-1)},
	} {
		hot := make([]types.Value, 0, 40)
		for i := 0; i < 40; i++ {
			hot = append(hot, vals[0]) // a hot value makes a second partition
		}
		d := BuildDict(kind, append(hot, vals...))
		d.Encode(vals[len(vals)-1])
		if kind == types.KindInt {
			d.Encode(types.NewInt(99)) // an extension value
		}
		snapshotTrip(t, d)
	}
	snapshotTrip(t, NewIntFOR(-40, 1<<20, types.KindDate))
	snapshotTrip(t, NewFloatFOR(-100, 100, 10000))
	r := types.NewReader([]byte{0xDB, 'E', 1, tagDict, byte(types.KindString), 1, 2, 1, 'b', 1, 'a', 0})
	if ReadEncoder(&r) != nil || r.Err() == nil {
		t.Fatal("a partition out of order was read")
	}
}
