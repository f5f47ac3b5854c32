package columnar

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// decodeOracle is the boxed decode the typed kernels replaced: every
// selected cell through enc.Decode and vec.Vector.Set.
func decodeOracle(kind types.Kind, enc encoding.Encoder, codes []uint64, nulls []bool, sel []int) *vec.Vector {
	v := vec.New(kind, len(sel))
	for k, off := range sel {
		if nulls[off] {
			v.SetNull(k)
			continue
		}
		v.Set(k, enc.Decode(codes[off]))
	}
	return v
}

// sameVector reports the first position where got and want differ: NULL
// flags, then payloads (floats by bit pattern, NULL slots included).
func sameVector(got, want *vec.Vector) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("length %d, want %d", got.Len(), want.Len())
	}
	for k := 0; k < want.Len(); k++ {
		if got.IsNull(k) != want.IsNull(k) {
			return fmt.Errorf("slot %d: NULL %v, want %v", k, got.IsNull(k), want.IsNull(k))
		}
		var ok bool
		switch {
		case want.I64 != nil:
			ok = got.I64[k] == want.I64[k]
		case want.F64 != nil:
			ok = math.Float64bits(got.F64[k]) == math.Float64bits(want.F64[k])
		case want.Str != nil:
			ok = got.Str[k] == want.Str[k]
		default:
			ok = got.Any[k] == want.Any[k]
		}
		if !ok {
			return fmt.Errorf("slot %d: %v, want %v", k, got.Get(k), want.Get(k))
		}
	}
	return nil
}

// codeFixture returns a one-column table whose encoder is enc and whose
// stride 0 holds codes and nulls: a sealed page when there are StrideSize
// of them, else the tail.
func codeFixture(t testing.TB, kind types.Kind, enc encoding.Encoder, codes []uint64, nulls []bool) *Table {
	tbl := NewTable(80, "decode", types.Schema{{Name: "c", Kind: kind, Nullable: true}}, Config{})
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	c := tbl.cols[0]
	c.enc = enc
	if len(codes) == page.StrideSize {
		if err := tbl.writeStrideLocked(0, 0, codes, nulls); err != nil {
			t.Fatal(err)
		}
	} else {
		c.setTail(tbl.pageID(0, 0), codes, nulls)
	}
	tbl.rows, tbl.live = len(codes), len(codes)
	tbl.growDeletedLocked(tbl.rows)
	tbl.publishLocked()
	return tbl
}

// checkTypedDecode decodes sel of a fixture over codes and nulls, with
// the codes both sealed (padded to a stride) and open, and compares the
// typed vector with the oracle's.
func checkTypedDecode(t *testing.T, kind types.Kind, enc encoding.Encoder, codes []uint64, nulls []bool, sel []int) {
	t.Helper()
	for _, sealed := range []bool{true, false} {
		cs, ns, sel := codes, nulls, sel
		if sealed {
			cs = append(append([]uint64(nil), codes...), make([]uint64, page.StrideSize-len(codes))...)
			ns = append(append([]bool(nil), nulls...), make([]bool, page.StrideSize-len(nulls))...)
		} else if len(codes) == page.StrideSize { // an open stride holds at most StrideSize-1
			cs, ns = codes[:page.StrideSize-1], nulls[:page.StrideSize-1]
			if k := len(sel); k > 0 && sel[k-1] == page.StrideSize-1 {
				sel = sel[:k-1]
			}
		}
		tbl := codeFixture(t, kind, enc, cs, ns)
		snap := tbl.Snapshot()
		b := newBatch(tbl, snap.state(), 0, 0)
		b.sel = sel
		if open := b.st.cols[0].tail != nil; open == sealed {
			t.Fatalf("fixture of %d codes: open %v", len(cs), open)
		}
		if err := sameVector(b.vector(0, false), decodeOracle(kind, enc, cs, ns, sel)); err != nil {
			t.Errorf("%T over %v, sealed %v, %d of %d selected: %v", enc, kind, sealed, len(sel), len(codes), err)
		}
		snap.Release()
	}
}

// randomCells draws n codes below card, each NULL with probability
// nullRate (every one when card is 0: an empty domain has no code).
func randomCells(rng *rand.Rand, n int, card uint64, nullRate float64) ([]uint64, []bool) {
	codes, nulls := make([]uint64, n), make([]bool, n)
	for i := range codes {
		if card == 0 || rng.Float64() < nullRate {
			nulls[i] = true
			continue
		}
		codes[i] = uint64(rng.Int63n(int64(min(card, 1<<62))))
	}
	return codes, nulls
}

// randomSel draws ascending offsets below n, each kept with probability p.
func randomSel(rng *rand.Rand, n int, p float64) []int {
	sel := []int{}
	for off := 0; off < n; off++ {
		if rng.Float64() < p {
			sel = append(sel, off)
		}
	}
	return sel
}

// decodeCase is one (encoder, kind) pair of TestTypedDecodeMatchesDecode.
type decodeCase struct {
	name string
	kind types.Kind
	enc  encoding.Encoder
}

func decodeCases() []decodeCase {
	vals := func(mk func(int) types.Value, n int) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = mk(i)
		}
		return out
	}
	withExt := func(d *encoding.Dict, ext ...types.Value) *encoding.Dict {
		for _, v := range ext {
			d.Encode(v)
		}
		return d
	}
	cases := []decodeCase{
		{"IntFOR/INT", types.KindInt, encoding.NewIntFOR(-5000, 120_000, types.KindInt)},
		{"IntFOR/DATE", types.KindDate, encoding.NewIntFOR(16_000, 17_500, types.KindDate)},
		{"IntFOR/TIMESTAMP", types.KindTimestamp, encoding.NewIntFOR(1_600_000_000_000_000, 1_600_000_100_000_000, types.KindTimestamp)},
		{"IntFOR/BOOL", types.KindBool, encoding.NewIntFOR(0, 1, types.KindBool)},
		{"Dict/STRING", types.KindString, withExt(encoding.BuildDict(types.KindString, vals(func(i int) types.Value {
			return types.NewString(fmt.Sprintf("s%03d", i%40))
		}, 400)), types.NewString("a-late"), types.NewString("zz-late"))},
		{"Dict/INT", types.KindInt, withExt(encoding.BuildDict(types.KindInt, vals(func(i int) types.Value {
			return types.NewInt(int64(i%25) * 1_000_003)
		}, 300)), types.NewInt(-7), types.NewInt(1<<50))},
		{"Dict/DOUBLE", types.KindFloat, withExt(encoding.BuildDict(types.KindFloat, vals(func(i int) types.Value {
			return types.NewFloat(float64(i%30) / 3)
		}, 300)), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.Inf(1)), types.NewFloat(-1e300))},
		{"Dict/DATE", types.KindDate, withExt(encoding.BuildDict(types.KindDate, vals(func(i int) types.Value {
			return types.NewDate(int64(16_000 + i%50))
		}, 300)), types.NewDate(1))},
		{"all-NULL/INT", types.KindInt, encoding.NewDict(types.KindInt)},
		{"all-NULL/STRING", types.KindString, encoding.NewDict(types.KindString)},
	}
	for _, scale := range []float64{1, 100, 10_000} {
		cases = append(cases, decodeCase{fmt.Sprintf("FloatFOR/%g", scale), types.KindFloat, encoding.NewFloatFOR(-7_000_000, 9_000_000, scale)})
	}
	return cases
}

// TestTypedDecodeMatchesDecode holds every encoder's typed decode to the
// per-cell boxed decode, sealed and open, over dense, sparse and empty
// selections with and without NULLs.
func TestTypedDecodeMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range decodeCases() {
		t.Run(c.name, func(t *testing.T) {
			card := uint64(c.enc.Cardinality())
			for _, n := range []int{page.StrideSize, 700, 1} {
				for _, nullRate := range []float64{0, 0.1} {
					codes, nulls := randomCells(rng, n, card, nullRate)
					for _, p := range []float64{1, 0.5, 0.01, 0} {
						checkTypedDecode(t, c.kind, c.enc, codes, nulls, randomSel(rng, n, p))
					}
				}
			}
		})
	}
}

// FuzzVectorDecode builds an encoder from a random sample of a random
// kind, then decodes random codes, NULLs and selections typed and checks
// them against the boxed oracle.
func FuzzVectorDecode(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(1024), uint8(255), uint8(0))
	f.Add(int64(2), uint8(2), uint16(1023), uint8(3), uint8(30))
	f.Add(int64(3), uint8(4), uint16(5), uint8(128), uint8(255))
	f.Add(int64(4), uint8(5), uint16(1024), uint8(1), uint8(10))
	kinds := []types.Kind{types.KindInt, types.KindDate, types.KindFloat, types.KindFloat, types.KindString, types.KindBool, types.KindTimestamp}
	f.Fuzz(func(t *testing.T, seed int64, kindSel uint8, rows uint16, density, nullPct uint8) {
		rng := rand.New(rand.NewSource(seed))
		kind := kinds[int(kindSel)%len(kinds)]
		n := 1 + int(rows)%page.StrideSize
		if rows >= page.StrideSize {
			n = page.StrideSize
		}
		sample := make([]types.Value, 1+rng.Intn(200))
		fixedPoint := kindSel%2 == 0
		for i := range sample {
			x := rng.Int63n(1 << uint(1+rng.Intn(40)))
			if rng.Intn(2) == 0 {
				x = -x
			}
			switch {
			case rng.Intn(10) == 0:
				sample[i] = types.NullOf(kind)
			case kind == types.KindFloat && fixedPoint:
				sample[i] = types.NewFloat(float64(x%1_000_000) / 100)
			case kind == types.KindFloat:
				sample[i] = types.NewFloat(float64(x) / 7)
			case kind == types.KindString:
				sample[i] = types.NewString(fmt.Sprint(x % 97))
			case kind == types.KindBool:
				sample[i] = types.NewBool(x%2 == 0)
			case kind == types.KindDate:
				sample[i] = types.NewDate(x % 40_000)
			case kind == types.KindTimestamp:
				sample[i] = types.NewTimestamp(x)
			default:
				sample[i] = types.NewInt(x)
			}
		}
		enc := encoding.ChooseEncoder(kind, sample)
		if d, ok := enc.(*encoding.Dict); ok && d.Cardinality() > 0 {
			// Values after analysis take extension-region codes.
			for i := rng.Intn(3); i > 0; i-- {
				switch x := rng.Int63(); kind {
				case types.KindFloat:
					d.Encode(types.NewFloat(float64(x) / 3))
				case types.KindString:
					d.Encode(types.NewString(fmt.Sprint("late", x)))
				default:
					d.Encode(types.NewInt(x))
				}
			}
		}
		codes, nulls := randomCells(rng, n, uint64(enc.Cardinality()), float64(nullPct)/255)
		sel := randomSel(rng, n, float64(density)/255)
		tbl := codeFixture(t, kind, enc, codes, nulls)
		snap := tbl.Snapshot()
		defer snap.Release()
		b := newBatch(tbl, snap.state(), 0, 0)
		b.sel = sel
		if err := sameVector(b.vector(0, false), decodeOracle(kind, enc, codes, nulls, sel)); err != nil {
			t.Fatalf("%T over %v, %d of %d selected, open %v: %v", enc, kind, len(sel), n, n < page.StrideSize, err)
		}
	})
}

// BenchmarkBatchVector decodes one column of a sealed stride and of the
// open stride per encoder, over every row and over 1 % of them, and hands
// the vector back as the operator above a scan does, so a dense decode
// reuses a pooled payload.
func BenchmarkBatchVector(b *testing.B) {
	schema := types.Schema{
		{Name: "intfor", Kind: types.KindInt},
		{Name: "date", Kind: types.KindDate},
		{Name: "floatfor", Kind: types.KindFloat},
		{Name: "dict_str", Kind: types.KindString},
		{Name: "dict_dbl", Kind: types.KindFloat},
		{Name: "dict_int", Kind: types.KindInt},
	}
	rows := make([]types.Row, 2*page.StrideSize+700)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i * 7)),
			types.NewDate(int64(16_000 + i%3650)),
			types.NewFloat(float64(i%100_000) / 100),
			types.NewString(fmt.Sprintf("status-%d", i%12)),
			types.NewFloat(float64(i%64) / 3),
			types.NewInt(int64(i%50) << 40),
		}
	}
	tbl := NewTable(81, "bench", schema, Config{})
	if err := tbl.InsertBatch(rows); err != nil {
		b.Fatal(err)
	}
	snap := tbl.Snapshot()
	defer snap.Release()
	var strides []*Batch // stride 0 (sealed) and the open stride
	if err := scanSerial(snap, nil, func(bt *Batch) bool {
		if bt.base == 0 || bt.Len() < page.StrideSize {
			kept := newBatch(tbl, bt.st, bt.stride, 0) // bt is valid only during the callback
			kept.sel = slices.Clone(bt.sel)
			strides = append(strides, kept)
		}
		return true
	}); err != nil {
		b.Fatal(err)
	}
	for si, stride := range strides {
		where := []string{"sealed", "open"}[si]
		n := stride.Len()
		sparse := []int{}
		for off := 0; off < n; off += 100 {
			sparse = append(sparse, off)
		}
		for _, sel := range []struct {
			name string
			offs []int
		}{{"dense", stride.sel}, {"1pct", sparse}} {
			for ci, col := range schema {
				b.Run(fmt.Sprintf("%s/%s/%s", col.Name, where, sel.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						bt := *stride
						bt.sel = sel.offs
						vb := vec.NewBatch(schema[ci:ci+1], []*vec.Vector{bt.vector(ci, false)}, len(sel.offs))
						vb.Own()
						vb.Release()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sel.offs)), "ns/row")
				})
			}
		}
	}
}
