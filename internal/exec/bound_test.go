package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// TestWordValueKeepsItsWord: the value published for a key word keeps
// every key of that word and before it — exactly the key for integral and
// float kinds; for a string, the least string past every string of the
// word ascending and the least string of the word descending. A NaN and
// the last string word publish nothing.
func TestWordValueKeepsItsWord(t *testing.T) {
	for _, x := range []types.Value{types.NewInt(-7), types.NewInt(math.MaxInt64), types.NewDate(19000), types.NewTimestamp(-1), types.NewBool(true),
		types.NewFloat(-2.5), types.NewFloat(0), types.NewFloat(math.Inf(-1)), types.NewFloat(1e300)} {
		v, ok := wordValue(x.Kind(), cellWord(x, x.Kind()), false)
		if !ok || types.Compare(v, x) != 0 || v.Kind() != x.Kind() {
			t.Errorf("%v: %v %v", x, v, ok)
		}
	}
	if _, ok := wordValue(types.KindFloat, f64Word(math.NaN()), false); ok {
		t.Error("a NaN publishes")
	}
	for _, s := range []string{"", "ab", "abcdefgh", "abcdefghij", "ab\x00c", "a\xff\xff\xff\xff\xff\xff\xff"} {
		w := strWord(s)
		asc, ok := wordValue(types.KindString, w, false)
		if !ok || asc.Str() <= s || strWord(asc.Str()) <= w {
			t.Errorf("%q ascending: %q %v", s, asc.Str(), ok)
		}
		desc, _ := wordValue(types.KindString, w, true)
		if desc.Str() > s || strWord(desc.Str()) != w {
			t.Errorf("%q descending: %q", s, desc.Str())
		}
	}
	if _, ok := wordValue(types.KindString, strWord(strings.Repeat("\xff", 9)), false); ok {
		t.Error("the last string word publishes ascending")
	}
}

// TestLeadKeysPublishNth: fed keys in chunks, the cut publishes a key in
// the bound's order after the chunk that brings it to n keys — ties
// counted, NULLs not — and tightens it from there: the published value
// keeps at least n of the keys seen and fewer than 2n besides its ties,
// and is exactly the n-th when the n-th key arrives.
func TestLeadKeysPublishNth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, op := range []encoding.CmpOp{encoding.OpLE, encoding.OpGE} {
		for _, n := range []int{1, 10, 100, 3000} {
			b := columnar.NewBound(0, op)
			l := newLeadKeys(b, n, nil)
			var seen []int64
			for range 20 {
				v := vec.New(types.KindInt, 500)
				for i := range v.I64 {
					if v.I64[i] = rng.Int63n(2000) - 1000; i%50 == 0 {
						v.SetNull(i)
					} else {
						seen = append(seen, v.I64[i])
					}
				}
				for i := range v.I64 {
					l.addCell(v.Get(i))
				}
				l.publish()
				got, ok := b.Value()
				if len(seen) < n {
					if ok {
						t.Fatalf("%s n=%d: published %v from %d keys", op, n, got, len(seen))
					}
					continue
				}
				if !ok {
					t.Fatalf("%s n=%d: nothing published from %d keys", op, n, len(seen))
				}
				kept := 0
				for _, x := range seen {
					if op.Eval(types.NewInt(x), got) {
						kept++
					}
				}
				if kept < n || kept-countOf(seen, got.Int()) >= 2*n {
					t.Fatalf("%s n=%d: published %v keeps %d of %d keys", op, n, got, kept, len(seen))
				}
			}
		}
	}
	b := columnar.NewBound(0, encoding.OpLE)
	l := newLeadKeys(b, 3, nil)
	for _, x := range []int64{9, 4, 7} {
		l.addCell(types.NewInt(x))
	}
	if l.publish(); mustValue(t, b).Int() != 9 {
		t.Fatalf("the third key published %v, want 9", mustValue(t, b))
	}
}

// countOf is how many of xs equal x: the ties a non-strict cut keeps.
func countOf(xs []int64, x int64) (n int) {
	for _, y := range xs {
		if y == x {
			n++
		}
	}
	return n
}

func mustValue(t *testing.T, b *columnar.Bound) types.Value {
	t.Helper()
	v, ok := b.Value()
	if !ok {
		t.Fatal("no value published")
	}
	return v
}

// TestLeadKeysAmortized: under a large n the cut selects only when its
// candidates reach n, then 2n — never on a publish — so a million keys
// under n = 100 000, published every batch, select fewer than three words
// a key; and the candidates are charged to the
// reservation, and a denied charge stops the counting with the last
// published value kept.
func TestLeadKeysAmortized(t *testing.T) {
	const n, keys = 100_000, 1_000_000
	rng := rand.New(rand.NewSource(7))
	b := columnar.NewBound(0, encoding.OpLE)
	res := mem.NewBroker(1<<30, 1<<30, t.TempDir()).Reserve(mem.SortHeap, 0)
	l := newLeadKeys(b, n, res)
	selected := 0
	for i := range keys {
		before := len(l.words)
		if l.add(uint64(rng.Int63())); len(l.words) < before {
			selected += before + 1 // a cut among them and the key
		}
		if before = len(l.words); i%ChunkSize == 0 {
			if l.publish(); len(l.words) != before {
				t.Fatalf("a publish cut %d candidates to %d", before, len(l.words))
			}
		}
	}
	if selected >= 3*keys {
		t.Errorf("selected %d words for %d keys", selected, keys)
	}
	if res.Used() != l.held || l.held > 8*2*n {
		t.Errorf("charged %d, reservation %d, want at most %d", l.held, res.Used(), 8*2*n)
	}
	l.release()
	if res.Used() != 0 {
		t.Errorf("released, reservation holds %d", res.Used())
	}

	// 1 KB: the candidates' first 64 and 128 words fit, 256 do not.
	tight := mem.NewBroker(1<<30, 1<<30, t.TempDir()).Reserve(mem.SortHeap, 1024)
	small := newLeadKeys(columnar.NewBound(0, encoding.OpLE), n, tight)
	for i := range 200 {
		small.add(uint64(i))
	}
	if !small.off || small.held != 0 || tight.Used() != 0 {
		t.Errorf("denied: off %v, charged %d, reservation %d", small.off, small.held, tight.Used())
	}
}

// BenchmarkBoundedSortLargeLimit times ORDER BY k LIMIT 100 000 over a
// million random keys at dop 2, the sort publishing into its scan's bound
// and not: a large LIMIT must cost no more than the sort's own cutoff
// costs without the bound. Keys below 2^30 take a frame of reference;
// keys below 2^40 a dictionary of the first load's keys, the rest in its
// extension, which the bound keeps whole.
func BenchmarkBoundedSortLargeLimit(b *testing.B) {
	const rows, limit = 1 << 20, 100_000
	for _, span := range []int64{1 << 30, 1 << 40} {
		tbl := columnar.NewTable(773, "t", types.Schema{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}}, columnar.Config{})
		rng := rand.New(rand.NewSource(3))
		batch := make([]types.Row, 0, 1<<16)
		for i := range rows {
			batch = append(batch, types.Row{types.NewInt(rng.Int63n(span)), types.NewInt(int64(i))})
			if len(batch) == cap(batch) {
				if err := tbl.InsertBatch(batch); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		for _, publish := range []bool{false, true} {
			name := fmt.Sprintf("%s/%s", map[int64]string{1 << 30: "for", 1 << 40: "dict"}[span], map[bool]string{false: "cutoff", true: "published"}[publish])
			b.Run(name, func(b *testing.B) {
				for range b.N {
					scan := scanDop(tbl, 2)
					sort := &SortOp{Child: scan, Keys: []SortKey{{Expr: ColRef(0)}}, Bound: limit}
					if publish {
						scan.Bound, scan.BoundAfter = columnar.NewBound(0, encoding.OpLE), limit
						sort.Publish = scan.Bound
					}
					out, err := Drain(&LimitOp{Child: sort, Limit: limit})
					if err != nil || len(out) != limit {
						b.Fatal(len(out), err)
					}
				}
			})
		}
	}
}
