package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// keyCase draws the keys of a one-column table, of one kind.
type keyCase struct {
	name string
	col  types.Column
	key  func(rng *rand.Rand, i int) types.Value
}

// keyCases are the keys a bounded group-by publishes: integers; doubles
// with NaNs, which sort after +Inf, and both zeros, which are one group;
// integers with NULLs, which sort first ascending and last descending; and
// strings longer than 8 bytes that share their first 8, which a key word
// cannot tell apart.
var keyCases = []keyCase{
	{"int", types.Column{Name: "k", Kind: types.KindInt}, func(rng *rand.Rand, i int) types.Value {
		return types.NewInt(rng.Int63n(20_000) - 10_000)
	}},
	{"double", types.Column{Name: "k", Kind: types.KindFloat}, func(rng *rand.Rand, i int) types.Value {
		switch i % 97 {
		case 0:
			return types.NewFloat(math.NaN())
		case 1:
			return types.NewFloat(math.Copysign(0, -1))
		case 2:
			return types.NewFloat(0)
		}
		return types.NewFloat(float64(rng.Int63n(20_000)-10_000) / 4)
	}},
	{"nullable", types.Column{Name: "k", Kind: types.KindInt, Nullable: true}, func(rng *rand.Rand, i int) types.Value {
		if i%50 == 0 {
			return types.NullOf(types.KindInt)
		}
		return types.NewInt(rng.Int63n(20_000))
	}},
	{"string", types.Column{Name: "k", Kind: types.KindString}, func(rng *rand.Rand, i int) types.Value {
		return types.NewString(fmt.Sprintf("prefix%02d%05d", rng.Intn(2), rng.Intn(10_000)))
	}},
}

// orderOf compares two keys in a bounded sort's order: NULLs first
// ascending and last descending, NaNs after +Inf, the zeros equal.
func orderOf(a, b types.Value, desc bool) int {
	if desc {
		return -types.Compare(a, b)
	}
	return types.Compare(a, b)
}

// keyString names a key's group: the zeros are one.
func keyString(x types.Value) string {
	if x.Kind() == types.KindFloat && !x.IsNull() && x.Float() == 0 {
		return "0"
	}
	return x.String()
}

// TestGroupByPublishesItsNth: a bounded group-by over a scan it publishes
// into, replayed batch by batch at dop 1. A chunk of each batch is cut to
// the published bound, the groups it creates are candidates one at a time,
// and the candidates are selected when they first reach PublishN and then
// each time they reach 2·PublishN. So the bound holds nothing before PublishN
// candidates exist, and after each select exactly the PublishN-th key of
// the candidates in the sort's order — a NULL publishing nothing — which
// keeps fewer than 2·PublishN of the keys seen besides its ties. The
// groups the LIMIT keeps are emitted with all their rows.
func TestGroupByPublishesItsNth(t *testing.T) {
	const n = 24 * ChunkSize
	for ci, kc := range keyCases {
		rng := rand.New(rand.NewSource(int64(61 + ci)))
		tbl := columnar.NewTable(775, "k", types.Schema{kc.col}, columnar.Config{})
		rows := make([]types.Row, n)
		all := map[string]int{}
		for i := range rows {
			rows[i] = types.Row{kc.key(rng, i)}
			all[keyString(rows[i][0])]++
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		for _, desc := range []bool{false, true} {
			for _, pn := range []int{1, 10, 100, 3000} {
				label := fmt.Sprintf("%s desc %v, PublishN %d", kc.name, desc, pn)
				op := encoding.OpLE
				if desc {
					op = encoding.OpGE
				}
				bound, scan := columnar.NewBound(0, op), scanCodes(tbl, 1)
				scan.Bound, scan.BoundAfter = bound, pn // dropped at Open over a NULL ascending
				g := &GroupByOp{GroupBy: []Expr{ColRef(0)}, GroupCols: types.Schema{kc.col},
					Aggs: []AggSpec{{Func: AggCountStar, Name: "c"}}, Publish: bound, PublishN: pn}
				var (
					cands     []types.Value
					pub       types.Value
					published bool
					at        = pn
					groups    = map[string]bool{}
					selects   int
				)
				tap := &tapOp[types.Value]{Operator: scan, key: func(x types.Value) types.Value { return x }}
				tap.check = func(seen, last []types.Value) { // on the group-by's worker: no Fatal
					if t.Failed() {
						return
					}
					for len(last) > 0 { // replay the batch the group-by took last, a chunk at a time
						chunk := last[:min(len(last), g.chunk())]
						last = last[len(chunk):]
						cut, bounded := pub, published
						for _, x := range chunk {
							if bounded && orderOf(x, cut, desc) > 0 || groups[keyString(x)] {
								continue
							}
							groups[keyString(x)] = true
							if cands = append(cands, x); len(cands) < at {
								continue
							}
							slices.SortStableFunc(cands, func(a, b types.Value) int { return orderOf(a, b, desc) })
							nth := cands[pn-1]
							cands, at, selects = cands[:pn], 2*pn, selects+1
							if !nth.IsNull() && (!published || orderOf(nth, pub, desc) < 0) {
								pub, published = nth, true
							}
						}
					}
					v, ok := bound.Value()
					if ok != published || ok && (types.Compare(v, pub) != 0 || v.Kind() != pub.Kind()) {
						t.Errorf("%s: after %d rows, %d selects, published %v (%v), want %v (%v)", label, len(seen), selects, v, ok, pub, published)
						return
					}
					if !ok {
						return
					}
					before, distinct := 0, map[string]bool{}
					for _, x := range seen {
						if s := keyString(x); !distinct[s] && orderOf(x, v, desc) < 0 {
							distinct[s], before = true, before+1
						}
					}
					if before >= 2*pn {
						t.Errorf("%s: after %d rows published %v, which keeps %d keys besides its ties", label, len(seen), v, before)
					}
				}
				g.Child = tap
				out, err := Drain(g)
				if err != nil {
					t.Fatal(err)
				}
				if t.Failed() {
					t.FailNow()
				}
				// The PublishN first groups in the LIMIT's order, every row counted.
				slices.SortStableFunc(out, func(a, b types.Row) int { return orderOf(a[0], b[0], desc) })
				var keys []types.Value
				for _, r := range rows {
					keys = append(keys, r[0])
				}
				slices.SortStableFunc(keys, func(a, b types.Value) int { return orderOf(a, b, desc) })
				keys = slices.CompactFunc(keys, func(a, b types.Value) bool { return keyString(a) == keyString(b) })
				if len(out) < min(pn, len(keys)) {
					t.Fatalf("%s: %d groups emitted under %v, want at least %d", label, len(out), pub, min(pn, len(keys)))
				}
				for i := range min(pn, len(keys)) {
					if keyString(out[i][0]) != keyString(keys[i]) || out[i][1].Int() != int64(all[keyString(keys[i])]) {
						t.Fatalf("%s: group %d is %v, want %v with %d rows", label, i, out[i], keys[i], all[keyString(keys[i])])
					}
				}
				t.Logf("%s: %d rows taken, %d groups, %d selects, published %v", label, len(tap.keys), len(groups), selects, pub)
			}
		}
	}
}

// TestGroupCutAmortized: a million distinct keys arriving ascending,
// descending and in random order, under PublishN 10 and 100 000, admitted
// to the cut in runs of one to a chunk of groups. A select is handed fewer
// than three keys a group, the candidates never pass 2·PublishN between
// runs nor their capacity 2·PublishN and a chunk, and their charge is
// exact and released. A denied charge stops the selecting and keeps the
// value published last.
func TestGroupCutAmortized(t *testing.T) {
	const keys = 1_000_000
	rng := rand.New(rand.NewSource(8))
	perm := rng.Perm(keys)
	for _, pn := range []int{10, 100_000} {
		for _, order := range []string{"ascending", "descending", "random"} {
			label := fmt.Sprintf("%s, PublishN %d", order, pn)
			res := mem.NewBroker(1<<30, 1<<30, t.TempDir()).Reserve(mem.HashHeap, 0)
			g := &GroupByOp{Publish: columnar.NewBound(0, encoding.OpLE), PublishN: pn, res: res}
			c := &groupCut{at: pn}
			v := vec.New(types.KindInt, keys)
			for i := range v.I64 {
				switch order {
				case "ascending":
					v.I64[i] = int64(i)
				case "descending":
					v.I64[i] = int64(keys - i)
				default:
					v.I64[i] = int64(perm[i])
				}
			}
			tbl := newGroupTable(adoptKeys([]*vec.Vector{v}), nil, nil, nil)
			if err := tbl.ingest([]*vec.Vector{v}, nil, nil, nil, keys); err != nil {
				t.Fatal(err)
			}
			handed := 0
			for from := 0; from < tbl.n; {
				to := min(tbl.n, from+1+rng.Intn(g.chunk()))
				before, at := len(c.ids), c.at
				if g.admit(tbl, c, from, to); len(c.ids) != before+to-from || c.at != at {
					handed += before + to - from - (before+to-from-at)%pn // the last select's, the one that ran
				}
				if from = to; len(c.ids) >= 2*pn || cap(c.ids) > 2*pn+g.chunk() || c.held != 4*int64(cap(c.ids)) || res.Used() != c.held {
					t.Fatalf("%s: %d candidates of capacity %d, charged %d, reservation %d", label, len(c.ids), cap(c.ids), c.held, res.Used())
				}
			}
			// Never tighter than the PublishN-th key, 0..PublishN-1 being the
			// least; exactly it when those come first.
			if got := mustValue(t, g.Publish).Int(); handed >= 3*tbl.n || got < int64(pn-1) || got != int64(pn-1) && order == "ascending" {
				t.Errorf("%s: %d keys handed to the select for %d groups, published %v", label, handed, tbl.n, mustValue(t, g.Publish))
			}
			c.release(res)
			if res.Used() != 0 {
				t.Errorf("%s: released, reservation holds %d", label, res.Used())
			}
			t.Logf("%s: %d keys handed to the select for %d groups", label, handed, tbl.n)
		}
	}

	// 1 KB: the candidates' first 100 and 200 ids fit, 400 do not. The
	// keys descend, so the select at 200 publishes the first chunk's first.
	tight := mem.NewBroker(1<<30, 1<<30, t.TempDir()).Reserve(mem.HashHeap, 1024)
	g := &GroupByOp{Publish: columnar.NewBound(0, encoding.OpLE), PublishN: 200, res: tight}
	c := &groupCut{at: 200}
	v := vec.New(types.KindInt, 1000)
	for i := range v.I64 {
		v.I64[i] = int64(1000 - i)
	}
	tbl := newGroupTable(adoptKeys([]*vec.Vector{v}), nil, nil, nil)
	var last types.Value
	for from := 0; from < 1000; from += 100 {
		idx := make([]int, 100)
		for i := range idx {
			idx[i] = from + i
		}
		if err := g.ingestBounded(tbl, c, []*vec.Vector{v}, nil, nil, idx); err != nil {
			t.Fatal(err)
		}
		if from == 100 {
			last = mustValue(t, g.Publish)
		}
	}
	if !c.off || c.held != 0 || tight.Used() != 0 || mustValue(t, g.Publish).Int() != last.Int() || last.Int() != 1000 {
		t.Errorf("denied: off %v, charged %d, reservation %d, published %v after %v", c.off, c.held, tight.Used(), mustValue(t, g.Publish), last)
	}
}

func mustValue(t *testing.T, b *columnar.Bound) types.Value {
	t.Helper()
	v, ok := b.Value()
	if !ok {
		t.Fatal("no value published")
	}
	return v
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
