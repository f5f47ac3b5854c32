package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/mem"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// keySpec is one key column shape of the normalized-key tests: the kind its
// vector is typed as (boxed: a KindNull vector of boxed cells) and the pool
// its cells are drawn from, edge values included.
type keySpec struct {
	name  string
	kind  types.Kind
	boxed bool
	pool  []types.Value
}

func sortKeySpecs() []keySpec {
	ints := []types.Value{types.NewInt(math.MinInt64), types.NewInt(math.MinInt64 + 1), types.NewInt(-1), types.NewInt(0),
		types.NewInt(1), types.NewInt(math.MaxInt64 - 1), types.NewInt(math.MaxInt64), types.NullOf(types.KindInt)}
	doubles := []types.Value{types.NewFloat(math.NaN()), types.NewFloat(math.Float64frombits(0xFFF8_0000_0000_0001)),
		types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
		types.NewFloat(math.MaxFloat64), types.NewFloat(-math.MaxFloat64), types.NewFloat(math.SmallestNonzeroFloat64),
		types.NewFloat(-math.SmallestNonzeroFloat64), types.NewFloat(1.5), types.NewFloat(-1.5), types.NullOf(types.KindFloat)}
	dates := []types.Value{types.NewDate(-719162), types.NewDate(-1), types.NewDate(0), types.NewDate(14000),
		types.NewDate(14001), types.NewDate(2932896), types.NullOf(types.KindDate)}
	stamps := []types.Value{types.NewTimestamp(math.MinInt64), types.NewTimestamp(-1), types.NewTimestamp(0),
		types.NewTimestamp(1), types.NewTimestamp(1_451_606_400_000_000), types.NewTimestamp(math.MaxInt64), types.NullOf(types.KindTimestamp)}
	bools := []types.Value{types.NewBool(false), types.NewBool(true), types.NullOf(types.KindBool)}
	var strs []types.Value
	for _, s := range []string{"", "\x00", "\x00\x00", "a", "a\x00", "abcdefgh", "abcdefgh\x00", "abcdefghi",
		"abcdefgha", "abcdefgg", "abcdefgi", "b", "\xff\xff\xff\xff\xff\xff\xff\xff\xff"} {
		strs = append(strs, types.NewString(s))
	}
	strs = append(strs, types.NullOf(types.KindString))
	// BIGINT and DOUBLE cells of one column, as a UNION ALL of the two
	// delivers them: small magnitudes, so numeric comparison stays total.
	mixed := []types.Value{types.NewInt(1), types.NewFloat(1), types.NewFloat(0.5), types.NewInt(-2), types.NewInt(0),
		types.NewFloat(math.NaN()), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.Inf(-1)), types.Null}
	return []keySpec{
		{"bigint", types.KindInt, false, ints},
		{"double", types.KindFloat, false, doubles},
		{"date", types.KindDate, false, dates},
		{"timestamp", types.KindTimestamp, false, stamps},
		{"bool", types.KindBool, false, bools},
		{"varchar", types.KindString, false, strs},
		{"boxed bigint", types.KindInt, true, ints},
		{"boxed double", types.KindFloat, true, doubles},
		{"boxed varchar", types.KindString, true, strs},
		{"boxed bigint/double", types.KindNull, true, mixed},
	}
}

// vector stores cells in a vector of the spec's layout.
func (sp keySpec) vector(cells []types.Value) *vec.Vector {
	kind := sp.kind
	if sp.boxed {
		kind = types.KindNull
	}
	v := vec.New(kind, len(cells))
	for i, c := range cells {
		v.Set(i, c)
	}
	return v
}

// requireKeyOrder sorts ids 0..n-1 by the keys through sortedCols and holds
// the order to a stable sort of the ids by types.Compare over the cells,
// key by key, a DESC key's comparison negated; and the first third of the
// ids, selected before they are sorted, to that order's first third.
func requireKeyOrder(t testing.TB, label string, keys []sortCol, cells [][]types.Value) {
	t.Helper()
	n := len(cells[0])
	var s, top sortedCols
	s.sort(keys, n, n)
	top.sort(keys, n, n/3)
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool {
		for j, k := range keys {
			c := types.Compare(cells[j][want[a]], cells[j][want[b]])
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	if len(s.order) != n || len(top.order) != n/3 {
		t.Fatalf("%s: %d ids and %d selected, want %d and %d", label, len(s.order), len(top.order), n, n/3)
	}
	for i, id := range top.order {
		if int(id) != want[i] {
			t.Fatalf("%s: selected position %d holds row %d, want row %d", label, i, id, want[i])
		}
	}
	for i, id := range s.order {
		if int(id) != want[i] {
			row := func(r int) []types.Value {
				out := make([]types.Value, len(cells))
				for j := range cells {
					out[j] = cells[j][r]
				}
				return out
			}
			t.Fatalf("%s: position %d holds row %d %v, want row %d %v", label, i, id, row(int(id)), want[i], row(want[i]))
		}
	}
}

// TestSortKeysMatchCompare holds the normalized-key sort to a stable
// types.Compare oracle, ascending and descending, over every key shape
// alone, over each shape ahead of a duplicate-heavy second key, and over
// five nullable keys, whose last does not fit a record and is ordered by
// keyOrder. Every shape but strings and the mixed boxed column is ordered
// by its words alone.
func TestSortKeysMatchCompare(t *testing.T) {
	const n = 700
	rng := rand.New(rand.NewSource(32))
	draw := func(sp keySpec) []types.Value {
		cells := make([]types.Value, n)
		for i := range cells {
			cells[i] = sp.pool[rng.Intn(len(sp.pool))]
		}
		return cells
	}
	specs := sortKeySpecs()
	for _, sp := range specs {
		cells := draw(sp)
		v := sp.vector(cells)
		if kind, _ := wordKind(v, nil, n); (kind == types.KindNull) != (sp.kind == types.KindNull) {
			t.Fatalf("%s: words encode kind %v", sp.name, kind)
		}
		for _, desc := range []bool{false, true} {
			requireKeyOrder(t, fmt.Sprintf("%s desc=%v", sp.name, desc), []sortCol{{v: v, desc: desc}}, [][]types.Value{cells})
			for _, second := range []keySpec{specs[4], specs[5]} { // bool, varchar
				cells2 := draw(second)
				keys := []sortCol{{v: v, desc: desc}, {v: second.vector(cells2), desc: !desc}}
				requireKeyOrder(t, fmt.Sprintf("%s desc=%v, %s", sp.name, desc, second.name), keys, [][]types.Value{cells, cells2})
			}
		}
	}
	var keys []sortCol
	var cells [][]types.Value
	for i, sp := range []keySpec{specs[4], specs[0], specs[5], specs[2], specs[1]} {
		c := draw(sp)
		keys, cells = append(keys, sortCol{v: sp.vector(c), desc: i%2 == 1}), append(cells, c)
	}
	requireKeyOrder(t, "five nullable keys", keys, cells)
}

// FuzzSortOrder is TestSortKeysMatchCompare over fuzzed input: the first two
// bytes pick two key shapes, and each later pair of bytes draws a row's two
// cells — from the shape's edge values, or a small value of its kind that
// ties with them.
func FuzzSortOrder(f *testing.F) {
	f.Add([]byte{0, 1, 3, 200, 7, 7, 9, 130, 255, 0, 1, 1}, false, true)
	f.Add([]byte{5, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, true, false)
	f.Add([]byte{8, 2, 128, 129, 1, 140, 3, 150, 12, 13}, true, true)
	specs := sortKeySpecs()
	f.Fuzz(func(t *testing.T, data []byte, desc0, desc1 bool) {
		if len(data) < 2 {
			return
		}
		sp := [2]keySpec{specs[int(data[0])%len(specs)], specs[int(data[1])%len(specs)]}
		data = data[2:]
		n := min(len(data)/2, 512)
		cells := [][]types.Value{make([]types.Value, n), make([]types.Value, n)}
		for r := range n {
			for j := range sp {
				cells[j][r] = fuzzCell(sp[j], data[2*r+j])
			}
		}
		keys := []sortCol{{v: sp[0].vector(cells[0]), desc: desc0}, {v: sp[1].vector(cells[1]), desc: desc1}}
		requireKeyOrder(t, sp[0].name+", "+sp[1].name, keys, cells)
	})
}

// fuzzCell is the cell byte b draws for a shape: below 128 one of its edge
// values, else a small value of its kind.
func fuzzCell(sp keySpec, b byte) types.Value {
	if b < 128 {
		return sp.pool[int(b)%len(sp.pool)]
	}
	x := int64(b&31) - 16
	switch sp.kind {
	case types.KindFloat:
		return types.NewFloat(float64(x) / 4)
	case types.KindString:
		return types.NewString("abcdefgh"[:x&7] + string(rune('a'+b&3)))
	case types.KindDate:
		return types.NewDate(x)
	case types.KindTimestamp:
		return types.NewTimestamp(x)
	case types.KindBool:
		return types.NewBool(x&1 == 1)
	case types.KindNull:
		if b&64 != 0 {
			return types.NewFloat(float64(x) / 2)
		}
	}
	return types.NewInt(x)
}

// TestSortBoundedMatchesFull holds a bounded SortOp under a LimitOp to the
// unbounded sort's rows: k ∈ {1, 7, 100, 511, 512, 513, ChunkSize, n−1, n,
// n+5} × OFFSET 0 and 5 × key sets over duplicate-heavy columns (ties
// straddle every trim, and the first k must be the earliest in input
// order) × no heap, and a 4 KB SORTHEAP under OFFSET 5 for each input's
// first key set, where every spilled run stops at the bound and sets the
// cutoff. The inputs are the generated table's scan (typed and
// dictionary-coded columns), a VALUES child whose columns hold strings
// that share their first 8 bytes, a mix of BIGINT and DOUBLE cells (boxed)
// and a unique scrambled key (rows land between the cutoff and the row
// before it), the same rows in 4 096-row batches, as a pulled shard block
// brings them (2·Bound is reached inside a batch), and a UNION ALL of a
// BIGINT and a DOUBLE column.
func TestSortBoundedMatchesFull(t *testing.T) {
	const n = 6_000
	tbl := sortTable(t, 32, n)
	rng := rand.New(rand.NewSource(32))
	boxed, perm := make([]types.Row, n), rng.Perm(n)
	for i := range boxed {
		num := types.NewInt(int64(rng.Intn(9)))
		if rng.Intn(2) == 0 {
			num = types.NewFloat(float64(rng.Intn(17)) / 2)
		}
		boxed[i] = types.Row{types.NewString(fmt.Sprintf("shared prefix %02d", rng.Intn(40))), num, types.NewInt(int64(perm[i]))}
	}
	boxedSch := types.Schema{{Name: "s", Kind: types.KindString}, {Name: "v", Nullable: true}, {Name: "p", Kind: types.KindInt}}
	// A UNION ALL of the DOUBLE and the BIGINT column: batches of either
	// payload kind in one column, so the cutoff's kind (a DOUBLE, from the
	// first trim) is not the later batches'.
	rows := tableRows(t, tbl)
	pick := func(c int) Operator {
		return &ProjectOp{Child: scanCodes(tbl, 1), Exprs: []Expr{ColRef(c), ColRef(0)},
			Out: types.Schema{{Name: "v", Nullable: true}, {Name: "id", Kind: types.KindInt}}}
	}
	unionRows := append(oracleProject(t, rows, []Expr{ColRef(2), ColRef(0)}), oracleProject(t, rows, []Expr{ColRef(1), ColRef(0)})...)
	inputs := []struct {
		name    string
		child   func() Operator
		rows    []types.Row
		keySets [][]SortKey
	}{
		{"scan", func() Operator { return scanCodes(tbl, 1) }, rows, [][]SortKey{
			{{Expr: ColRef(1)}},
			{{Expr: ColRef(2), Desc: true}, {Expr: ColRef(3)}},
			{{Expr: ColRef(3), Desc: true}, {Expr: ColRef(4)}},
		}},
		{"values", func() Operator { return NewValues(boxedSch, boxed) }, boxed, [][]SortKey{
			{{Expr: ColRef(0), Desc: true}},
			{{Expr: ColRef(1)}, {Expr: ColRef(0)}},
			{{Expr: ColRef(2)}},
			{{Expr: ColRef(1), Desc: true}, {Expr: ColRef(2)}},
		}},
		{"blocks", func() Operator {
			var blocks []*vec.Batch
			for a := 0; a < n; a += 4096 {
				b := min(a+4096, n)
				blocks = append(blocks, vec.FromRows(boxedSch, boxed[a:b:b]))
			}
			return NewBatches(boxedSch, blocks)
		}, boxed, [][]SortKey{
			{{Expr: ColRef(2), Desc: true}},
			{{Expr: ColRef(1)}, {Expr: ColRef(0)}},
		}},
		{"union", func() Operator { return &UnionAllOp{Children: []Operator{pick(2), pick(1)}} }, unionRows, [][]SortKey{
			{{Expr: ColRef(0)}},
			{{Expr: ColRef(0), Desc: true}, {Expr: ColRef(1), Desc: true}},
		}},
	}
	for _, in := range inputs {
		for ks, keys := range in.keySets {
			full := oracleSort(t, in.rows, keys)
			for _, k := range []int{1, 7, 100, 511, 512, 513, ChunkSize, n - 1, n, n + 5} {
				for _, off := range []int{0, 5} {
					heaps := []int64{0, 4 << 10}
					if ks > 0 || off == 0 {
						heaps = heaps[:1] // a spill makes a file every few rows
					}
					for _, heap := range heaps {
						label := fmt.Sprintf("%s, %d keys, k %d, offset %d, heap %d", in.name, len(keys), k, off, heap)
						var gov *mem.Governor
						dir := ""
						if heap > 0 {
							gov, _, dir = tinyGov(t, heap)
						}
						sortOp := &SortOp{Child: in.child(), Keys: keys, Gov: gov, Bound: off + k}
						got, err := Drain(&LimitOp{Child: sortOp, Offset: int64(off), Limit: int64(k)})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						requireSameOrder(t, label, got, full[min(off, len(full)):min(off+k, len(full))])
						if dir != "" {
							requireNoSpillFiles(t, dir)
						}
					}
				}
			}
		}
	}
}

// sortBenchTable is the benchmark's sort input: 22 000 transactions with a
// BIGINT txn_id and a DOUBLE amount in cents.
func sortBenchTable(tb testing.TB) (*columnar.Table, []types.Row) {
	const n = 22_000
	sch := types.Schema{{Name: "txn_id", Kind: types.KindInt}, {Name: "amount", Kind: types.KindFloat}}
	tbl := columnar.NewTable(772, "transactions", sch, columnar.Config{})
	rng := rand.New(rand.NewSource(32))
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i) * 7919 % n), types.NewFloat(float64(rng.Intn(200_000)) / 100)}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		tb.Fatal(err)
	}
	return tbl, rows
}

// BenchmarkSortKeys times the benchmark's sort and topk shape, ORDER BY
// amount DESC, txn_id over 22 000 rows, in full and FETCH FIRST 100, over
// a columnar scan's columns and the same rows through VALUES.
func BenchmarkSortKeys(b *testing.B) {
	tbl, rows := sortBenchTable(b)
	sch := types.Schema{{Name: "txn_id", Kind: types.KindInt}, {Name: "amount", Kind: types.KindFloat}}
	keys := []SortKey{{Expr: ColRef(1), Desc: true}, {Expr: ColRef(0)}}
	inputs := []struct {
		name  string
		child func() Operator
	}{
		{"typed", func() Operator { return scanDop(tbl, 1) }},
		{"values", func() Operator { return NewValues(sch, rows) }},
	}
	for _, in := range inputs {
		for _, limit := range []int{-1, 100} {
			name := in.name + "/full"
			if limit > 0 {
				name = in.name + "/top100"
			}
			b.Run(name, func(b *testing.B) {
				for range b.N {
					var op Operator = &SortOp{Child: in.child(), Keys: keys, Bound: max(limit, 0)}
					if limit > 0 {
						op = &LimitOp{Child: op, Limit: int64(limit)}
					}
					if _, err := Drain(op); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
