package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/types"
)

// dictSchema is the compressed-execution property-test shape: a
// low-cardinality string column and a wide-span low-cardinality int
// column (both adopt FREQ-DICT at load analysis), a float payload that
// the executor must never run in code space (NaN gate), and a plain id.
func dictSchema() types.Schema {
	return types.Schema{
		{Name: "g", Kind: types.KindString, Nullable: true},
		{Name: "k", Kind: types.KindInt, Nullable: true},
		{Name: "f", Kind: types.KindFloat, Nullable: true},
		{Name: "id", Kind: types.KindInt},
	}
}

var dictRegions = []string{"north", "south", "east", "west", "axis", "rim"}

// dictRows generates n rows over a small value domain with ~10% NULL keys
// and occasional NaN floats. When extend is true the tail of the data
// introduces values absent from the leading analysis sample, growing the
// dictionary's unsorted extension region so ordered predicates take the
// residual-recheck path.
func dictRows(rng *rand.Rand, n int, extend bool) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		g := types.NewString(dictRegions[rng.Intn(4)])
		if extend && i > n/2 && rng.Intn(8) == 0 {
			g = types.NewString(dictRegions[4+rng.Intn(2)])
		}
		if rng.Intn(10) == 0 {
			g = types.Null
		}
		k := types.NewInt(int64(rng.Intn(5)) * 1_000_000_000_000) // span > 2^32 forces FREQ-DICT
		if extend && i > n/2 && rng.Intn(8) == 0 {
			k = types.NewInt(int64(5+rng.Intn(3)) * 1_000_000_000_000)
		}
		if rng.Intn(10) == 0 {
			k = types.Null
		}
		f := types.NewFloat(float64(rng.Intn(100)) * 1.5)
		switch rng.Intn(17) {
		case 0:
			f = types.NewFloat(math.NaN())
		case 1:
			f = types.Null
		}
		rows[i] = types.Row{g, k, f, types.NewInt(int64(i))}
	}
	return rows
}

// dictTable loads rows batch-first so analysis adopts dictionary encoders
// for g and k, and fails the test if it did not (the whole point of this
// suite is the code path).
func dictTable(t testing.TB, id uint32, rows []types.Row) *columnar.Table {
	t.Helper()
	tbl := columnar.NewTable(id, fmt.Sprintf("dt%d", id), dictSchema(), columnar.Config{})
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) > 0 {
		if tbl.ColumnDict(0) == nil || tbl.ColumnDict(1) == nil {
			t.Fatalf("analysis did not pick FREQ-DICT: g=%s k=%s", tbl.ColumnEncoding(0), tbl.ColumnEncoding(1))
		}
		if tbl.ColumnDict(2) != nil {
			t.Fatal("float column must never be code-eligible (NaN gate)")
		}
	}
	return tbl
}

// compressedFilterPreds enumerates the predicate shapes the code-space
// filter must answer identically to the value kernels: point and range
// lookups, complements, out-of-domain constants, NULL comparands, OR
// unions, AND narrowing with a residual value-kernel right side, and an
// all-false selection.
func compressedFilterPreds() map[string]Expr {
	sc := func(op encoding.CmpOp, s string) Expr {
		return &CmpExpr{Op: op, L: ColRef(0), R: Const{V: types.NewString(s)}}
	}
	kc := func(op encoding.CmpOp, k int64) Expr {
		return &CmpExpr{Op: op, L: ColRef(1), R: Const{V: types.NewInt(k)}}
	}
	return map[string]Expr{
		"str-eq":        sc(encoding.OpEQ, "north"),
		"str-ne":        sc(encoding.OpNE, "north"),
		"str-ge":        sc(encoding.OpGE, "south"), // spans the extension region
		"str-lt":        sc(encoding.OpLT, "east"),
		"str-absent-eq": sc(encoding.OpEQ, "nowhere"),
		"str-absent-ne": sc(encoding.OpNE, "nowhere"), // All: every non-NULL row
		"str-null-cmp":  &CmpExpr{Op: encoding.OpEQ, L: ColRef(0), R: Const{V: types.Null}},
		"flipped-const": &CmpExpr{Op: encoding.OpLT, L: Const{V: types.NewString("south")}, R: ColRef(0)},
		"int-eq":        kc(encoding.OpEQ, 2_000_000_000_000),
		"int-range":     kc(encoding.OpGT, 1_000_000_000_000),
		"or-union":      &OrExpr{L: sc(encoding.OpEQ, "west"), R: kc(encoding.OpEQ, 0)},
		"and-narrow": &AndExpr{L: sc(encoding.OpNE, "east"),
			R: &CmpExpr{Op: encoding.OpGT, L: ColRef(2), R: Const{V: types.NewFloat(30)}}}, // float side falls back
		"mixed-kind-falls-back": &CmpExpr{Op: encoding.OpGT, L: ColRef(1), R: Const{V: types.NewFloat(0.5)}},
		"all-false":             sc(encoding.OpLT, "aaaa"),
	}
}

// TestCompressedFilterParity is the core row-vs-code property: every
// predicate shape, run compressed and decoded, across dop 1/2/8, must
// select identical multisets — and the compressed plans must actually
// have exercised the code path.
func TestCompressedFilterParity(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		rng := rand.New(rand.NewSource(seed))
		tbl := dictTable(t, uint32(500+seed), dictRows(rng, 6000, true))
		for name, pred := range compressedFilterPreds() {
			for _, dop := range []int{1, 2, 8} {
				mk := func(compressed bool) Operator {
					return VectorizeMode(&FilterOp{Child: scanDop(tbl, dop), Pred: pred}, compressed)
				}
				comp := mk(true)
				ctx := fmt.Sprintf("seed=%d pred=%s dop=%d", seed, name, dop)
				requireEqualKeys(t, ctx, sortedKeys(t, mk(false)), sortedKeys(t, comp))
				if name != "mixed-kind-falls-back" && name != "str-null-cmp" {
					if ra, ok := comp.(*RowAdapter); ok {
						if fo := findVecFilter(ra.Inner); fo != nil && fo.CodeRows.Load() == 0 {
							t.Fatalf("%s: predicate never took the code path", ctx)
						}
					}
				}
			}
		}
	}
}

// findVecFilter digs the filter out of a vectorized plan.
func findVecFilter(v VecOperator) *VecFilterOp {
	switch o := v.(type) {
	case *VecFilterOp:
		return o
	case *VecLimitOp:
		return findVecFilter(o.Child)
	case *VecStatsOp:
		return findVecFilter(o.Child)
	}
	return nil
}

// TestCompressedFilterEmptyTable covers the zero-batch path.
func TestCompressedFilterEmptyTable(t *testing.T) {
	empty := dictTable(t, 520, nil)
	op := VectorizeMode(&FilterOp{Child: NewScan(empty, nil, nil),
		Pred: &CmpExpr{Op: encoding.OpEQ, L: ColRef(0), R: Const{V: types.NewString("north")}}}, true)
	rows, err := Drain(op)
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty table: rows=%d err=%v", len(rows), err)
	}
}

// TestCompressedJoinParity checks code-keyed and decoded hash joins against
// the nested-loop oracle: shared dictionaries (self-join, identity codes),
// mismatched dictionaries (two tables, overlapping and disjoint domains,
// exercising the remap cache and out-of-domain probe misses), both INNER
// and LEFT (unmatched padding).
func TestCompressedJoinParity(t *testing.T) {
	// Key cardinality is tiny (6×8 combinations), so join fan-out is
	// quadratic in input size — keep the inputs small.
	rng := rand.New(rand.NewSource(11))
	build := dictTable(t, 530, dictRows(rng, 500, true))
	probe := dictTable(t, 531, dictRows(rng, 600, true)) // own dict; extension order differs
	for _, tc := range []struct {
		name        string
		left, right *columnar.Table
	}{
		{"shared-dict", build, build},
		{"mismatched-dict", probe, build},
	} {
		for _, jt := range []JoinType{InnerJoin, LeftJoin} {
			mk := func(compressed bool) Operator {
				j := &HashJoinOp{
					Left:      VectorizeMode(NewScan(tc.left, nil, nil), compressed),
					Right:     VectorizeMode(NewScan(tc.right, nil, nil), compressed),
					LeftKeys:  []int{0, 1},
					RightKeys: []int{0, 1},
					Type:      jt,
				}
				return j
			}
			comp := mk(true)
			want := sortedRowKeys(nestedLoopJoin(tableRows(t, tc.left), tableRows(t, tc.right), []int{0, 1}, []int{0, 1}, jt, dictSchema()))
			ctx := fmt.Sprintf("%s/%v", tc.name, jt)
			requireEqualKeys(t, ctx+" compressed", want, sortedKeys(t, comp))
			requireEqualKeys(t, ctx+" decoded", want, sortedKeys(t, mk(false)))
			if n := comp.(*HashJoinOp).CodeKeyCount(); n != 2 {
				t.Fatalf("%s: code keys = %d, want 2", ctx, n)
			}
		}
	}
}

// TestCompressedJoinSpillParity forces a mid-query Grace spill under a
// tiny hash heap and requires the spilled compressed join and the decoded
// in-memory join to both return the nested-loop oracle's rows (parked probe
// rows re-translate at drain).
func TestCompressedJoinSpillParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	build := dictTable(t, 540, dictRows(rng, 300, true))
	probe := dictTable(t, 541, dictRows(rng, 360, true))
	for _, jt := range []JoinType{InnerJoin, LeftJoin} {
		mk := func(compressed bool, gov *mem.Governor) *HashJoinOp {
			return &HashJoinOp{
				Left:      VectorizeMode(NewScan(probe, nil, nil), compressed),
				Right:     VectorizeMode(NewScan(build, nil, nil), compressed),
				LeftKeys:  []int{0},
				RightKeys: []int{0},
				Type:      jt,
				Gov:       gov,
			}
		}
		want := sortedRowKeys(nestedLoopJoin(tableRows(t, probe), tableRows(t, build), []int{0}, []int{0}, jt, dictSchema()))
		requireEqualKeys(t, fmt.Sprintf("decoded/%v", jt), want, sortedKeys(t, mk(false, nil)))

		g, _, _ := tinyGov(t, 8<<10)
		jo := mk(true, g)
		got := sortedKeys(t, jo)
		if runs, bytes := jo.SpillStats(); runs == 0 || bytes == 0 {
			t.Fatalf("%v: expected forced spill, got runs=%d bytes=%d", jt, runs, bytes)
		}
		requireEqualKeys(t, fmt.Sprintf("spill/%v", jt), want, got)
	}
}

// TestCompressedGroupByParity checks aggregation grouping on codes
// against the decoded path, including NULL groups, multi-key grouping, a
// mid-query spill, and dop 1/2/8. Emitted keys must be the decoded values
// in decoded order.
func TestCompressedGroupByParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows := dictRows(rng, 8000, true)
	tbl := dictTable(t, 550, rows)
	mkAggs := func() []AggSpec {
		return []AggSpec{
			{Func: AggCountStar, Name: "cnt"},
			{Func: AggSum, Arg: ColRef(2), Name: "sum"},
			{Func: AggMin, Arg: ColRef(3), Name: "min"},
			{Func: AggMax, Arg: ColRef(3), Name: "max"},
		}
	}
	gcols := types.Schema{
		{Name: "g", Kind: types.KindString, Nullable: true},
		{Name: "k", Kind: types.KindInt, Nullable: true},
	}

	// Serial, vector-ingesting GroupBy over a compressed vs decoded scan.
	mkSerial := func(compressed bool) *GroupByOp {
		return &GroupByOp{
			Child:     VectorizeMode(NewScan(tbl, nil, nil), compressed),
			GroupBy:   []Expr{ColRef(0), ColRef(1)},
			GroupCols: gcols,
			Aggs:      mkAggs(),
		}
	}
	comp := mkSerial(true)
	got := sortedKeys(t, comp)
	requireEqualKeys(t, "serial", sortedKeys(t, mkSerial(false)), got)
	if comp.CodeKeyCount() != 2 {
		t.Fatalf("serial: code keys = %d, want 2", comp.CodeKeyCount())
	}

	// Serial with a forced spill: group states carrying code-valued key
	// cells round-trip through the spill codec as plain ints.
	g, _, _ := tinyGov(t, 8<<10)
	sp := mkSerial(true)
	sp.Gov = g
	spilled := sortedKeys(t, sp)
	if runs, _ := sp.SpillStats(); runs == 0 {
		t.Fatal("expected forced group-by spill")
	}
	requireEqualKeys(t, "serial-spill", got, spilled)

	// Several workers, one code-key adoption shared by all of them.
	for _, dop := range []int{1, 2, 8} {
		mkPar := func(compressed bool) *GroupByOp {
			return atDop(&GroupByOp{
				Child:     NewScan(tbl, nil, nil),
				GroupBy:   []Expr{ColRef(0), ColRef(1)},
				GroupCols: gcols,
				Aggs:      mkAggs(),
			}, dop, compressed)
		}
		pc := mkPar(true)
		pg := sortedKeys(t, pc)
		requireEqualKeys(t, fmt.Sprintf("parallel dop=%d", dop), got, pg)
		if pc.CodeKeyCount() != 2 {
			t.Fatalf("parallel dop=%d: code keys = %d, want 2", dop, pc.CodeKeyCount())
		}
		// Emit order is sorted by key; codes must have decoded before
		// that sort, so the order must match the decoded plan's.
		a, err := Drain(mkPar(true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Drain(mkPar(false))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rowsKeys(a), rowsKeys(b)) {
			t.Fatalf("parallel dop=%d: emit order diverged", dop)
		}
	}
}

func rowsKeys(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowKey(r)
	}
	return out
}

// TestCompressedGroupByNaNFloatStaysDecoded pins the NaN gate: grouping
// on a float column must never adopt codes even when the column's
// encoder is a dictionary, because NaN breaks the value↔code bijection.
func TestCompressedGroupByNaNFloatStaysDecoded(t *testing.T) {
	rows := make([]types.Row, 400)
	for i := range rows {
		f := types.NewFloat(math.NaN()) // NaN-heavy: analysis picks the dict fallback
		if i%3 == 0 {
			f = types.NewFloat(float64(i % 5))
		}
		rows[i] = types.Row{types.NewString(dictRegions[i%3]), types.NewInt(0), f, types.NewInt(int64(i))}
	}
	tbl := columnar.NewTable(560, "nan", dictSchema(), columnar.Config{})
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if tbl.ColumnDict(2) != nil {
		t.Fatal("NaN gate must reject float dictionaries")
	}
	mk := func(compressed bool) *GroupByOp {
		return &GroupByOp{
			Child:     VectorizeMode(NewScan(tbl, nil, nil), compressed),
			GroupBy:   []Expr{ColRef(2)},
			GroupCols: types.Schema{{Name: "f", Kind: types.KindFloat, Nullable: true}},
			Aggs:      []AggSpec{{Func: AggCountStar, Name: "cnt"}},
		}
	}
	comp := mk(true)
	got := sortedKeys(t, comp)
	if comp.CodeKeyCount() != 0 {
		t.Fatal("float group key ran in code space")
	}
	requireEqualKeys(t, "nan-group", sortedKeys(t, mk(false)), got)
}
