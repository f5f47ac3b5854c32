package exec

import (
	"fmt"
	"math"
	"math/rand"
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

// hasDict reports whether column ci of tbl's current epoch is eligible
// for code-space execution.
func hasDict(tbl *columnar.Table, ci int) bool {
	snap := tbl.Snapshot()
	defer snap.Release()
	return snap.ColumnDict(ci) != nil
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
		if !hasDict(tbl, 0) || !hasDict(tbl, 1) {
			t.Fatalf("analysis did not pick FREQ-DICT: %+v", tbl.ColumnCompressionReport())
		}
		if hasDict(tbl, 2) {
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

// TestCompressedFilterParity is the core code-space property: every
// predicate shape, run compressed and decoded, across dop 1/2/8, must
// select the multiset a plain loop over Expr.Eval selects — and the
// compressed plans must actually have exercised the code path.
func TestCompressedFilterParity(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		rng := rand.New(rand.NewSource(seed))
		tbl := dictTable(t, uint32(500+seed), dictRows(rng, 6000, true))
		rows := tableRows(t, tbl)
		for name, pred := range compressedFilterPreds() {
			want := sortedRowKeys(oracleFilter(t, rows, pred))
			for _, dop := range []int{1, 2, 8} {
				ctx := fmt.Sprintf("seed=%d pred=%s dop=%d", seed, name, dop)
				requireEqualKeys(t, ctx+" decoded", want, sortedKeys(t, &FilterOp{Child: scanDop(tbl, dop), Pred: pred}))
				comp := &FilterOp{Child: scanCodes(tbl, dop), Pred: pred}
				requireEqualKeys(t, ctx+" compressed", want, sortedKeys(t, comp))
				if name != "mixed-kind-falls-back" && name != "str-null-cmp" && comp.CodeRows.Load() == 0 {
					t.Fatalf("%s: predicate never took the code path", ctx)
				}
			}
		}
	}
}

// TestCompressedFilterEmptyTable covers the zero-batch path.
func TestCompressedFilterEmptyTable(t *testing.T) {
	empty := dictTable(t, 520, nil)
	op := &FilterOp{Child: scanCodes(empty, 1),
		Pred: &CmpExpr{Op: encoding.OpEQ, L: ColRef(0), R: Const{V: types.NewString("north")}}}
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
			mk := func(scan func(*columnar.Table, int) *ScanOp) Operator {
				return &HashJoinOp{
					Left:      scan(tc.left, 1),
					Right:     scan(tc.right, 1),
					LeftKeys:  []int{0, 1},
					RightKeys: []int{0, 1},
					Type:      jt,
				}
			}
			comp := mk(scanCodes)
			want := sortedRowKeys(nestedLoopJoin(tableRows(t, tc.left), tableRows(t, tc.right), []int{0, 1}, []int{0, 1}, jt, dictSchema(), nil))
			ctx := fmt.Sprintf("%s/%v", tc.name, jt)
			requireEqualKeys(t, ctx+" compressed", want, sortedKeys(t, comp))
			requireEqualKeys(t, ctx+" decoded", want, sortedKeys(t, mk(scanDop)))
			if n := comp.(*HashJoinOp).CodeKeyCount(); n != 2 {
				t.Fatalf("%s: code keys = %d, want 2", ctx, n)
			}
		}
	}
}

// TestCompressedJoinSpillParity forces a mid-query Grace spill under a
// tiny hash heap and requires the spilled compressed join and the decoded
// in-memory join to both return the nested-loop oracle's rows (parked probe
// rows re-translate at drain), keyed on the dictionary-coded string, the
// dictionary-coded integer and both.
func TestCompressedJoinSpillParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	build := dictTable(t, 540, dictRows(rng, 300, true))
	probe := dictTable(t, 541, dictRows(rng, 360, true))
	for _, keys := range [][]int{{0}, {1}, {0, 1}} {
		for _, jt := range []JoinType{InnerJoin, LeftJoin} {
			mk := func(scan func(*columnar.Table, int) *ScanOp, gov *mem.Governor) *HashJoinOp {
				return &HashJoinOp{
					Left:      scan(probe, 1),
					Right:     scan(build, 1),
					LeftKeys:  keys,
					RightKeys: keys,
					Type:      jt,
					Gov:       gov,
				}
			}
			want := sortedRowKeys(nestedLoopJoin(tableRows(t, probe), tableRows(t, build), keys, keys, jt, dictSchema(), nil))
			requireEqualKeys(t, fmt.Sprintf("decoded/%v/%v", keys, jt), want, sortedKeys(t, mk(scanDop, nil)))

			g, _, _ := tinyGov(t, 8<<10)
			jo := mk(scanCodes, g)
			got := sortedKeys(t, jo)
			if runs, bytes := jo.SpillStats(); runs == 0 || bytes == 0 {
				t.Fatalf("%v/%v: expected forced spill, got runs=%d bytes=%d", keys, jt, runs, bytes)
			}
			if jo.CodeKeyCount() != len(keys) {
				t.Fatalf("%v/%v: %d code keys", keys, jt, jo.CodeKeyCount())
			}
			requireEqualKeys(t, fmt.Sprintf("spill/%v/%v", keys, jt), want, got)
		}
	}
}

// TestCompressedGroupByParity checks aggregation grouping on codes and on
// values decoded at the scan against the sort-based oracle, including NULL
// groups, multi-key grouping, a mid-query spill, and dop 1/2/8. Emitted
// keys must be the decoded values in decoded order.
func TestCompressedGroupByParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tbl := dictTable(t, 550, dictRows(rng, 8000, true))
	aggs := []AggSpec{
		{Func: AggCountStar, Name: "cnt"},
		{Func: AggSum, Arg: ColRef(2), Name: "sum"},
		{Func: AggMin, Arg: ColRef(3), Name: "min"},
		{Func: AggMax, Arg: ColRef(3), Name: "max"},
	}
	keys := []Expr{ColRef(0), ColRef(1)}
	gcols := types.Schema{
		{Name: "g", Kind: types.KindString, Nullable: true},
		{Name: "k", Kind: types.KindInt, Nullable: true},
	}
	want := oracleGroupBy(t, tableRows(t, tbl), keys, aggs)
	mk := func(scan *ScanOp, gov *mem.Governor) *GroupByOp {
		return &GroupByOp{Child: scan, GroupBy: keys, GroupCols: gcols, Aggs: aggs, Dop: scan.Dop, Gov: gov}
	}
	// The float SUM reassociates across workers and spill runs; everything
	// else, and the emit order (codes decode before the emit sort), is exact.
	check := func(label string, g *GroupByOp, codeKeys int) {
		t.Helper()
		got, err := Drain(g)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameRows(t, label, got, want)
		if g.CodeKeyCount() != codeKeys {
			t.Fatalf("%s: code keys = %d, want %d", label, g.CodeKeyCount(), codeKeys)
		}
	}
	for _, dop := range []int{1, 2, 8} {
		check(fmt.Sprintf("compressed dop=%d", dop), mk(scanCodes(tbl, dop), nil), 2)
		check(fmt.Sprintf("decoded dop=%d", dop), mk(scanDop(tbl, dop), nil), 0)
	}
	// A forced spill: groups carrying code-valued key cells round-trip
	// through the spill codec as plain ints. 2 KB denies the 63-id direct
	// table (3.7 KB of lanes), so the table hashes its two code words.
	gov, _, _ := tinyGov(t, 2<<10)
	sp := mk(scanCodes(tbl, 1), gov)
	check("serial-spill", sp, 2)
	if runs, _ := sp.SpillStats(); runs == 0 {
		t.Fatal("expected forced group-by spill")
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
	if hasDict(tbl, 2) {
		t.Fatal("NaN gate must reject float dictionaries")
	}
	keys, aggs := []Expr{ColRef(2)}, []AggSpec{{Func: AggCountStar, Name: "cnt"}}
	comp := &GroupByOp{
		Child:     scanCodes(tbl, 1),
		GroupBy:   keys,
		GroupCols: types.Schema{{Name: "f", Kind: types.KindFloat, Nullable: true}},
		Aggs:      aggs,
	}
	got := sortedKeys(t, comp)
	if comp.CodeKeyCount() != 0 {
		t.Fatal("float group key ran in code space")
	}
	requireEqualKeys(t, "nan-group", sortedRowKeys(oracleGroupBy(t, rows, keys, aggs)), got)
}

// TestCountDistinctAgreesWithGroupBy: COUNT(DISTINCT f) keys its set on the
// canonical cell form the group table keys a group on, so it counts exactly
// the groups GROUP BY f makes — one NaN, +0 and -0 together, 3 and 3.0
// together, NULL not at all — whether f arrives typed or boxed.
func TestCountDistinctAgreesWithGroupBy(t *testing.T) {
	nan := types.NewFloat(math.NaN())
	vals := []types.Value{nan, nan, types.NewFloat(1.5), types.NewFloat(-2), types.NewFloat(7),
		types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NullOf(types.KindFloat), nan}
	sch := types.Schema{{Name: "f", Kind: types.KindFloat, Nullable: true}}
	var rows []types.Row
	for _, v := range vals {
		rows = append(rows, types.Row{v})
	}
	tbl := columnar.NewTable(561, "nan_distinct", sch, columnar.Config{})
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	boxed := append([]types.Row{{types.NewInt(7)}}, rows...) // an INT 7 beside DOUBLE 7: one value
	for name, child := range map[string]func() Operator{
		"typed": func() Operator { return scanCodes(tbl, 1) },
		"boxed": func() Operator { return NewValues(sch, boxed) },
	} {
		groups, err := Drain(&GroupByOp{Child: child(), GroupBy: []Expr{ColRef(0)}, GroupCols: sch})
		if err != nil {
			t.Fatal(err)
		}
		cd, err := Drain(&GroupByOp{Child: child(), Aggs: []AggSpec{{Func: AggCountDistinct, Arg: ColRef(0), Name: "cd"}}})
		if err != nil {
			t.Fatal(err)
		}
		// {NaN, 1.5, -2, 7, 0} and the NULL group, which COUNT skips.
		if len(groups) != 6 || cd[0][0].Int() != 5 {
			t.Fatalf("%s: GROUP BY f makes %d groups (want 6), COUNT(DISTINCT f) = %v (want 5)", name, len(groups), cd[0][0])
		}
	}
}
