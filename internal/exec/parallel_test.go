package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/page"
	"dashdb/internal/types"
)

// buildAggTable loads rows with a NULL-bearing group column, an integer
// measure whose running sum leaves int64 while every group's total fits
// (runs of four rows of one group carry +2^62, +2^62, -2^62, -2^62 plus
// noise, so a prefix, a worker's partial or a spilled partial overflows and
// the 128-bit lane must carry it), and an exactly-representable float
// measure (halves, so partial float sums reassociate without rounding).
func buildAggTable(t testing.TB, rng *rand.Rand, n int) *columnar.Table {
	t.Helper()
	schema := types.Schema{
		{Name: "g", Kind: types.KindInt, Nullable: true},
		{Name: "v", Kind: types.KindInt, Nullable: true},
		{Name: "f", Kind: types.KindFloat},
	}
	tbl := columnar.NewTable(7, "agg_src", schema, columnar.Config{})
	rows := make([]types.Row, 0, n)
	var g, f types.Value
	for i := 0; i < n; i++ {
		big := i < n/4*4 && (i/4)%2 == 0 // every other run of four: one group, one f, so a filter on f keeps or drops it whole
		if !big || i%4 == 0 {
			g = types.NewInt(int64(rng.Intn(11)))
			if rng.Intn(9) == 0 {
				g = types.Null // NULL groups collapse into one group, per SQL
			}
			f = types.NewFloat(float64(rng.Intn(4096)) * 0.5)
		}
		v := types.NewInt(int64(rng.Intn(1_000_000)))
		switch {
		case big && i%4 < 2:
			v = types.NewInt(v.Int() + 1<<62)
		case big:
			v = types.NewInt(v.Int() - 1<<62)
		case rng.Intn(7) == 0:
			v = types.Null
		}
		rows = append(rows, types.Row{g, v, f})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func aggSpecs() []AggSpec {
	return []AggSpec{
		{Func: AggCountStar, Name: "CNT"},
		{Func: AggCount, Arg: ColRef(1), Name: "CNT_V"},
		{Func: AggCountDistinct, Arg: ColRef(0), Name: "CNT_DG"},
		{Func: AggSum, Arg: ColRef(1), Name: "SUM_V"},
		{Func: AggSum, Arg: ColRef(2), Name: "SUM_F"},
		{Func: AggAvg, Arg: ColRef(2), Name: "AVG_F"},
		{Func: AggMin, Arg: ColRef(1), Name: "MIN_V"},
		{Func: AggMax, Arg: ColRef(1), Name: "MAX_V"},
	}
}

// sortedRows canonicalizes a result set for order-insensitive comparison.
func sortedRows(rows []types.Row) []types.Row {
	out := append([]types.Row(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			an, bn := a[k].IsNull(), b[k].IsNull()
			if an != bn {
				return an
			}
			if an {
				continue
			}
			if c := types.Compare(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// atDop turns a group-by over a bare ScanOp into the plan the compiler
// builds at that degree: Dop on the operator and on its scan, dictionary
// columns emitted as codes.
func atDop(g *GroupByOp, dop int) *GroupByOp {
	scan := g.Child.(*ScanOp)
	g.Dop, scan.Dop = dop, dop
	scan.EnableCompressed()
	return g
}

// predExpr restates pushed-down scan predicates as the conjunction the
// oracles evaluate.
func predExpr(preds []columnar.Pred) Expr {
	var e Expr = Const{V: types.NewBool(true)}
	for _, p := range preds {
		e = &AndExpr{L: e, R: cmpExpr(p.Col, p.Op, p.Val)}
	}
	return e
}

// TestParallelGroupByMatchesSerial is the aggregate-merge correctness
// property: for random data (NULL groups, overflow-prone SUMs) ingest on Dop
// workers must produce exactly the sort-based oracle's rows at every dop.
func TestParallelGroupByMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2*page.StrideSize + rng.Intn(3*page.StrideSize) // sealed strides + open remainder
		tbl := buildAggTable(t, rng, n)
		groupBy := []Expr{ColRef(0)}
		groupCols := types.Schema{{Name: "g", Kind: types.KindInt, Nullable: true}}
		var preds []columnar.Pred
		if seed%2 == 0 { // alternate: exercise predicate pushdown under parallel workers
			preds = []columnar.Pred{{Col: 2, Op: encoding.OpGE, Val: types.NewFloat(100)}}
		}

		mk := func() *GroupByOp {
			return &GroupByOp{
				Child:     NewScan(tbl, preds, nil),
				GroupBy:   groupBy,
				GroupCols: groupCols,
				Aggs:      aggSpecs(),
			}
		}
		want := oracleGroupBy(t, oracleFilter(t, tableRows(t, tbl), predExpr(preds)), groupBy, aggSpecs())

		for _, dop := range []int{1, 2, 8} {
			par := atDop(mk(), dop)
			if w := par.Workers(); w != dop {
				t.Fatalf("seed %d dop %d: %d ingest workers", seed, dop, w)
			}
			got, err := Drain(par)
			if err != nil {
				t.Fatalf("seed %d dop %d: %v", seed, dop, err)
			}
			requireExactRows(t, fmt.Sprintf("seed %d dop %d", seed, dop), got, want)
		}
	}
}

// TestParallelGroupByGlobal covers the no-GROUP-BY global aggregate,
// including the one-row-over-empty-input rule.
func TestParallelGroupByGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tbl := buildAggTable(t, rng, 3*page.StrideSize+100)
	want := oracleGroupBy(t, tableRows(t, tbl), nil, aggSpecs())
	for _, dop := range []int{1, 2, 8} {
		got, err := Drain(atDop(&GroupByOp{Child: NewScan(tbl, nil, nil), Aggs: aggSpecs()}, dop))
		if err != nil {
			t.Fatal(err)
		}
		requireExactRows(t, fmt.Sprintf("global aggregate, dop %d", dop), got, want)
	}

	empty := columnar.NewTable(8, "empty", types.Schema{{Name: "x", Kind: types.KindInt}}, columnar.Config{})
	got, err := Drain(atDop(&GroupByOp{Child: NewScan(empty, nil, nil), Aggs: []AggSpec{{Func: AggCountStar, Name: "CNT"}}}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Int() != 0 {
		t.Fatalf("empty global aggregate: %v", got)
	}
}

// TestMergeableAggs pins the one-worker fallback set.
func TestMergeableAggs(t *testing.T) {
	ok := aggSpecs()
	if !MergeableAggs(ok) {
		t.Fatal("count/sum/avg/min/max family must be mergeable")
	}
	for _, f := range []AggFunc{AggMedian, AggPercentileCont, AggPercentileDisc} {
		if MergeableAggs([]AggSpec{{Func: f}}) {
			t.Fatalf("agg func %d must fall back to the serial path", f)
		}
		g := atDop(&GroupByOp{Child: NewScan(columnar.NewTable(9, "m", types.Schema{{Name: "x", Kind: types.KindInt}}, columnar.Config{}), nil, nil),
			Aggs: []AggSpec{{Func: f, Arg: ColRef(0)}}}, 4)
		if g.Workers() != 1 {
			t.Fatalf("agg func %d must ingest on one worker", f)
		}
	}
}

// TestParallelScanOp checks the serial and the Dop>1 ScanOp produce the
// multiset of rows the table holds under the pushed-down predicate.
func TestParallelScanOp(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := buildAggTable(t, rng, 4*page.StrideSize+50)
	preds := []columnar.Pred{{Col: 2, Op: encoding.OpLT, Val: types.NewFloat(1000)}}
	want := sortedRows(oracleFilter(t, tableRows(t, tbl), predExpr(preds)))
	for _, dop := range []int{1, 4} {
		scan := NewScan(tbl, preds, nil)
		scan.Dop = dop
		got, err := Drain(scan)
		if err != nil {
			t.Fatal(err)
		}
		requireExactRows(t, fmt.Sprintf("scan dop %d", dop), sortedRows(got), want)
	}
}

// sameRows requires two result sets to agree row for row, in order:
// integers, strings and NULLs exactly, floats to 1e-9 relative (partial
// float sums reassociate across workers) with NaN equal to NaN.
func sameRows(t *testing.T, label string, got, want []types.Row) {
	t.Helper()
	compareRows(t, label, got, want, 1e-9)
}

// requireExactRows is sameRows with floats compared exactly.
func requireExactRows(t *testing.T, label string, got, want []types.Row) {
	t.Helper()
	compareRows(t, label, got, want, 0)
}

func compareRows(t *testing.T, label string, got, want []types.Row, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for r := range want {
		for c, w := range want[r] {
			g := got[r][c]
			ok := g.IsNull() == w.IsNull() && (w.IsNull() || g.Kind() == w.Kind())
			if ok && !w.IsNull() {
				if w.Kind() == types.KindFloat {
					a, b := g.Float(), w.Float()
					ok = (math.IsNaN(a) && math.IsNaN(b)) || math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
				} else {
					ok = types.Compare(g, w) == 0
				}
			}
			if !ok {
				t.Fatalf("%s: row %d col %d: got %v, want %v\n got %v\nwant %v", label, r, c, g, w, got[r], want[r])
			}
		}
	}
}

// TestGroupByDopInvariance is the one-operator property: whatever the key
// shape, whatever sits between scan and group-by, spilled or in memory,
// the rows and their order at dop 1, 2 and 8 are those of the sort-based
// oracle over the rows a plain loop lets through.
func TestGroupByDopInvariance(t *testing.T) {
	measure := &ArithExpr{Op: "*", L: ColRef(3), R: Const{V: types.NewFloat(0.37)}} // inexact, so sums reassociate
	aggs := []AggSpec{
		{Func: AggCountStar, Name: "cnt"},
		{Func: AggSum, Arg: ColRef(3), Name: "sum_id"},
		{Func: AggSum, Arg: measure, Name: "sum_m"},
		{Func: AggAvg, Arg: measure, Name: "avg_m"},
		{Func: AggMin, Arg: ColRef(3), Name: "min_id"},
		{Func: AggMax, Arg: ColRef(0), Name: "max_g"},
		{Func: AggCountDistinct, Arg: ColRef(1), Name: "cd_k"},
	}
	sch := dictSchema()
	keys := []struct {
		name  string
		empty bool
		exprs []Expr
		cols  types.Schema
	}{
		{name: "int key", exprs: []Expr{&ArithExpr{Op: "%", L: ColRef(3), R: Const{V: types.NewInt(257)}}},
			cols: types.Schema{{Name: "m", Kind: types.KindInt}}},
		{name: "dictionary-string key", exprs: []Expr{ColRef(0)}, cols: sch[:1]},
		{name: "NULL keys", exprs: []Expr{ColRef(0), ColRef(1)}, cols: sch[:2]},
		{name: "NaN float key", exprs: []Expr{ColRef(2)}, cols: sch[2:3]},
		{name: "empty input", empty: true, exprs: []Expr{ColRef(0)}, cols: sch[:1]},
		{name: "global aggregate"},
	}
	pushed := []columnar.Pred{{Col: 3, Op: encoding.OpGE, Val: types.NewInt(100)}}
	residual := &CmpExpr{Op: encoding.OpGT,
		L: &ArithExpr{Op: "+", L: ColRef(3), R: ColRef(1)}, R: Const{V: types.NewInt(100)}}
	// The stateful filter writes unsynchronized state, as a UDX may: run from
	// two ingest workers it is a data race the -race pass reports. The pure
	// one is the same function without the state, and keeps the workers.
	opaqueCalls := 0
	pure := rowFunc(4, func(r types.Row) (types.Value, error) {
		return types.NewBool(r[3].Int()%3 != 0), nil
	})
	opaque := &ApplyExpr{Args: pure.Args, Stateful: true, Fn: func(a []types.Value) (types.Value, error) {
		opaqueCalls++
		return pure.Fn(a)
	}}
	filters := []struct {
		name    string
		workers bool // group-by ingests on Dop workers
		pred    Expr // what the oracle filters by
		build   func(scan *ScanOp) Operator
	}{
		{"pushdown only", true, predExpr(pushed), func(scan *ScanOp) Operator {
			scan.Preds = pushed
			return scan
		}},
		{"residual vector filter", true, residual, func(scan *ScanOp) Operator {
			return &FilterOp{Child: scan, Pred: residual}
		}},
		{"pure ApplyExpr filter", true, pure, func(scan *ScanOp) Operator {
			return &FilterOp{Child: scan, Pred: pure}
		}},
		{"stateful ApplyExpr filter", false, opaque, func(scan *ScanOp) Operator {
			return &FilterOp{Child: scan, Pred: opaque}
		}},
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		full := dictTable(t, uint32(600+seed), dictRows(rng, 3*page.StrideSize+rng.Intn(page.StrideSize), true))
		none := dictTable(t, uint32(610+seed), nil)
		for _, k := range keys {
			tbl := full
			if k.empty {
				tbl = none
			}
			rows := tableRows(t, tbl)
			for _, f := range filters {
				want := oracleGroupBy(t, oracleFilter(t, rows, f.pred), k.exprs, aggs)
				for _, budget := range []int64{0, 8 << 10} {
					for _, dop := range []int{1, 2, 8} {
						label := fmt.Sprintf("seed %d, %s, %s, heap %d, dop %d", seed, k.name, f.name, budget, dop)
						var gov *mem.Governor
						dir := ""
						if budget > 0 {
							gov, _, dir = tinyGov(t, budget)
						}
						g := &GroupByOp{Child: f.build(scanCodes(tbl, dop)), GroupBy: k.exprs, GroupCols: k.cols, Aggs: aggs, Gov: gov, Dop: dop}
						if w := g.Workers(); f.workers && w != dop || !f.workers && w != 1 {
							t.Fatalf("%s: %d ingest workers", label, w)
						}
						got, err := Drain(g)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						sameRows(t, label, got, want)
						if budget > 0 {
							if runs, _ := g.SpillStats(); runs == 0 && k.name == "int key" {
								t.Fatalf("%s: expected a forced spill", label)
							}
							requireNoSpillFiles(t, dir)
						}
					}
				}
			}
		}
	}
}

// TestGroupByWorkerErrorStopsOthers: an evaluation error in one worker
// (division by zero late in the table) fails Open, stops the other
// workers, and Close still removes every partition run file.
func TestGroupByWorkerErrorStopsOthers(t *testing.T) {
	schema := types.Schema{{Name: "k", Kind: types.KindInt}, {Name: "d", Kind: types.KindInt}}
	tbl := columnar.NewTable(620, "div", schema, columnar.Config{})
	n := 6 * page.StrideSize
	rows := make([]types.Row, n)
	for i := range rows {
		d := int64(1)
		if i == n-10 {
			d = 0
		}
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(d)}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{1, 2, 8} {
		gov, _, dir := tinyGov(t, 8<<10)
		g := atDop(&GroupByOp{
			Child:     NewScan(tbl, nil, nil),
			GroupBy:   []Expr{ColRef(0)},
			GroupCols: schema[:1],
			Aggs:      []AggSpec{{Func: AggSum, Arg: &ArithExpr{Op: "/", L: ColRef(0), R: ColRef(1)}, Name: "q"}},
			Gov:       gov,
		}, dop)
		if _, err := Drain(g); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("dop %d: err = %v, want division by zero", dop, err)
		}
		if runs, _ := g.SpillStats(); runs == 0 {
			t.Fatalf("dop %d: expected spill runs before the error", dop)
		}
		requireNoSpillFiles(t, dir)
	}
}
