package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/exec"
	"dashdb/internal/mem"
	"dashdb/internal/plan"
	"dashdb/internal/types"
)

// dictBenchTables builds the operate-on-compressed-data workload: a fact
// table whose join/group key is a low-cardinality string (FREQ-DICT, the
// BLU sweet spot) plus an int and a float measure, and a small dimension
// keyed by the same strings. The dimension is loaded separately so its
// dictionary differs from the fact's — the join exercises the remap
// path, which is the common case across tables.
func dictBenchTables(rows int) (fact, dim *columnar.Table, err error) {
	rng := rand.New(rand.NewSource(13))
	cats := make([]string, 64)
	for i := range cats {
		cats[i] = fmt.Sprintf("category-%02d-%s", i, strings.Repeat("x", 12))
	}
	fact = columnar.NewTable(95, "oc_fact", types.Schema{
		{Name: "cat", Kind: types.KindString},
		{Name: "v", Kind: types.KindInt},
		{Name: "f", Kind: types.KindFloat},
	}, columnar.Config{})
	batch := make([]types.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, types.Row{
			types.NewString(cats[rng.Intn(len(cats))]),
			types.NewInt(int64(rng.Intn(1_000_000))),
			types.NewFloat(float64(rng.Intn(4096)) * 0.5),
		})
	}
	if err = fact.InsertBatch(batch); err != nil {
		return nil, nil, err
	}
	dim = columnar.NewTable(96, "oc_dim", types.Schema{
		{Name: "cat", Kind: types.KindString},
		{Name: "zone", Kind: types.KindString},
	}, columnar.Config{})
	dimRows := make([]types.Row, len(cats))
	for i, c := range cats {
		dimRows[i] = types.Row{types.NewString(c), types.NewString(fmt.Sprintf("zone-%d", i%4))}
	}
	if err = dim.InsertBatch(dimRows); err != nil {
		return nil, nil, err
	}
	if fact.ColumnDict(0) == nil || dim.ColumnDict(0) == nil {
		return nil, nil, fmt.Errorf("bench: analysis did not adopt FREQ-DICT for the key column")
	}
	return fact, dim, nil
}

// ocFilterPred is an OR of point lookups on the dictionary column; the OR
// keeps it out of scan pushdown so the residual filter (code space vs
// value kernels) is what gets measured.
func ocFilterPred(cats ...string) exec.Expr {
	var p exec.Expr
	for _, c := range cats {
		cmp := &exec.CmpExpr{Op: encoding.OpEQ, L: exec.ColRef(0), R: exec.Const{V: types.NewString(c)}}
		if p == nil {
			p = cmp
		} else {
			p = &exec.OrExpr{L: p, R: cmp}
		}
	}
	return p
}

// governedJoin wires the figure's dim⋈fact hash join to gov, compressed
// or decoded. The fact table is the BUILD side (right), so the hash
// table's footprint — string keys decoded vs 8-byte codes — is what the
// HASHHEAP peak measures.
func governedJoin(fact, dim *columnar.Table, compressed bool, gov *mem.Governor) *exec.HashJoinOp {
	return plan.HashJoin(ocScan(dim, compressed), ocScan(fact, compressed),
		[]int{0}, []int{0}, exec.InnerJoin, gov)
}

// ocScan is a full scan emitting dictionary columns as code vectors
// (compressed) or decoding them at the scan.
func ocScan(t *columnar.Table, compressed bool) *exec.ScanOp {
	scan := exec.NewScan(t, nil, nil)
	if compressed {
		scan.EnableCompressed()
	}
	return scan
}

// joinPeak drains a fresh governed join (best of two runs, damping GC
// and scheduler noise) and reports (elapsed, HASHHEAP peak bytes): the
// MON_MEMORY-visible footprint of the build table.
func joinPeak(fact, dim *columnar.Table, compressed bool) (time.Duration, int64, error) {
	best := time.Duration(0)
	var peak int64
	for run := 0; run < 2; run++ {
		b := mem.NewBroker(1<<40, 1<<40, "")
		t0 := time.Now()
		if err := drainOp(governedJoin(fact, dim, compressed, &mem.Governor{Broker: b})); err != nil {
			b.Close()
			return 0, 0, err
		}
		elapsed := time.Since(t0)
		heaps, _ := b.Stats()
		peak = heaps[mem.HashHeap].PeakBytes
		b.Close()
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, peak, nil
}

// FigureOC is the operate-on-compressed-data experiment (paper §II.B.2:
// "predicates are evaluated directly on the compressed values"): the
// same filter, join, and group-by plans run decoded (values materialized
// at the scan) and compressed (dictionary codes flow through the
// operators, values materialize at the projection/emit). Ratios above
// 1.0x mean the compressed path is faster; the join also reports the
// HASHHEAP peak, which shrinks because code-valued build keys are fixed
// 8-byte ints instead of strings.
func FigureOC(rows int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "F-OC operate-on-compressed-data execution (%d rows, 64-value dict key)\n", rows)
	fact, dim, err := dictBenchTables(rows)
	if err != nil {
		return "", err
	}

	// Residual filter over the dictionary column, ~1/16 selective.
	pred := ocFilterPred(
		"category-03-xxxxxxxxxxxx", "category-17-xxxxxxxxxxxx",
		"category-31-xxxxxxxxxxxx", "category-45-xxxxxxxxxxxx")
	mkFilter := func(compressed bool) exec.Operator {
		return &exec.FilterOp{Child: ocScan(fact, compressed), Pred: pred}
	}
	decF := bestOf(func() error { return drainOp(mkFilter(false)) })
	cmpF := bestOf(func() error { return drainOp(mkFilter(true)) })
	fmt.Fprintf(&b, "  filter (OR of 4 point lookups)  : decoded %10v  compressed %10v  (%.2fx)\n",
		decF.Round(time.Microsecond), cmpF.Round(time.Microsecond),
		float64(decF)/float64(maxDuration(cmpF, 1)))

	// Hash join on the dictionary key, with the governed build footprint.
	decJ, decPeak, err := joinPeak(fact, dim, false)
	if err != nil {
		return "", err
	}
	cmpJ, cmpPeak, err := joinPeak(fact, dim, true)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  hash join dim⋈fact (code keys)  : decoded %10v  compressed %10v  (%.2fx)\n",
		decJ.Round(time.Microsecond), cmpJ.Round(time.Microsecond),
		float64(decJ)/float64(maxDuration(cmpJ, 1)))
	fmt.Fprintf(&b, "    HASHHEAP peak (MON_MEMORY)    : decoded %10d  compressed %10d  (%.2fx smaller)\n",
		decPeak, cmpPeak, float64(decPeak)/float64(floorInt64(cmpPeak, 1)))

	// Group-by on the dictionary key: codes group, values decode per
	// distinct group at emit.
	decG := bestOf(func() error { return drainOp(dictGroupBy(fact, false)) })
	cmpG := bestOf(func() error { return drainOp(dictGroupBy(fact, true)) })
	fmt.Fprintf(&b, "  group-by on dict key [dop=4]    : decoded %10v  compressed %10v  (%.2fx)\n",
		decG.Round(time.Microsecond), cmpG.Round(time.Microsecond),
		float64(decG)/float64(maxDuration(cmpG, 1)))
	fmt.Fprintf(&b, "  (decoded = values materialized at the scan; compressed = codes through\n")
	fmt.Fprintf(&b, "   filter/join/group-by, one decode per distinct value at projection/emit)\n")
	return b.String(), nil
}

// dictGroupBy is the dop-4 group-by on the fact table's dictionary key,
// over code vectors or over values decoded at the scan.
func dictGroupBy(fact *columnar.Table, compressed bool) exec.Operator {
	scan := ocScan(fact, compressed)
	scan.Dop = 4
	return &exec.GroupByOp{
		Child:     scan,
		GroupBy:   []exec.Expr{exec.ColRef(0)},
		GroupCols: types.Schema{{Name: "cat", Kind: types.KindString}},
		Aggs:      figAggSpecs(),
		Dop:       4,
	}
}

func floorInt64(v, floor int64) int64 {
	if v < floor {
		return floor
	}
	return v
}
