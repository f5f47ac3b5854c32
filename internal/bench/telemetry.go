package bench

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/exec"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
)

// FigureT measures the observability tax: the same scan, vectorized
// filter and parallel aggregate run bare and with telemetry attached
// (per-worker sharded stride counters on scans, atomic row/batch/time
// counters on operators). The budget is <= 5% overhead — counters are
// plain per-worker increments on the scan hot path and one atomic
// add per *batch* (not per row) elsewhere.
func FigureT(rows int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "F-T telemetry overhead (%d rows, budget 5%%)\n", rows)
	tbl, err := parallelBenchTable(rows)
	if err != nil {
		return "", err
	}
	preds := []columnar.Pred{{Col: 2, Op: encoding.OpGE, Val: types.NewFloat(64)}}
	report := func(name string, raw, inst time.Duration) {
		fmt.Fprintf(&b, "  %-22s bare %10v  instrumented %10v  (%+.1f%%)\n",
			name, raw.Round(time.Microsecond), inst.Round(time.Microsecond),
			100*(float64(inst)/float64(maxDuration(raw, 1))-1))
	}

	for _, dop := range []int{1, 4} {
		d := dop
		raw := bestOf(func() error {
			var n atomic.Int64
			return tbl.ParallelScan(preds, d, func(_ int, bt *columnar.Batch) bool {
				n.Add(int64(bt.Len()))
				return true
			})
		})
		inst := bestOf(func() error {
			ss := telemetry.NewScanStats(d)
			var n atomic.Int64
			return tbl.ParallelScanWithStats(preds, d, ss, func(_ int, bt *columnar.Batch) bool {
				n.Add(int64(bt.Len()))
				return true
			})
		})
		report(fmt.Sprintf("scan dop=%d", d), raw, inst)
	}

	// Vectorized filter pipeline: counters sit outside the per-row loop.
	mkVecFilter := func() exec.VecOperator {
		return &exec.VecFilterOp{Child: exec.NewVecScan(tbl, nil, nil, 1), Pred: figVPred()}
	}
	rawVF := bestOf(func() error { return drainVecCount(mkVecFilter()) })
	instVF := bestOf(func() error { return drainVecCount(exec.InstrumentVec(mkVecFilter())) })
	report("vec filter", rawVF, instVF)

	// Whole-plan instrumentation: the group-by at dop 4.
	rawAgg := bestOf(func() error { return drainOp(groupByAt(tbl, preds, 4)) })
	instAgg := bestOf(func() error { return drainOp(exec.Instrument(groupByAt(tbl, preds, 4))) })
	report("parallel agg dop=4", rawAgg, instAgg)

	fmt.Fprintf(&b, "  (scan counters are cache-line-padded per-worker shards summed\n")
	fmt.Fprintf(&b, "   after the scan's WaitGroup; operator counters are atomic adds,\n")
	fmt.Fprintf(&b, "   plus one Enter/Exit mutex pair on vector operators, per batch)\n")
	return b.String(), nil
}
