package bench

import (
	"fmt"
	"strings"
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
			_, err := scanCount(tbl, preds, d, nil)
			return err
		})
		inst := bestOf(func() error {
			_, err := scanCount(tbl, preds, d, telemetry.NewScanStats(d))
			return err
		})
		report(fmt.Sprintf("scan dop=%d", d), raw, inst)
	}

	// Filter pipeline: counters sit outside the per-row loop.
	mkFilter := func() exec.Operator {
		return &exec.FilterOp{Child: exec.NewScan(tbl, nil, nil), Pred: figTPred()}
	}
	rawVF := bestOf(func() error { return drainCount(mkFilter()) })
	instVF := bestOf(func() error { return drainCount(exec.Instrument(mkFilter())) })
	report("vec filter", rawVF, instVF)

	// Whole-plan instrumentation: the group-by at dop 4.
	rawAgg := bestOf(func() error { return drainOp(groupByAt(tbl, preds, 4)) })
	instAgg := bestOf(func() error { return drainOp(exec.Instrument(groupByAt(tbl, preds, 4))) })
	report("parallel agg dop=4", rawAgg, instAgg)

	fmt.Fprintf(&b, "  (scan counters are cache-line-padded per-worker shards summed\n")
	fmt.Fprintf(&b, "   after the scan's WaitGroup; operator counters are atomic adds,\n")
	fmt.Fprintf(&b, "   plus one Enter/Exit mutex pair, per batch)\n")
	return b.String(), nil
}

// figTPred is a non-pushable predicate (arithmetic on the column keeps it
// out of the compressed-scan pushdown), ~50% selective on par_bench.
func figTPred() exec.Expr {
	return &exec.CmpExpr{Op: encoding.OpLT,
		L: &exec.ArithExpr{Op: "*", L: exec.ColRef(1), R: exec.Const{V: types.NewInt(2)}},
		R: exec.Const{V: types.NewInt(1_000_000)}}
}

// drainCount exhausts a pipeline touching only selection vectors — no row
// is boxed, so the timing is the operators' own.
func drainCount(op exec.Operator) error {
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	for {
		vb, err := op.Next()
		if err != nil || vb == nil {
			return err
		}
	}
}

// bestOf reports the fastest of three runs, damping scheduler noise.
func bestOf(f func() error) time.Duration {
	best := timeIt(f)
	for i := 0; i < 2; i++ {
		if d := timeIt(f); d < best {
			best = d
		}
	}
	return best
}
