package core

import (
	"fmt"
	"strings"
	"time"

	"dashdb/internal/columnar"
	"dashdb/internal/exec"
	"dashdb/internal/sql"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
)

// executeExplain renders the physical plan of the target statement. Only
// queries have plans; other statements report their kind. EXPLAIN ANALYZE
// additionally executes the plan and annotates every node with actual row
// counts, wall time and (for scans) synopsis skip ratios, and records the
// run in the query history.
func (s *Session) executeExplain(stmt *sql.ExplainStmt, text string) (*Result, error) {
	sel, ok := stmt.Target.(*sql.SelectStmt)
	if !ok {
		return &Result{
			Columns: []string{"PLAN"},
			Rows:    []types.Row{{types.NewString(fmt.Sprintf("%T (no plan)", stmt.Target))}},
		}, nil
	}
	op, err := s.compiler().CompileSelect(sel)
	if err != nil {
		return nil, err
	}
	if !stmt.Analyze {
		return planResult(renderPlan(collectPlan(op), false), nil), nil
	}
	// ANALYZE: instrument, run to completion (rows are discarded; the plan
	// is the result), then annotate with the observed counters.
	op = exec.Instrument(op)
	start := time.Now()
	rows, execErr := exec.Drain(op)
	elapsed := time.Since(start)
	rec := s.recordQueryPlan(text, op, start, elapsed, int64(len(rows)), execErr, true)
	if execErr != nil {
		return nil, execErr
	}
	lines := strings.Split(rec.Plan, "\n")
	lines = append(lines, fmt.Sprintf("(total: rows=%d, time=%s)", len(rows), fmtDur(elapsed)))
	return planResult(lines, rec), nil
}

// planResult boxes plan lines into a one-column result set.
func planResult(lines []string, rec *telemetry.QueryRecord) *Result {
	rows := make([]types.Row, len(lines))
	for i, l := range lines {
		rows[i] = types.Row{types.NewString(l)}
	}
	return &Result{Columns: []string{"PLAN"}, Rows: rows, Stats: rec}
}

// planEntry is one line of a physical plan: the rendered text plus the
// live telemetry counters attached to that operator (nil when the tree was
// not instrumented).
type planEntry struct {
	depth int
	text  string
	stats *telemetry.OpStats
	scan  *telemetry.ScanStats
	// Spill counters from blocking operators under the memory governor
	// (read post-drain; the counters outlive the heap reservation).
	spillRuns  int64
	spillBytes int64
	// analyzeExtra carries operate-on-compressed-data runtime counters
	// (code-evaluated rows, encoded rows reaching the projection, code
	// key positions); rendered only in ANALYZE mode, where the counters
	// are read post-drain.
	analyzeExtra string
	// est is the planner's estimated output cardinality (scans and
	// joins); 0 = unplanned. ANALYZE lines pair it with actual counts.
	est float64
}

// collectPlan flattens an operator tree (instrumented or not) into plan
// entries, unwrapping StatsOp decorators transparently.
func collectPlan(op exec.Operator) []planEntry {
	var out []planEntry
	collectOp(op, 0, nil, &out)
	return out
}

// renderPlan turns entries into display lines. In analyze mode every
// instrumented node gets an (actual rows=..) annotation and scan-backed
// nodes report stride visit/skip counts with the synopsis skip ratio.
func renderPlan(entries []planEntry, analyze bool) []string {
	lines := make([]string, len(entries))
	for i, e := range entries {
		line := strings.Repeat("  ", e.depth) + e.text
		if e.est > 0 {
			line += fmt.Sprintf(" (est rows=%d)", int64(e.est+0.5))
		}
		if analyze {
			if e.stats != nil {
				line += fmt.Sprintf(" (actual rows=%d batches=%d time=%s)",
					e.stats.Rows(), e.stats.Batches(), fmtDur(e.stats.Wall()))
			} else if e.scan != nil {
				line += fmt.Sprintf(" (actual rows=%d)", e.scan.RowsScanned())
			}
			if e.scan != nil {
				line += fmt.Sprintf(" [strides: %d visited, %d skipped, skip=%.1f%%]",
					e.scan.StridesVisited(), e.scan.StridesSkipped(), e.scan.SkipRatio()*100)
			}
			if e.spillRuns > 0 || e.spillBytes > 0 {
				line += fmt.Sprintf(" [spill: runs=%d, bytes=%d]", e.spillRuns, e.spillBytes)
			}
			line += e.analyzeExtra
		}
		lines[i] = line
	}
	return lines
}

// fmtDur renders durations for plan annotations (microsecond granularity
// keeps the lines short; tests normalize the value away).
func fmtDur(d time.Duration) string { return d.Round(time.Microsecond).String() }

// freezeOps snapshots live plan entries into immutable history records.
func freezeOps(entries []planEntry) []telemetry.OpRecord {
	out := make([]telemetry.OpRecord, len(entries))
	for i, e := range entries {
		r := telemetry.OpRecord{
			Seq:     i,
			Depth:   e.depth,
			Name:    e.text,
			Rows:    e.stats.Rows(),
			Batches: e.stats.Batches(),
			Wall:    e.stats.Wall(),
		}
		if e.scan != nil {
			r.HasScan = true
			r.StridesVisited = e.scan.StridesVisited()
			r.StridesSkipped = e.scan.StridesSkipped()
			if r.Rows == 0 {
				r.Rows = e.scan.RowsScanned()
			}
		}
		r.SpillRuns = e.spillRuns
		r.SpillBytes = e.spillBytes
		out[i] = r
	}
	return out
}

// collectOp walks the operator tree producing plan entries. Every expression
// runs a batch at a time; an operator is tagged [row] when it holds a
// stateful one (UDX, sequence, ROWNUM, subquery), whose calls run one at a
// time in position order and keep a group-by above it serial, and
// [vectorized] otherwise. st carries the counters of the StatsOp decorator
// the walk just unwrapped, and lands on the entry of the operator it
// decorates.
func collectOp(op exec.Operator, depth int, st *telemetry.OpStats, out *[]planEntry) {
	// add appends the operator's entry and returns it for annotation.
	add := func(text string) *planEntry {
		*out = append(*out, planEntry{depth: depth, text: text, stats: st})
		return &(*out)[len(*out)-1]
	}
	mode := func(exprs ...exec.Expr) string {
		if exec.Stateful(exprs...) {
			return " [row]"
		}
		return " [vectorized]"
	}
	switch o := op.(type) {
	case *exec.StatsOp:
		collectOp(o.Child, depth, &o.S, out)
	case *exec.ScanOp:
		desc := "COLUMNAR SCAN " + o.Table.Name()
		if o.Dop > 1 {
			desc = fmt.Sprintf("PARALLEL %s [dop=%d]", desc, o.Dop)
		}
		desc += " [vectorized]"
		if anyFlag(o.Compressed) {
			desc += " [compressed]"
		}
		if len(o.Preds) > 0 {
			desc += " [pushdown: " + predString(o.Table, o.Preds) + "]"
		}
		e := add(desc)
		e.scan, e.est = o.ScanStats, o.EstRows
	case *exec.RowScanOp:
		add(fmt.Sprintf("ROW SCAN %s", o.Table.Name()))
	case *exec.FilterOp:
		text := "FILTER" + mode(o.Pred)
		if exec.PredCompressible(o.Pred, exec.CompressedCols(o.Child)) {
			text += " [compressed]"
		}
		e := add(text)
		if n := o.CodeRows.Load(); n > 0 {
			e.analyzeExtra = fmt.Sprintf(" [code-rows=%d]", n)
		}
		collectOp(o.Child, depth+1, nil, out)
	case *exec.ProjectOp:
		text := "PROJECT " + strings.Join(o.Out.Names(), ", ") + mode(o.Exprs...)
		if anyFlag(exec.CompressedCols(o.Child)) {
			text += " [compressed]"
		}
		e := add(text)
		if n := o.EncodedRows.Load(); n > 0 {
			e.analyzeExtra = fmt.Sprintf(" [encoded-rows=%d]", n)
		}
		collectOp(o.Child, depth+1, nil, out)
	case *exec.HashJoinOp:
		e := add(fmt.Sprintf("HASH JOIN (%s)", joinName(o.Type)))
		if len(o.LeftKeys) == 0 {
			e.text += " [no keys]"
		}
		e.spillRuns, e.spillBytes = o.SpillStats()
		if n := o.CodeKeyCount(); n > 0 {
			e.text += " [compressed]"
			e.analyzeExtra = fmt.Sprintf(" [code-keys=%d]", n)
		}
		_, _, ids := o.GroupStats()
		e.analyzeExtra += " [ids=" + ids + "]"
		// Planner annotations follow the compressed tag so plan-reading
		// tools keep matching "HASH JOIN (<type>) [compressed]".
		if o.BuildSide != "" {
			e.text += " [build=" + o.BuildSide + "]"
		}
		if o.Reordered {
			e.text += " [reordered]"
		}
		if o.Residual != nil {
			e.text += " [residual]"
		}
		e.est = o.EstRows
		collectOp(o.Left, depth+1, nil, out)
		collectOp(o.Right, depth+1, nil, out)
	case *exec.GroupByOp:
		text := fmt.Sprintf("GROUP BY [%d keys, %d aggregates]", len(o.GroupBy), len(o.Aggs)) + mode(o.Exprs()...)
		if o.CodeKeyed() {
			text += " [compressed]"
		}
		if w := o.Workers(); w > 1 {
			text += fmt.Sprintf(" [dop=%d]", w)
		}
		e := add(text)
		e.spillRuns, e.spillBytes = o.SpillStats()
		if n := o.CodeKeyCount(); n > 0 {
			e.analyzeExtra = fmt.Sprintf(" [code-keys=%d]", n)
		}
		groups, state, ids := o.GroupStats()
		e.analyzeExtra += fmt.Sprintf(" [groups=%d state=%d ids=%s]", groups, state, ids)
		collectOp(o.Child, depth+1, nil, out)
	case *exec.SortOp:
		keys := make([]exec.Expr, len(o.Keys))
		for i, k := range o.Keys {
			keys[i] = k.Expr
		}
		text := fmt.Sprintf("SORT [%d keys]", len(o.Keys))
		if o.Bound > 0 {
			text += fmt.Sprintf(" [top %d]", o.Bound)
		}
		e := add(text + mode(keys...))
		e.spillRuns, e.spillBytes = o.SpillStats()
		collectOp(o.Child, depth+1, nil, out)
	case *exec.LimitOp:
		add(fmt.Sprintf("LIMIT %d OFFSET %d [vectorized]", o.Limit, o.Offset))
		collectOp(o.Child, depth+1, nil, out)
	case *exec.UnionAllOp:
		add("UNION ALL")
		for _, c := range o.Children {
			collectOp(c, depth+1, nil, out)
		}
	case *exec.ValuesOp:
		add(fmt.Sprintf("VALUES [%d rows]", len(o.Data)))
	default:
		add(fmt.Sprintf("%T", op))
	}
}

// anyFlag reports whether any advisory compressed-column flag is set.
func anyFlag(flags []bool) bool {
	for _, f := range flags {
		if f {
			return true
		}
	}
	return false
}

// predString renders pushed-down scan predicates for plan output.
func predString(t *columnar.Table, preds []columnar.Pred) string {
	var ps []string
	for _, p := range preds {
		ps = append(ps, fmt.Sprintf("%s %s %s", t.Schema()[p.Col].Name, p.Op, p.Val))
	}
	return strings.Join(ps, " AND ")
}

func joinName(t exec.JoinType) string {
	if t == exec.LeftJoin {
		return "LEFT OUTER"
	}
	return "INNER"
}
