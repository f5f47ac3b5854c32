package mpp

import (
	"fmt"
	"sort"
	"strings"

	"dashdb/internal/core"
	"dashdb/internal/exec"
	"dashdb/internal/sql"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
)

// The two halves of the scatter fast path that run at the coordinator:
// buildShardSel rewrites the statement the shards run, mergeFastResults
// folds their partial results back into the user-visible answer.

// buildShardSel derives the per-shard statement for a decomposed query:
// plain queries push ORDER BY+LIMIT down (each shard returns its top
// offset+limit rows); aggregate queries rewrite the select list into
// partial aggregates (_P%d columns, AVG split into sum/count pairs).
func buildShardSel(sel *sql.SelectStmt, plan *fastPlan) (*sql.SelectStmt, error) {
	shardSel := *sel // shallow copy; fields overridden below
	if plan.plain {
		shardSel.Offset = 0
		if sel.Limit >= 0 {
			shardSel.Limit = sel.Offset + sel.Limit
		} else {
			shardSel.OrderBy = nil // no limit: per-shard ordering is wasted work
		}
		return &shardSel, nil
	}
	var items []sql.SelectItem
	groupSeen := 0
	for _, it := range sel.Items {
		if _, isAgg := it.Expr.(*sql.FuncCall); !isAgg {
			items = append(items, it)
			groupSeen++
		}
	}
	if groupSeen != plan.groupN {
		return nil, fmt.Errorf("mpp: fast path group column mismatch")
	}
	// Partial aggregate columns, in plan.aggs order.
	ai := 0
	for _, it := range sel.Items {
		fc, isAgg := it.Expr.(*sql.FuncCall)
		if !isAgg {
			continue
		}
		fa := plan.aggs[ai]
		if fa.avgPair {
			items = append(items,
				sql.SelectItem{Expr: &sql.FuncCall{Name: "SUM", Args: fc.Args}, Alias: fmt.Sprintf("_P%d_S", ai)},
				sql.SelectItem{Expr: &sql.FuncCall{Name: "COUNT", Args: fc.Args}, Alias: fmt.Sprintf("_P%d_C", ai)},
			)
		} else {
			items = append(items, sql.SelectItem{Expr: fc, Alias: fmt.Sprintf("_P%d", ai)})
		}
		ai++
	}
	shardSel.Items = items
	shardSel.OrderBy = nil
	shardSel.Limit = -1
	shardSel.Offset = 0
	shardSel.Having = nil
	return &shardSel, nil
}

// mergeFastResults folds per-shard partial results into the final
// answer: plain queries concatenate and re-apply ORDER BY/LIMIT;
// aggregate queries run the merge aggregation (SUM of partial counts,
// MIN of partial mins, AVG = partial sums / partial counts) at the
// coordinator. Correct for any disjoint partitioning of the input rows
// — hash shards and shuffle-join partitions alike.
func mergeFastResults(sel *sql.SelectStmt, plan *fastPlan, results []*core.Result) (*core.Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("mpp: no shard results")
	}
	if plan.plain {
		merged := &core.Result{Columns: results[0].Columns}
		for _, r := range results {
			merged.Rows = append(merged.Rows, r.Rows...)
		}
		return finalizeOrderLimit(merged, sel)
	}
	var partials []types.Row
	for _, r := range results {
		partials = append(partials, r.Rows...)
	}
	width := len(results[0].Columns)
	partialSchema := make(types.Schema, width)
	for i, name := range results[0].Columns {
		partialSchema[i] = types.Column{Name: name, Kind: types.KindNull, Nullable: true}
	}

	// Final merge: group by the leading columns, merging partials.
	g := &exec.GroupByOp{Child: exec.NewValues(partialSchema, partials)}
	for i := 0; i < plan.groupN; i++ {
		g.GroupBy = append(g.GroupBy, exec.ColRef(i))
		g.GroupCols = append(g.GroupCols, partialSchema[i])
	}
	col := plan.groupN
	type avgSlot struct{ sumIdx, cntIdx int } // positions in group output
	var avgSlots []avgSlot
	outPos := plan.groupN
	for _, fa := range plan.aggs {
		if fa.avgPair {
			g.Aggs = append(g.Aggs,
				exec.AggSpec{Func: exec.AggSum, Arg: exec.ColRef(col), Name: "_s"},
				exec.AggSpec{Func: exec.AggSum, Arg: exec.ColRef(col + 1), Name: "_c"},
			)
			avgSlots = append(avgSlots, avgSlot{sumIdx: outPos, cntIdx: outPos + 1})
			col += 2
			outPos += 2
			continue
		}
		g.Aggs = append(g.Aggs, exec.AggSpec{Func: fa.kind, Arg: exec.ColRef(col), Name: fa.name})
		col++
		outPos++
	}

	// Projection back to the user-visible shape (AVG = sum/count).
	finalCols := make([]string, 0, plan.groupN+len(plan.aggs))
	var exprs []exec.Expr
	for i := 0; i < plan.groupN; i++ {
		exprs = append(exprs, exec.ColRef(i))
		finalCols = append(finalCols, results[0].Columns[i])
	}
	slot := plan.groupN
	avgUsed := 0
	for _, fa := range plan.aggs {
		if fa.avgPair {
			s := avgSlots[avgUsed]
			avgUsed++
			sumRef, cntRef := exec.ColRef(s.sumIdx), exec.ColRef(s.cntIdx)
			exprs = append(exprs, exec.FuncExpr(func(row types.Row) (types.Value, error) {
				sv, err := sumRef.Eval(row)
				if err != nil {
					return types.Null, err
				}
				cv, err := cntRef.Eval(row)
				if err != nil {
					return types.Null, err
				}
				if sv.IsNull() || cv.IsNull() || cv.Int() == 0 {
					return types.Null, nil
				}
				sum, _ := sv.AsFloat()
				return types.NewFloat(sum / float64(cv.Int())), nil
			}))
			slot += 2
		} else {
			exprs = append(exprs, exec.ColRef(slot))
			slot++
		}
		finalCols = append(finalCols, fa.name)
	}
	outSchema := make(types.Schema, len(finalCols))
	for i, n := range finalCols {
		outSchema[i] = types.Column{Name: n, Kind: types.KindNull, Nullable: true}
	}
	proj := &exec.ProjectOp{Child: g, Exprs: exprs, Out: outSchema}
	rows, err := exec.Drain(proj)
	if err != nil {
		return nil, err
	}
	return finalizeOrderLimit(&core.Result{Columns: finalCols, Rows: rows}, sel)
}

// foldShardStats folds the per-shard telemetry records of one scattered
// query into a single cluster-level record (counters summed, elapsed =
// slowest shard) and appends it to the cluster history. expected =
// scatter width: a shard whose result came back without instrumentation
// surfaces as a degraded merge, not an under-count.
func foldShardStats(reg *telemetry.Registry, res *core.Result, shardResults []*core.Result, text string) (*telemetry.QueryRecord, bool) {
	var recs []telemetry.QueryRecord
	for _, r := range shardResults {
		if r != nil && r.Stats != nil {
			recs = append(recs, *r.Stats)
		}
	}
	if len(recs) == 0 {
		return nil, false
	}
	merged := telemetry.MergeShardRecords(recs, len(shardResults))
	merged.ID = reg.NextID()
	merged.SQL = text
	// Shard rows are partials; the user-visible count is the final merge.
	merged.Rows = int64(len(res.Rows))
	reg.Record(merged)
	return &merged, true
}

// finalizeOrderLimit applies the original ORDER BY / LIMIT / OFFSET at
// the coordinator. ORDER BY terms must be ordinals or output column
// names; anything else errors (caller falls back to the gather path).
func finalizeOrderLimit(res *core.Result, sel *sql.SelectStmt) (*core.Result, error) {
	if len(sel.OrderBy) > 0 {
		type key struct {
			idx  int
			desc bool
		}
		keys := make([]key, len(sel.OrderBy))
		for i, oi := range sel.OrderBy {
			switch {
			case oi.Ordinal > 0:
				if oi.Ordinal > len(res.Columns) {
					return nil, fmt.Errorf("mpp: ORDER BY ordinal out of range")
				}
				keys[i] = key{idx: oi.Ordinal - 1, desc: oi.Desc}
			default:
				ref, ok := oi.Expr.(*sql.ColumnRef)
				if !ok {
					return nil, fmt.Errorf("mpp: ORDER BY expression needs gather path")
				}
				found := -1
				for ci, name := range res.Columns {
					if strings.EqualFold(name, ref.Column) {
						found = ci
						break
					}
				}
				if found < 0 {
					return nil, fmt.Errorf("mpp: ORDER BY column %s not in output", ref.Column)
				}
				keys[i] = key{idx: found, desc: oi.Desc}
			}
		}
		sort.SliceStable(res.Rows, func(a, b int) bool {
			for _, k := range keys {
				cmp := types.Compare(res.Rows[a][k.idx], res.Rows[b][k.idx])
				if cmp == 0 {
					continue
				}
				if k.desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
	}
	if sel.Offset > 0 {
		if sel.Offset >= int64(len(res.Rows)) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[sel.Offset:]
		}
	}
	if sel.Limit >= 0 && int64(len(res.Rows)) > sel.Limit {
		res.Rows = res.Rows[:sel.Limit]
	}
	return res, nil
}
