package workload

import (
	"fmt"
	"strings"

	"dashdb/internal/exec"
	"dashdb/internal/plan"
	"dashdb/internal/types"
)

// ScanFactory produces a scan operator for a table, given the predicates
// the engine may (or may not) push down, together with the scan's output
// schema. Each baseline engine supplies its own factory: the appliance's
// row-at-a-time scan, the cloud store's decode-then-evaluate scan.
type ScanFactory func(table string, preds []Pred) (exec.Operator, types.Schema, error)

// BuildPlan assembles the executor tree for a QuerySpec on top of the
// engine's scan factory: scans → hash joins → grouped aggregation →
// sort/limit. Used by the baseline simulators so every engine runs the
// same logical plan shape and differs only in its access paths.
func BuildPlan(q *QuerySpec, scan ScanFactory) (exec.Operator, error) {
	op, schema, err := scan(q.Table, q.Preds)
	if err != nil {
		return nil, err
	}
	for _, j := range q.Joins {
		dimOp, dimSchema, err := scan(j.Table, j.Preds)
		if err != nil {
			return nil, err
		}
		li := schema.ColumnIndex(j.LeftCol)
		ri := dimSchema.ColumnIndex(j.RightCol)
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("workload: join columns %s/%s not found", j.LeftCol, j.RightCol)
		}
		op = plan.HashJoin(op, dimOp, []int{li}, []int{ri}, exec.InnerJoin, nil)
		schema = append(append(types.Schema{}, schema...), dimSchema...)
	}

	colIdx := func(name string) (int, error) {
		ci := schema.ColumnIndex(name)
		if ci < 0 {
			return 0, fmt.Errorf("workload: column %s not found", name)
		}
		return ci, nil
	}

	outNames := make([]string, 0, len(q.GroupBy)+len(q.Aggs))
	if len(q.Aggs) > 0 {
		g := &exec.GroupByOp{Child: op}
		for _, gc := range q.GroupBy {
			ci, err := colIdx(gc)
			if err != nil {
				return nil, err
			}
			g.GroupBy = append(g.GroupBy, exec.ColRef(ci))
			g.GroupCols = append(g.GroupCols, types.Column{Name: gc, Kind: types.KindNull, Nullable: true})
			outNames = append(outNames, gc)
		}
		for _, a := range q.Aggs {
			spec := exec.AggSpec{Name: a.Func}
			switch strings.ToUpper(a.Func) {
			case "COUNT":
				if a.Col == "" {
					spec.Func = exec.AggCountStar
				} else {
					spec.Func = exec.AggCount
				}
			case "SUM":
				spec.Func = exec.AggSum
			case "AVG":
				spec.Func = exec.AggAvg
			case "MIN":
				spec.Func = exec.AggMin
			case "MAX":
				spec.Func = exec.AggMax
			default:
				return nil, fmt.Errorf("workload: unsupported aggregate %s", a.Func)
			}
			if a.Col != "" {
				ci, err := colIdx(a.Col)
				if err != nil {
					return nil, err
				}
				spec.Arg = exec.ColRef(ci)
			}
			g.Aggs = append(g.Aggs, spec)
			outNames = append(outNames, a.Func)
		}
		op = g
	} else if len(q.Select) > 0 {
		exprs := make([]exec.Expr, len(q.Select))
		out := make(types.Schema, len(q.Select))
		for i, name := range q.Select {
			ci, err := colIdx(name)
			if err != nil {
				return nil, err
			}
			exprs[i] = exec.ColRef(ci)
			out[i] = types.Column{Name: name, Kind: types.KindNull, Nullable: true}
		}
		op = &exec.ProjectOp{Child: op, Exprs: exprs, Out: out}
	}

	if len(q.OrderBy) > 0 {
		outSchema := op.Schema()
		keys := make([]exec.SortKey, len(q.OrderBy))
		for i, name := range q.OrderBy {
			ci := outSchema.ColumnIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("workload: ORDER BY column %s not in output", name)
			}
			keys[i] = exec.SortKey{Expr: exec.ColRef(ci), Desc: q.Desc}
		}
		op = &exec.SortOp{Child: op, Keys: keys}
	}
	if q.Limit > 0 {
		op = &exec.LimitOp{Child: op, Limit: int64(q.Limit)}
	}
	return op, nil
}

// PredFilter binds the predicate list to a schema as a row filter, for
// engines that look at one row at a time and cannot push predicates into
// their scans.
func PredFilter(preds []Pred, schema types.Schema) (func(types.Row) bool, error) {
	type bound struct {
		ci int
		p  Pred
	}
	bounds := make([]bound, len(preds))
	for i, p := range preds {
		ci := schema.ColumnIndex(p.Col)
		if ci < 0 {
			return nil, fmt.Errorf("workload: predicate column %s not found", p.Col)
		}
		bounds[i] = bound{ci: ci, p: p}
	}
	return func(row types.Row) bool {
		for _, b := range bounds {
			if !b.p.Op.Eval(row[b.ci], b.p.Val) {
				return false
			}
		}
		return true
	}, nil
}
