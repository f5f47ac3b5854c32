package sql

import (
	"fmt"
	"strings"

	"dashdb/internal/exec"
	"dashdb/internal/plan"
	"dashdb/internal/types"
)

// exprKey canonicalizes an expression for structural matching between the
// GROUP BY list and the select list. Column references resolve to input
// ordinals so "region" and "t.region" compare equal.
func exprKey(e Expr, sc *scope) string {
	switch ex := e.(type) {
	case *Literal:
		return "lit:" + ex.Val.Kind().String() + ":" + ex.Val.String()
	case *ColumnRef:
		if i, err := sc.resolve(ex.Table, ex.Column); err == nil {
			return fmt.Sprintf("col#%d", i)
		}
		return "col:" + strings.ToLower(ex.Table) + "." + strings.ToLower(ex.Column)
	case *BinaryOp:
		return "(" + exprKey(ex.Left, sc) + " " + ex.Op + " " + exprKey(ex.Right, sc) + ")"
	case *UnaryOp:
		return "(" + ex.Op + " " + exprKey(ex.Expr, sc) + ")"
	case *FuncCall:
		var b strings.Builder
		b.WriteString("fn:")
		b.WriteString(strings.ToUpper(ex.Name))
		b.WriteByte('(')
		if ex.Star {
			b.WriteByte('*')
		}
		if ex.Distinct {
			b.WriteString("distinct ")
		}
		for i, a := range ex.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(exprKey(a, sc))
		}
		b.WriteByte(')')
		if ex.WithinGroupOrder != nil {
			b.WriteString("wg:" + exprKey(ex.WithinGroupOrder, sc))
		}
		return b.String()
	case *CastExpr:
		return "cast(" + exprKey(ex.Expr, sc) + " as " + strings.ToUpper(ex.Type) + ")"
	case *CaseExpr:
		var b strings.Builder
		b.WriteString("case(")
		if ex.Operand != nil {
			b.WriteString(exprKey(ex.Operand, sc))
		}
		for _, w := range ex.Whens {
			b.WriteString("|" + exprKey(w.When, sc) + "->" + exprKey(w.Then, sc))
		}
		if ex.Else != nil {
			b.WriteString("|else:" + exprKey(ex.Else, sc))
		}
		b.WriteByte(')')
		return b.String()
	case *IsNullExpr:
		return fmt.Sprintf("isnull(%s,%v)", exprKey(ex.Expr, sc), ex.Not)
	case *BetweenExpr:
		return fmt.Sprintf("between(%s,%s,%s,%v)", exprKey(ex.Expr, sc), exprKey(ex.Lo, sc), exprKey(ex.Hi, sc), ex.Not)
	default:
		return fmt.Sprintf("%T:%p", e, e)
	}
}

// planAggregate puts Aggregate → [Filter(HAVING)] on top of an aggregating
// block's FROM/WHERE tree and returns it with the scope of the aggregated
// row, in which the select list and ORDER BY compile like any other
// expression.
func (c *Compiler) planAggregate(sel *SelectStmt, items []SelectItem, cur *planned) (*planned, error) {
	inSc := cur.scope

	// Resolve GROUP BY terms: ordinals and select-list aliases (Netezza's
	// "GROUP BY output column name") resolve to the item's expression.
	var groupExprs []Expr
	for _, g := range sel.GroupBy {
		if lit, ok := g.(*Literal); ok {
			if n, isInt := lit.Val.AsInt(); isInt && lit.Val.Kind() == types.KindInt {
				if n < 1 || int(n) > len(items) {
					return nil, fmt.Errorf("sql: GROUP BY ordinal %d out of range", n)
				}
				groupExprs = append(groupExprs, items[n-1].Expr)
				continue
			}
		}
		if ref, ok := g.(*ColumnRef); ok && ref.Table == "" {
			if _, err := inSc.resolve("", ref.Column); err != nil {
				matched := false
				for _, it := range items {
					if strings.EqualFold(it.Alias, ref.Column) {
						groupExprs = append(groupExprs, it.Expr)
						matched = true
						break
					}
				}
				if matched {
					continue
				}
			}
		}
		groupExprs = append(groupExprs, g)
	}

	// out maps the exprKey of each GROUP BY term and aggregate call to its
	// ordinal in the aggregate's output.
	agg := &plan.Aggregate{Child: cur.node}
	out := make(map[string]int)
	for gi, ge := range groupExprs {
		ce, err := c.compileExpr(ge, inSc)
		if err != nil {
			return nil, err
		}
		agg.GroupBy = append(agg.GroupBy, ce)
		name := fmt.Sprintf("GRP%d", gi+1)
		if ref, ok := ge.(*ColumnRef); ok {
			name = ref.Column
		}
		agg.GroupCols = append(agg.GroupCols, types.Column{Name: name, Kind: types.KindNull, Nullable: true})
		out[exprKey(ge, inSc)] = gi
	}
	// The distinct aggregate calls of the select list, HAVING and ORDER BY.
	// A call's arguments are not entered: they compile against the
	// aggregate's input, where a nested aggregate is rejected.
	var aggCalls []*FuncCall
	collectAggregates := func(x Expr) bool {
		fc, isAgg := AggregateCall(x)
		if !isAgg {
			return true
		}
		k := exprKey(fc, inSc)
		if _, dup := out[k]; !dup {
			out[k] = len(groupExprs) + len(aggCalls)
			aggCalls = append(aggCalls, fc)
		}
		return false
	}
	for _, it := range items {
		WalkExpr(it.Expr, collectAggregates)
	}
	WalkExpr(sel.Having, collectAggregates)
	for _, oi := range sel.OrderBy {
		WalkExpr(oi.Expr, collectAggregates)
	}
	for _, fc := range aggCalls {
		spec, err := c.buildAggSpec(fc, inSc)
		if err != nil {
			return nil, err
		}
		agg.Aggs = append(agg.Aggs, spec)
	}

	res := &planned{node: agg, scope: &scope{agg: &aggScope{in: inSc, out: out}}}
	if sel.Having != nil {
		pred, err := c.compileExpr(sel.Having, res.scope)
		if err != nil {
			return nil, err
		}
		res.node = &plan.Filter{Child: agg, Pred: pred}
	}
	return res, nil
}

// buildAggSpec converts an aggregate FuncCall into an executor AggSpec.
func (c *Compiler) buildAggSpec(fc *FuncCall, sc *scope) (exec.AggSpec, error) {
	fn, _ := aggFuncFor(fc.Name)
	spec := exec.AggSpec{Func: fn, Name: fc.Name}
	switch fn {
	case exec.AggCount:
		if fc.Star {
			spec.Func = exec.AggCountStar
			return spec, nil
		}
		if fc.Distinct {
			spec.Func = exec.AggCountDistinct
		}
		if len(fc.Args) != 1 {
			return spec, fmt.Errorf("sql: COUNT expects one argument")
		}
		arg, err := c.compileExpr(fc.Args[0], sc)
		if err != nil {
			return spec, err
		}
		spec.Arg = arg
		return spec, nil
	case exec.AggPercentileCont, exec.AggPercentileDisc:
		if len(fc.Args) != 1 || fc.WithinGroupOrder == nil {
			return spec, fmt.Errorf("sql: %s requires (p) WITHIN GROUP (ORDER BY expr)", fc.Name)
		}
		lit, ok := fc.Args[0].(*Literal)
		if !ok {
			return spec, fmt.Errorf("sql: %s requires a literal percentile", fc.Name)
		}
		p, okf := lit.Val.AsFloat()
		if !okf || p < 0 || p > 1 {
			return spec, fmt.Errorf("sql: percentile must be in [0,1]")
		}
		spec.Param = p
		arg, err := c.compileExpr(fc.WithinGroupOrder, sc)
		if err != nil {
			return spec, err
		}
		spec.Arg = arg
		return spec, nil
	case exec.AggCovarPop, exec.AggCovarSamp:
		if len(fc.Args) != 2 {
			return spec, fmt.Errorf("sql: %s expects two arguments", fc.Name)
		}
		a1, err := c.compileExpr(fc.Args[0], sc)
		if err != nil {
			return spec, err
		}
		a2, err := c.compileExpr(fc.Args[1], sc)
		if err != nil {
			return spec, err
		}
		spec.Arg, spec.Arg2 = a1, a2
		return spec, nil
	default:
		if len(fc.Args) != 1 {
			return spec, fmt.Errorf("sql: %s expects one argument", fc.Name)
		}
		arg, err := c.compileExpr(fc.Args[0], sc)
		if err != nil {
			return spec, err
		}
		spec.Arg = arg
		return spec, nil
	}
}
