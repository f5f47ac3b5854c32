package sql

import (
	"fmt"
	"strings"

	"dashdb/internal/exec"
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

// collectAggregates walks the expression and appends distinct aggregate
// calls to aggs (deduplicated via seen).
func collectAggregates(e Expr, sc *scope, seen map[string]int, aggs *[]*FuncCall) {
	switch ex := e.(type) {
	case *FuncCall:
		if _, ok := aggFuncFor(ex.Name); ok {
			k := exprKey(ex, sc)
			if _, dup := seen[k]; !dup {
				seen[k] = len(*aggs)
				*aggs = append(*aggs, ex)
			}
			return // no nested aggregates
		}
		for _, a := range ex.Args {
			collectAggregates(a, sc, seen, aggs)
		}
	case *BinaryOp:
		collectAggregates(ex.Left, sc, seen, aggs)
		collectAggregates(ex.Right, sc, seen, aggs)
	case *UnaryOp:
		collectAggregates(ex.Expr, sc, seen, aggs)
	case *CaseExpr:
		if ex.Operand != nil {
			collectAggregates(ex.Operand, sc, seen, aggs)
		}
		for _, w := range ex.Whens {
			collectAggregates(w.When, sc, seen, aggs)
			collectAggregates(w.Then, sc, seen, aggs)
		}
		if ex.Else != nil {
			collectAggregates(ex.Else, sc, seen, aggs)
		}
	case *CastExpr:
		collectAggregates(ex.Expr, sc, seen, aggs)
	case *IsNullExpr:
		collectAggregates(ex.Expr, sc, seen, aggs)
	case *BetweenExpr:
		collectAggregates(ex.Expr, sc, seen, aggs)
		collectAggregates(ex.Lo, sc, seen, aggs)
		collectAggregates(ex.Hi, sc, seen, aggs)
	}
}

// compileAggregateWithOrder compiles the aggregation pipeline and the
// ORDER BY keys of an aggregating SELECT: ordinals and output names bind
// to the projection; other expressions (e.g. ORDER BY COUNT(*)) are
// resolved against the aggregated row.
func (c *Compiler) compileAggregateWithOrder(sel *SelectStmt, items []SelectItem, cur *compiled) (exec.Operator, types.Schema, []exec.SortKey, error) {
	op, outSchema, mapping, err := c.compileAggregate(sel, items, cur)
	if err != nil {
		return nil, nil, nil, err
	}
	outScope := &scope{}
	for _, col := range outSchema {
		outScope.add("", col.Name, col.Kind)
	}
	var keys []exec.SortKey
	for _, oi := range sel.OrderBy {
		var e exec.Expr
		switch {
		case oi.Ordinal > 0:
			if oi.Ordinal > len(outSchema) {
				return nil, nil, nil, fmt.Errorf("sql: ORDER BY ordinal %d out of range", oi.Ordinal)
			}
			e = exec.ColRef(oi.Ordinal - 1)
		default:
			probe := oi.Expr
			if ref, ok := probe.(*ColumnRef); ok && ref.Table != "" {
				if _, rerr := outScope.resolve("", ref.Column); rerr == nil {
					probe = &ColumnRef{Column: ref.Column}
				}
			}
			var cerr error
			e, cerr = c.compileExpr(probe, outScope)
			if cerr != nil {
				// The post-projection schema does not have it; ORDER BY
				// over select-item expressions: locate the matching item.
				found := false
				for i, it := range items {
					if exprKey(it.Expr, cur.scope) == exprKey(oi.Expr, cur.scope) {
						e = exec.ColRef(i)
						found = true
						break
					}
				}
				if !found {
					return nil, nil, nil, cerr
				}
			}
		}
		keys = append(keys, exec.SortKey{Expr: e, Desc: oi.Desc})
	}
	_ = mapping
	return op, outSchema, keys, nil
}

// compileAggregate builds GroupBy → Having → Project for an aggregating
// SELECT block.
func (c *Compiler) compileAggregate(sel *SelectStmt, items []SelectItem, cur *compiled) (exec.Operator, types.Schema, map[string]int, error) {
	inSc := cur.scope

	// Resolve GROUP BY terms: ordinals and select-list aliases (Netezza's
	// "GROUP BY output column name") resolve to the item's expression.
	var groupExprs []Expr
	for _, g := range sel.GroupBy {
		if lit, ok := g.(*Literal); ok {
			if n, isInt := lit.Val.AsInt(); isInt && lit.Val.Kind() == types.KindInt {
				if n < 1 || int(n) > len(items) {
					return nil, nil, nil, fmt.Errorf("sql: GROUP BY ordinal %d out of range", n)
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

	// Collect aggregate calls from the select list and HAVING.
	seen := make(map[string]int)
	var aggCalls []*FuncCall
	for _, it := range items {
		collectAggregates(it.Expr, inSc, seen, &aggCalls)
	}
	if sel.Having != nil {
		collectAggregates(sel.Having, inSc, seen, &aggCalls)
	}

	// Build the GroupByOp.
	g := &exec.GroupByOp{Child: cur.op, Gov: c.Gov}
	mapping := make(map[string]int) // exprKey -> post-agg ordinal
	for gi, ge := range groupExprs {
		ce, err := c.compileExpr(ge, inSc)
		if err != nil {
			return nil, nil, nil, err
		}
		g.GroupBy = append(g.GroupBy, ce)
		name := fmt.Sprintf("GRP%d", gi+1)
		if ref, ok := ge.(*ColumnRef); ok {
			name = ref.Column
		}
		g.GroupCols = append(g.GroupCols, types.Column{Name: name, Kind: types.KindNull, Nullable: true})
		mapping[exprKey(ge, inSc)] = gi
	}
	for ai, fc := range aggCalls {
		spec, err := c.buildAggSpec(fc, inSc)
		if err != nil {
			return nil, nil, nil, err
		}
		g.Aggs = append(g.Aggs, spec)
		mapping[exprKey(fc, inSc)] = len(groupExprs) + ai
	}

	var op exec.Operator = g

	// Parallelism: a group-by whose aggregates merge exactly, fed by a
	// columnar scan through filters and projections only, runs at the
	// session's effective degree, and so does that scan. (The operator
	// still ingests on one worker when a filter in between has no vector
	// kernel; key-ordered emit makes the scan's arrival order irrelevant.)
	if c.Parallelism > 1 && exec.MergeableAggs(g.Aggs) {
		if scan := scanBelow(cur.op); scan != nil {
			g.Dop, scan.Dop = c.Parallelism, c.Parallelism
		}
	}

	// HAVING, rewritten against the aggregated row.
	if sel.Having != nil {
		pred, err := c.compilePostAgg(sel.Having, mapping, inSc)
		if err != nil {
			return nil, nil, nil, err
		}
		op = &exec.FilterOp{Child: op, Pred: pred}
	}

	// Final projection, rewritten against the aggregated row.
	exprs := make([]exec.Expr, len(items))
	outSchema := make(types.Schema, len(items))
	for i, it := range items {
		e, err := c.compilePostAgg(it.Expr, mapping, inSc)
		if err != nil {
			return nil, nil, nil, err
		}
		exprs[i] = e
		outSchema[i] = types.Column{Name: c.itemName(it, i), Kind: types.KindNull, Nullable: true}
	}
	op = &exec.ProjectOp{Child: op, Exprs: exprs, Out: outSchema}
	return op, outSchema, mapping, nil
}

// scanBelow returns the columnar scan at the bottom of a Filter/Project
// chain, or nil when the chain ends in anything else.
func scanBelow(op exec.Operator) *exec.ScanOp {
	for {
		switch o := op.(type) {
		case *exec.ScanOp:
			return o
		case *exec.FilterOp:
			op = o.Child
		case *exec.ProjectOp:
			op = o.Child
		default:
			return nil
		}
	}
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

// compilePostAgg compiles an expression against the aggregated row:
// subtrees matching a GROUP BY expression or an aggregate call become
// column references into the group output; other column references are
// illegal (not grouped).
func (c *Compiler) compilePostAgg(e Expr, mapping map[string]int, inSc *scope) (exec.Expr, error) {
	if i, ok := mapping[exprKey(e, inSc)]; ok {
		return exec.ColRef(i), nil
	}
	switch ex := e.(type) {
	case *Literal:
		return exec.Const{V: ex.Val}, nil
	case *ColumnRef:
		return nil, fmt.Errorf("sql: column %s must appear in GROUP BY or inside an aggregate", ex.Column)
	case *BinaryOp:
		l, err := c.compilePostAgg(ex.Left, mapping, inSc)
		if err != nil {
			return nil, err
		}
		r, err := c.compilePostAgg(ex.Right, mapping, inSc)
		if err != nil {
			return nil, err
		}
		rebuilt := &BinaryOp{Op: ex.Op}
		return c.compileBinaryPre(rebuilt, l, r)
	case *UnaryOp:
		inner, err := c.compilePostAgg(ex.Expr, mapping, inSc)
		if err != nil {
			return nil, err
		}
		op := ex.Op
		return exec.FuncExpr(func(row types.Row) (types.Value, error) {
			v, err := inner.Eval(row)
			if err != nil {
				return types.Null, err
			}
			switch op {
			case "NOT":
				return not3(v), nil
			case "-":
				if v.IsNull() {
					return types.Null, nil
				}
				if v.Kind() == types.KindInt {
					return types.NewInt(-v.Int()), nil
				}
				f, _ := v.AsFloat()
				return types.NewFloat(-f), nil
			}
			return types.Null, fmt.Errorf("sql: unsupported unary %q", op)
		}), nil
	case *FuncCall:
		// Scalar function over aggregated values.
		fn, ok := c.UDX.Lookup(ex.Name)
		if !ok {
			var err error
			fn, err = LookupFunc(ex.Name, c.Dialect)
			if err != nil {
				return nil, err
			}
		}
		args := make([]exec.Expr, len(ex.Args))
		for i, a := range ex.Args {
			ce, err := c.compilePostAgg(a, mapping, inSc)
			if err != nil {
				return nil, err
			}
			args[i] = ce
		}
		env := c.Env
		return exec.FuncExpr(func(row types.Row) (types.Value, error) {
			vals := make([]types.Value, len(args))
			for i, a := range args {
				v, err := a.Eval(row)
				if err != nil {
					return types.Null, err
				}
				vals[i] = v
			}
			return fn.Fn(env, vals)
		}), nil
	case *CastExpr:
		kind, err := TypeKindFor(ex.Type)
		if err != nil {
			return nil, err
		}
		inner, err := c.compilePostAgg(ex.Expr, mapping, inSc)
		if err != nil {
			return nil, err
		}
		return exec.FuncExpr(func(row types.Row) (types.Value, error) {
			v, err := inner.Eval(row)
			if err != nil {
				return types.Null, err
			}
			return types.Coerce(v, kind)
		}), nil
	case *CaseExpr:
		// Compile arms via post-agg resolution.
		rebuilt := &CaseExpr{}
		var err error
		var operand exec.Expr
		if ex.Operand != nil {
			operand, err = c.compilePostAgg(ex.Operand, mapping, inSc)
			if err != nil {
				return nil, err
			}
		}
		type arm struct{ when, then exec.Expr }
		arms := make([]arm, len(ex.Whens))
		for i, w := range ex.Whens {
			we, err := c.compilePostAgg(w.When, mapping, inSc)
			if err != nil {
				return nil, err
			}
			te, err := c.compilePostAgg(w.Then, mapping, inSc)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{when: we, then: te}
		}
		var elseE exec.Expr
		if ex.Else != nil {
			elseE, err = c.compilePostAgg(ex.Else, mapping, inSc)
			if err != nil {
				return nil, err
			}
		}
		_ = rebuilt
		return exec.FuncExpr(func(row types.Row) (types.Value, error) {
			var opv types.Value
			if operand != nil {
				var err error
				opv, err = operand.Eval(row)
				if err != nil {
					return types.Null, err
				}
			}
			for _, a := range arms {
				w, err := a.when.Eval(row)
				if err != nil {
					return types.Null, err
				}
				hit := false
				if operand != nil {
					hit = types.Equal(opv, w)
				} else {
					hit = !w.IsNull() && w.Kind() == types.KindBool && w.Bool()
				}
				if hit {
					return a.then.Eval(row)
				}
			}
			if elseE != nil {
				return elseE.Eval(row)
			}
			return types.Null, nil
		}), nil
	case *IsNullExpr:
		inner, err := c.compilePostAgg(ex.Expr, mapping, inSc)
		if err != nil {
			return nil, err
		}
		not := ex.Not
		return exec.FuncExpr(func(row types.Row) (types.Value, error) {
			v, err := inner.Eval(row)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(v.IsNull() != not), nil
		}), nil
	case *BetweenExpr:
		val, err := c.compilePostAgg(ex.Expr, mapping, inSc)
		if err != nil {
			return nil, err
		}
		lo, err := c.compilePostAgg(ex.Lo, mapping, inSc)
		if err != nil {
			return nil, err
		}
		hi, err := c.compilePostAgg(ex.Hi, mapping, inSc)
		if err != nil {
			return nil, err
		}
		not := ex.Not
		return exec.FuncExpr(func(row types.Row) (types.Value, error) {
			v, err := val.Eval(row)
			if err != nil {
				return types.Null, err
			}
			l, err := lo.Eval(row)
			if err != nil {
				return types.Null, err
			}
			h, err := hi.Eval(row)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() || l.IsNull() || h.IsNull() {
				return types.Null, nil
			}
			in := types.Compare(v, l) >= 0 && types.Compare(v, h) <= 0
			return types.NewBool(in != not), nil
		}), nil
	}
	return nil, fmt.Errorf("sql: unsupported expression %T after aggregation", e)
}

// compileBinaryPre builds the runtime evaluator for a binary operator
// whose operands are already compiled.
func (c *Compiler) compileBinaryPre(ex *BinaryOp, left, right exec.Expr) (exec.Expr, error) {
	op := ex.Op
	switch op {
	case "AND":
		return &exec.AndExpr{L: left, R: right}, nil
	case "OR":
		return &exec.OrExpr{L: left, R: right}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		cmp, _ := cmpOpFor(op)
		return &exec.CmpExpr{Op: cmp, L: left, R: right}, nil
	case "||":
		return exec.FuncExpr(func(row types.Row) (types.Value, error) {
			a, err := left.Eval(row)
			if err != nil {
				return types.Null, err
			}
			b, err := right.Eval(row)
			if err != nil {
				return types.Null, err
			}
			if a.IsNull() || b.IsNull() {
				return types.Null, nil
			}
			return types.NewString(a.String() + b.String()), nil
		}), nil
	default:
		return &exec.ArithExpr{Op: op, L: left, R: right}, nil
	}
}
