package sql

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"dashdb/internal/exec"
	"dashdb/internal/types"
)

// TypeKindFor maps a SQL type name (any dialect) to the engine kind.
func TypeKindFor(name string) (types.Kind, error) {
	switch strings.ToUpper(name) {
	case "VARCHAR", "VARCHAR2", "CHAR", "CHARACTER", "BPCHAR", "TEXT", "GRAPHIC", "VARGRAPHIC", "CLOB", "STRING", "NVARCHAR":
		return types.KindString, nil
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT", "INT2", "INT4", "INT8", "BYTEINT":
		return types.KindInt, nil
	case "FLOAT", "FLOAT4", "FLOAT8", "DOUBLE", "REAL", "DECFLOAT", "DECIMAL", "NUMERIC", "NUMBER", "MONEY":
		return types.KindFloat, nil
	case "DATE":
		return types.KindDate, nil
	case "TIMESTAMP", "DATETIME":
		return types.KindTimestamp, nil
	case "BOOLEAN", "BOOL":
		return types.KindBool, nil
	default:
		return types.KindNull, fmt.Errorf("sql: unsupported type %s", name)
	}
}

// compileExpr lowers an AST expression to an executor expression bound to
// the given scope. It is the only expression compiler: in the scope of an
// aggregated row (sc.agg) a subtree that is a GROUP BY term or a collected
// aggregate call reads the group-by's output column, and everything
// around it compiles exactly as it would before aggregation.
func (c *Compiler) compileExpr(e Expr, sc *scope) (exec.Expr, error) {
	if sc.agg != nil {
		if i, ok := sc.agg.out[exprKey(e, sc.agg.in)]; ok {
			return exec.ColRef(i), nil
		}
	}
	switch ex := e.(type) {
	case *Literal:
		return exec.Const{V: ex.Val}, nil

	case *ColumnRef:
		if sc.agg != nil {
			return nil, fmt.Errorf("sql: column %s must appear in GROUP BY or inside an aggregate", ex.Column)
		}
		i, err := sc.resolve(ex.Table, ex.Column)
		if err != nil {
			return nil, err
		}
		return exec.ColRef(i), nil

	case *BinaryOp:
		return c.compileBinary(ex, sc)

	case *UnaryOp:
		inner, err := c.compileExpr(ex.Expr, sc)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "NOT":
			return &exec.NotExpr{E: inner}, nil
		case "-":
			return &exec.NegExpr{E: inner}, nil
		}
		return nil, fmt.Errorf("sql: unsupported unary operator %q", ex.Op)

	case *FuncCall:
		if _, isAgg := aggFuncFor(ex.Name); isAgg {
			return nil, fmt.Errorf("sql: aggregate %s is not allowed here", ex.Name)
		}
		return c.compileScalarCall(ex, sc)

	case *CaseExpr:
		return c.compileCase(ex, sc)

	case *CastExpr:
		kind, err := TypeKindFor(ex.Type)
		if err != nil {
			return nil, err
		}
		inner, err := c.compileExpr(ex.Expr, sc)
		if err != nil {
			return nil, err
		}
		return apply(func(a []types.Value) (types.Value, error) { return types.Coerce(a[0], kind) }, inner), nil

	case *IsNullExpr:
		inner, err := c.compileExpr(ex.Expr, sc)
		if err != nil {
			return nil, err
		}
		not := ex.Not
		return apply(func(a []types.Value) (types.Value, error) {
			return types.NewBool(a[0].IsNull() != not), nil
		}, inner), nil

	case *IsBoolExpr:
		inner, err := c.compileExpr(ex.Expr, sc)
		if err != nil {
			return nil, err
		}
		want, not := ex.Want, ex.Not
		return apply(func(a []types.Value) (types.Value, error) {
			res := !a[0].IsNull() && a[0].Bool() == want
			return types.NewBool(res != not), nil
		}, inner), nil

	case *BetweenExpr:
		args, err := c.compileExprs(sc, ex.Expr, ex.Lo, ex.Hi)
		if err != nil {
			return nil, err
		}
		not := ex.Not
		return apply(func(a []types.Value) (types.Value, error) {
			if anyNull(a) {
				return types.Null, nil
			}
			in := types.Compare(a[0], a[1]) >= 0 && types.Compare(a[0], a[2]) <= 0
			return types.NewBool(in != not), nil
		}, args...), nil

	case *InExpr:
		return c.compileIn(ex, sc)

	case *ExistsExpr:
		rowsFn := c.lazySubquery(ex.Sub)
		not := ex.Not
		return stateful(func([]types.Value) (types.Value, error) {
			rows, _, err := rowsFn()
			if err != nil {
				return types.Null, err
			}
			return types.NewBool((len(rows) > 0) != not), nil
		}), nil

	case *SubqueryExpr:
		rowsFn := c.lazySubquery(ex.Sub)
		return stateful(func([]types.Value) (types.Value, error) {
			rows, _, err := rowsFn()
			if err != nil {
				return types.Null, err
			}
			if len(rows) == 0 {
				return types.Null, nil
			}
			if len(rows) > 1 {
				return types.Null, fmt.Errorf("sql: scalar subquery returned %d rows", len(rows))
			}
			if len(rows[0]) != 1 {
				return types.Null, fmt.Errorf("sql: scalar subquery must return one column")
			}
			return rows[0][0], nil
		}), nil

	case *SeqValExpr:
		seq, ok := c.Cat.Sequence(ex.Seq)
		if !ok {
			return nil, fmt.Errorf("sql: sequence %s does not exist", ex.Seq)
		}
		next := ex.Next
		return stateful(func([]types.Value) (types.Value, error) {
			if next {
				return types.NewInt(seq.NextVal()), nil
			}
			v, err := seq.CurrVal()
			if err != nil {
				return types.Null, err
			}
			return types.NewInt(v), nil
		}), nil

	case *ParamExpr:
		idx := ex.Index
		params := c.Params
		if idx >= len(params) {
			return nil, fmt.Errorf("sql: statement has parameter ?%d but only %d values bound", idx+1, len(params))
		}
		return exec.Const{V: params[idx]}, nil

	case *RownumExpr:
		// ROWNUM as an expression: a per-plan running counter.
		n := new(int64)
		return stateful(func([]types.Value) (types.Value, error) {
			*n++
			return types.NewInt(*n), nil
		}), nil

	case *OverlapsExpr:
		args, err := c.compileExprs(sc, ex.S1, ex.E1, ex.S2, ex.E2)
		if err != nil {
			return nil, err
		}
		return apply(func(a []types.Value) (types.Value, error) {
			if anyNull(a) {
				return types.Null, nil
			}
			s1, e1, s2, e2 := a[0], a[1], a[2], a[3]
			if types.Compare(s1, e1) > 0 {
				s1, e1 = e1, s1
			}
			if types.Compare(s2, e2) > 0 {
				s2, e2 = e2, s2
			}
			// SQL standard: (s1,e1) OVERLAPS (s2,e2) ⇔ s1 < e2 AND s2 < e1.
			return types.NewBool(types.Compare(s1, e2) < 0 && types.Compare(s2, e1) < 0), nil
		}, args...), nil

	case *Star:
		return nil, fmt.Errorf("sql: * is only allowed in the select list")
	}
	return nil, fmt.Errorf("sql: unsupported expression %T", e)
}

func (c *Compiler) compileBinary(ex *BinaryOp, sc *scope) (exec.Expr, error) {
	left, err := c.compileExpr(ex.Left, sc)
	if err != nil {
		return nil, err
	}
	right, err := c.compileExpr(ex.Right, sc)
	if err != nil {
		return nil, err
	}
	op := ex.Op
	switch op {
	case "AND":
		return &exec.AndExpr{L: left, R: right}, nil
	case "OR":
		return &exec.OrExpr{L: left, R: right}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		cmp, _ := cmpOpFor(op)
		return &exec.CmpExpr{Op: cmp, L: left, R: right}, nil
	case "LIKE":
		return apply(func(a []types.Value) (types.Value, error) {
			if anyNull(a) {
				return types.Null, nil
			}
			return types.NewBool(LikeMatch(a[0].String(), a[1].String())), nil
		}, left, right), nil
	case "||":
		oracle := c.Dialect == DialectOracle
		return apply(func(a []types.Value) (types.Value, error) {
			// Oracle treats NULL as '' in concatenation; ANSI yields NULL.
			if !oracle && anyNull(a) {
				return types.Null, nil
			}
			as, bs := "", ""
			if !a[0].IsNull() {
				as = a[0].String()
			}
			if !a[1].IsNull() {
				bs = a[1].String()
			}
			return types.NewString(as + bs), nil
		}, left, right), nil
	case "+", "-", "*", "/", "%":
		// Structured arithmetic nodes vectorize; exec.ArithValue is the
		// scalar semantics (numeric promotion, date ± int day arithmetic).
		return &exec.ArithExpr{Op: op, L: left, R: right}, nil
	}
	return nil, fmt.Errorf("sql: unsupported binary operator %q", op)
}

func (c *Compiler) compileScalarCall(ex *FuncCall, sc *scope) (exec.Expr, error) {
	fn, udx := c.UDX.Lookup(ex.Name)
	if !udx {
		var err error
		if fn, err = LookupFunc(ex.Name, c.Dialect); err != nil {
			return nil, err
		}
	}
	if len(ex.Args) < fn.MinArgs || (fn.MaxArgs >= 0 && len(ex.Args) > fn.MaxArgs) {
		return nil, fmt.Errorf("sql: %s expects %d..%d arguments, got %d", fn.Name, fn.MinArgs, fn.MaxArgs, len(ex.Args))
	}
	args, err := c.compileExprs(sc, ex.Args...)
	if err != nil {
		return nil, err
	}
	env, call := c.Env, fn.Fn
	if udx {
		// User code: it may keep its argument slice, and it has never been
		// entered by two goroutines at once.
		return stateful(func(a []types.Value) (types.Value, error) { return call(env, slices.Clone(a)) }, args...), nil
	}
	return apply(func(a []types.Value) (types.Value, error) { return call(env, a) }, args...), nil
}

func (c *Compiler) compileCase(ex *CaseExpr, sc *scope) (exec.Expr, error) {
	var operand exec.Expr
	var err error
	if ex.Operand != nil {
		operand, err = c.compileExpr(ex.Operand, sc)
		if err != nil {
			return nil, err
		}
	}
	out := &exec.CaseExpr{Operand: operand, Whens: make([]exec.CaseWhen, len(ex.Whens))}
	for i, w := range ex.Whens {
		if out.Whens[i].When, err = c.compileExpr(w.When, sc); err != nil {
			return nil, err
		}
		if out.Whens[i].Then, err = c.compileExpr(w.Then, sc); err != nil {
			return nil, err
		}
	}
	if ex.Else != nil {
		if out.Else, err = c.compileExpr(ex.Else, sc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c *Compiler) compileIn(ex *InExpr, sc *scope) (exec.Expr, error) {
	val, err := c.compileExpr(ex.Expr, sc)
	if err != nil {
		return nil, err
	}
	not := ex.Not
	if ex.Sub != nil {
		rowsFn := c.lazySubquery(ex.Sub)
		return stateful(func(a []types.Value) (types.Value, error) {
			v := a[0]
			if v.IsNull() {
				return types.Null, nil
			}
			rows, _, err := rowsFn()
			if err != nil {
				return types.Null, err
			}
			sawNull := false
			for _, r := range rows {
				if len(r) != 1 {
					return types.Null, fmt.Errorf("sql: IN subquery must return one column")
				}
				if r[0].IsNull() {
					sawNull = true
					continue
				}
				if types.Equal(v, r[0]) {
					return types.NewBool(!not), nil
				}
			}
			if sawNull {
				return types.Null, nil
			}
			return types.NewBool(not), nil
		}, val), nil
	}
	list, err := c.compileExprs(sc, ex.List...)
	if err != nil {
		return nil, err
	}
	return &exec.InExpr{E: val, List: list, Not: not}, nil
}

// compileExprs compiles a list of operands in one scope.
func (c *Compiler) compileExprs(sc *scope, exprs ...Expr) ([]exec.Expr, error) {
	out := make([]exec.Expr, len(exprs))
	for i, e := range exprs {
		var err error
		if out[i], err = c.compileExpr(e, sc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// apply is a pure function of its argument expressions: exec evaluates args
// as vectors and calls fn once per live position, on any worker.
func apply(fn func(a []types.Value) (types.Value, error), args ...exec.Expr) exec.Expr {
	return &exec.ApplyExpr{Args: args, Fn: fn}
}

// stateful is an apply whose calls depend on each other — a sequence,
// ROWNUM, a subquery materialized on first use — so exec keeps the operator
// holding it on one goroutine, evaluating in position order.
func stateful(fn func(a []types.Value) (types.Value, error), args ...exec.Expr) exec.Expr {
	return &exec.ApplyExpr{Args: args, Fn: fn, Stateful: true}
}

// lazySubquery compiles an uncorrelated subquery now and materializes it
// at most once, on first evaluation.
func (c *Compiler) lazySubquery(sub *SelectStmt) func() ([]types.Row, types.Schema, error) {
	var (
		once sync.Once
		rows []types.Row
		sch  types.Schema
		err  error
	)
	op, cerr := c.CompileSelect(sub)
	return func() ([]types.Row, types.Schema, error) {
		if cerr != nil {
			return nil, nil, cerr
		}
		once.Do(func() {
			rows, err = drain(op)
			sch = op.Schema()
		})
		return rows, sch, err
	}
}
