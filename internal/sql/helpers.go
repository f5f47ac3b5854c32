package sql

import (
	"dashdb/internal/columnar"
	"dashdb/internal/exec"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// EvalConst evaluates an expression with no input columns (VALUES rows,
// CALL arguments): it is compiled against an empty scope and run over a
// batch of one position and no columns. Sequence references and scalar
// subqueries are allowed. What compiles to a constant (a literal, a bound
// parameter) is its own value: an INSERT's VALUES list is almost all
// literals, and a batch and a constant vector for each measurably slows
// core.insert_us.
func (c *Compiler) EvalConst(e Expr) (types.Value, error) {
	ce, err := c.compileExpr(e, &scope{})
	if err != nil {
		return types.Null, err
	}
	if k, ok := ce.(exec.Const); ok {
		return k.V, nil
	}
	v, err := ce.EvalVec(vec.NewBatch(nil, nil, 1))
	if err != nil {
		return types.Null, err
	}
	return v.Get(0), nil
}

// CompileRowExpr compiles an expression against a single table's schema
// (UPDATE SET clauses, CHECK-style predicates).
func (c *Compiler) CompileRowExpr(e Expr, sch types.Schema) (exec.Expr, error) {
	sc := &scope{}
	for _, col := range sch {
		sc.add("", col.Name, col.Kind)
	}
	return c.compileExpr(e, sc)
}

// CompileTablePredicate splits a WHERE clause for direct table DML into
// pushable columnar scan predicates and a residual row filter (nil when
// everything pushed down). The same split the query compiler applies to
// base-table scans.
func (c *Compiler) CompileTablePredicate(where Expr, sch types.Schema) ([]columnar.Pred, exec.Expr, error) {
	if where == nil {
		return nil, nil, nil
	}
	conjuncts := Conjuncts(where)
	var preds []columnar.Pred
	var rest []Expr
	for _, cj := range conjuncts {
		if p, ok := c.asScanPred(cj, "", sch); ok {
			preds = append(preds, p...)
			continue
		}
		rest = append(rest, cj)
	}
	if len(rest) == 0 {
		return preds, nil, nil
	}
	sc := &scope{}
	for _, col := range sch {
		sc.add("", col.Name, col.Kind)
	}
	residual, err := c.compileConjuncts(rest, sc)
	if err != nil {
		return nil, nil, err
	}
	return preds, residual, nil
}
