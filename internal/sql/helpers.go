package sql

import (
	"fmt"
	"strings"

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

// EvalRow evaluates a row of expressions with EvalConst: a VALUES or
// INSERT row, CALL arguments.
func (c *Compiler) EvalRow(exprs []Expr) (types.Row, error) {
	row := make(types.Row, len(exprs))
	for i, e := range exprs {
		v, err := c.EvalConst(e)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// EvalRows evaluates rows of expressions with EvalRow (VALUES, an
// INSERT's literal rows). Every row must be as wide as the first.
func (c *Compiler) EvalRows(exprs [][]Expr) ([]types.Row, error) {
	rows := make([]types.Row, len(exprs))
	for r, er := range exprs {
		if len(er) != len(exprs[0]) {
			return nil, fmt.Errorf("sql: VALUES rows have differing arity")
		}
		var err error
		if rows[r], err = c.EvalRow(er); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// Place maps the batches an INSERT inserts, a column for each column its
// list names, onto the table's schema, in place: a column the list leaves
// out is a NULL constant. Without a list a batch is every column in order.
func (st *InsertStmt) Place(schema types.Schema, bs []*vec.Batch) error {
	width := len(schema)
	if len(st.Columns) > 0 {
		width = len(st.Columns)
	}
	idx := make([]int, len(st.Columns))
	for i, name := range st.Columns {
		if idx[i] = schema.ColumnIndex(name); idx[i] < 0 {
			return fmt.Errorf("sql: column %s not in table %s", name, st.Table)
		}
	}
	for k, b := range bs {
		if b.NumCols() != width {
			return fmt.Errorf("sql: INSERT has %d values for %d columns", b.NumCols(), width)
		}
		if len(idx) == 0 {
			continue
		}
		cols := make([]*vec.Vector, len(schema))
		for i, col := range schema {
			cols[i] = vec.NewConst(types.NullOf(col.Kind))
		}
		for i, ci := range idx {
			cols[ci] = b.Col(i)
		}
		placed := vec.NewBatch(schema, cols, b.N)
		placed.Sel = b.Sel
		placed.Adopt(b)
		bs[k] = placed
	}
	return nil
}

// CompileRowExpr compiles an expression against a single table's schema
// (UPDATE SET clauses, CHECK-style predicates).
func (c *Compiler) CompileRowExpr(e Expr, sch types.Schema) (exec.Expr, error) {
	sc := &scope{}
	for _, col := range sch {
		sc.add("", col.Name)
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
		sc.add("", col.Name)
	}
	residual, err := c.compileConjuncts(rest, sc)
	if err != nil {
		return nil, nil, err
	}
	return preds, residual, nil
}

// CheckTableFilter refuses a predicate over one table that could read past
// it: a subquery, or a column reference that names no column of sch or is
// qualified by another name than table.
func CheckTableFilter(e Expr, table string, sch types.Schema) (err error) {
	WalkExpr(e, func(x Expr) bool {
		if SubqueryOf(x) != nil {
			err = fmt.Errorf("sql: a filter on %s cannot hold a subquery", table)
		} else if ref, ok := x.(*ColumnRef); ok && (ref.Table != "" && !strings.EqualFold(ref.Table, table) || sch.ColumnIndex(ref.Column) < 0) {
			err = fmt.Errorf("sql: table %s has no column %s", table, ref.Column)
		}
		return err == nil
	})
	return err
}
