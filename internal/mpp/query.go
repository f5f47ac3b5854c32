package mpp

import (
	"fmt"
	"strings"

	"dashdb/internal/catalog"
	"dashdb/internal/exec"
	"dashdb/internal/sql"
	"dashdb/internal/types"
)

// evalInsertRows evaluates an INSERT's literal rows with a scratch
// compiler (constant folding needs a catalog but never looks a table up,
// so an empty one serves) and maps any column list onto the table schema.
func evalInsertRows(stmt *sql.InsertStmt, schema types.Schema, d sql.Dialect) ([]types.Row, error) {
	comp := sql.NewCompiler(catalog.New(), d, &sql.EvalEnv{Dialect: d})
	var rows []types.Row
	for _, exprRow := range stmt.Rows {
		row := make(types.Row, len(exprRow))
		for i, e := range exprRow {
			ce, err := comp.CompileConstExpr(e)
			if err != nil {
				return nil, err
			}
			v, err := ce.Eval(nil)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if len(stmt.Columns) > 0 {
			full := make(types.Row, len(schema))
			for i := range full {
				full[i] = types.NullOf(schema[i].Kind)
			}
			for i, name := range stmt.Columns {
				ci := schema.ColumnIndex(name)
				if ci < 0 {
					return nil, fmt.Errorf("mpp: column %s not in table %s", name, stmt.Table)
				}
				full[ci] = row[i]
			}
			row = full
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// fastPlan describes a decomposed aggregate query.
type fastPlan struct {
	groupN int // leading group-by output columns
	aggs   []fastAgg
	plain  bool // no aggregation: scatter-concat
	// singleShard: every FROM table is replicated, so the query must run
	// on exactly one shard (scattering would multiply results).
	singleShard bool
}

type fastAgg struct {
	kind    exec.AggFunc // final merge function
	avgPair bool         // AVG: partials are (sum, count)
	name    string
}

// needsWholeTable reports whether the statement holds a subquery or
// Oracle's ROWNUM anywhere the scatter paths would hand an expression to
// the shards: select items, WHERE, every JOIN's ON. A shard would answer
// it over its own slice of the table, so such a statement is gathered.
func needsWholeTable(sel *sql.SelectStmt) bool {
	found := false
	visit := func(e sql.Expr) bool {
		_, rownum := e.(*sql.RownumExpr)
		found = found || rownum || sql.SubqueryOf(e) != nil
		return !found
	}
	var walkFrom func(fi sql.FromItem)
	walkFrom = func(fi sql.FromItem) {
		if j, ok := fi.(*sql.JoinRef); ok {
			walkFrom(j.Left)
			walkFrom(j.Right)
			sql.WalkExpr(j.On, visit)
		}
	}
	for _, it := range sel.Items {
		sql.WalkExpr(it.Expr, visit)
	}
	sql.WalkExpr(sel.Where, visit)
	for _, fi := range sel.From {
		walkFrom(fi)
	}
	return found
}

// countFromTables walks the FROM clause counting non-replicated cluster
// tables; ok=false when any table is unknown or the join shape is
// outside the fast path.
func countFromTables(sel *sql.SelectStmt, lookup func(string) (replicated, known bool)) (int, bool) {
	nonRepl := 0
	var checkFrom func(fi sql.FromItem) bool
	checkFrom = func(fi sql.FromItem) bool {
		switch f := fi.(type) {
		case *sql.TableRef:
			repl, known := lookup(f.Name)
			if !known {
				return false
			}
			if !repl {
				nonRepl++
			}
			return true
		case *sql.JoinRef:
			if f.Type == "RIGHT" { // keep the fast path simple
				return false
			}
			return checkFrom(f.Left) && checkFrom(f.Right)
		default:
			return false
		}
	}
	if len(sel.From) == 0 {
		return 0, false
	}
	for _, fi := range sel.From {
		if !checkFrom(fi) {
			return 0, false
		}
	}
	return nonRepl, true
}

// classifySelect decides whether the statement's shape (everything but
// the FROM placement) decomposes into partial aggregation: no
// CTEs/UNION/DISTINCT/HAVING, subqueries or ROWNUM, aggregates limited to
// COUNT/SUM/MIN/MAX/AVG, select items either group-by columns or
// aggregate calls. Shared by the scatter fast path and the shuffle-join
// path (partial aggregation is correct over ANY disjoint partitioning
// of the input rows).
func classifySelect(sel *sql.SelectStmt) (*fastPlan, bool) {
	if len(sel.With) > 0 || sel.Union != nil || sel.Distinct || sel.Having != nil {
		return nil, false
	}
	if needsWholeTable(sel) {
		return nil, false
	}
	groupKeys := make(map[string]bool)
	for _, g := range sel.GroupBy {
		if ref, ok := g.(*sql.ColumnRef); ok {
			groupKeys[strings.ToLower(ref.Column)] = true
		} else {
			return nil, false // complex group expressions: gather path
		}
	}
	plan := &fastPlan{}
	hasAgg := false
	for _, it := range sel.Items {
		switch e := it.Expr.(type) {
		case *sql.ColumnRef:
			if !groupKeys[strings.ToLower(e.Column)] && len(sel.GroupBy) > 0 {
				return nil, false
			}
			if len(sel.GroupBy) == 0 {
				// Plain select column.
				continue
			}
			plan.groupN++
			if hasAgg {
				return nil, false // group cols must precede aggregates
			}
		case *sql.FuncCall:
			fa, ok := decomposableAgg(e)
			if !ok {
				return nil, false
			}
			fa.name = it.Alias
			if fa.name == "" {
				fa.name = e.Name
			}
			plan.aggs = append(plan.aggs, fa)
			hasAgg = true
		case *sql.Star:
			if len(sel.GroupBy) > 0 {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	if !hasAgg && len(sel.GroupBy) > 0 {
		return nil, false
	}
	if !hasAgg {
		// Plain select: ORDER BY must be ordinal- or name-resolvable at
		// the coordinator; defer that check to netFastPath, whose caller
		// falls back on error.
		plan.plain = true
	}
	return plan, true
}

// decomposableAgg recognizes aggregates with distributive merges.
func decomposableAgg(fc *sql.FuncCall) (fastAgg, bool) {
	if fc.Distinct {
		return fastAgg{}, false
	}
	switch strings.ToUpper(fc.Name) {
	case "COUNT":
		return fastAgg{kind: exec.AggSum}, true
	case "SUM":
		return fastAgg{kind: exec.AggSum}, true
	case "MIN":
		return fastAgg{kind: exec.AggMin}, true
	case "MAX":
		return fastAgg{kind: exec.AggMax}, true
	case "AVG":
		return fastAgg{kind: exec.AggSum, avgPair: true}, true
	}
	return fastAgg{}, false
}
