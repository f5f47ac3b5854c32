package sql

import (
	"fmt"
	"slices"
	"strings"

	"dashdb/internal/catalog"
	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/exec"
	"dashdb/internal/mem"
	"dashdb/internal/plan"
	"dashdb/internal/types"
)

// Compiler binds ASTs to a catalog and produces executor plans. One
// Compiler serves one statement (it carries the session dialect and clock).
type Compiler struct {
	// Cat resolves tables, views, nicknames and sequences. Nil resolves
	// nothing: such a compiler reads only what is bound (the MPP
	// coordinator's).
	Cat     *catalog.Catalog
	Dialect Dialect
	Env     *EvalEnv

	// bound is the table of names bound for this statement alone: its
	// CTEs, and what the caller bound with Bind (the coordinator's pulls, a
	// shard's shuffle partitions). A bound name shadows a catalog object
	// and is read as the batches its source holds.
	bound     map[string]catalog.RemoteSource
	viewDepth int
	usage     *colUsage
	// UDX resolves user-defined functions before the built-in library.
	UDX *FuncRegistry
	// Params binds positional ? markers for this execution.
	Params []types.Value
	// Parallelism is the session's effective intra-query parallelism
	// degree (auto-configured, WLM-clamped, per-session overridable).
	// Degrees above 1 become the Dop of every group-by whose aggregates
	// merge exactly and of the scan feeding it; 0/1 keeps every plan serial.
	Parallelism int
	// Gov is the session's memory governor: blocking operators acquire
	// heap reservations through it and spill when denied — in every block
	// of the statement, view bodies, CTEs and subqueries included. Nil
	// runs the same operators with nothing ever denied.
	Gov *mem.Governor
	// NoCompressedExec disables operate-on-compressed-data execution:
	// scans decode every dictionary column up front and predicates, join
	// keys, and group keys all run over values. Used for parity testing
	// and as an escape hatch.
	NoCompressedExec bool
	// DisableJoinReorder lowers FROM clauses in syntactic order with the
	// historical fixed build side instead of running the planner's
	// greedy join-ordering and build-side-selection passes. Settable per
	// session via SET JOIN_ORDER SYNTACTIC, and used by the
	// join-order-invariance suite as the ablation baseline.
	DisableJoinReorder bool
	// Snaps is the statement's snapshot set: every columnar scan the
	// compiler builds is pinned to one epoch per table through it, so a
	// statement's operators and planner statistics all read one
	// consistent view regardless of concurrent ingest. The session layer
	// owns the set and releases it when the statement finishes. Nil
	// leaves scans unpinned (each pins its own epoch at Open).
	Snaps *columnar.SnapshotSet
}

// planOptions translates compiler knobs into lowering options.
func (c *Compiler) planOptions() plan.Options {
	return plan.Options{Greedy: !c.DisableJoinReorder, Gov: c.Gov, Dop: c.Parallelism}
}

// NewCompiler creates a compiler for the given catalog and dialect.
func NewCompiler(cat *catalog.Catalog, d Dialect, env *EvalEnv) *Compiler {
	return &Compiler{Cat: cat, Dialect: d, Env: env, bound: make(map[string]catalog.RemoteSource)}
}

// Bind names src for this compiler's statement. The compiler calls
// ScanAll once per reference to the name.
func (c *Compiler) Bind(name string, src catalog.RemoteSource) {
	c.bound[strings.ToLower(name)] = src
}

// scopeCol is one resolvable column: its source alias and name.
type scopeCol struct {
	table string // alias, lowercased
	name  string // column name, lowercased
}

// scope maps qualified names to ordinals in the current row layout.
type scope struct {
	cols []scopeCol
	// agg marks the scope of an aggregated row (HAVING and the select
	// items of an aggregating block): no input column is visible, and an
	// expression that is a GROUP BY term or a collected aggregate call
	// is a column of the group-by's output.
	agg *aggScope
}

// aggScope is what a group-by exposes to the expressions above it.
type aggScope struct {
	in  *scope         // the group-by's input; exprKey binds names against it
	out map[string]int // exprKey of a GROUP BY term or aggregate call → output ordinal
}

func (s *scope) add(table, name string) {
	s.cols = append(s.cols, scopeCol{table: strings.ToLower(table), name: strings.ToLower(name)})
}

// resolve finds the ordinal of table.column ("" table = unqualified).
func (s *scope) resolve(table, column string) (int, error) {
	t, c := strings.ToLower(table), strings.ToLower(column)
	found := -1
	for i, col := range s.cols {
		if col.name != c {
			continue
		}
		if t != "" && col.table != t {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: column reference %q is ambiguous", column)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return 0, fmt.Errorf("sql: column %s.%s not found", table, column)
		}
		return 0, fmt.Errorf("sql: column %s not found", column)
	}
	return found, nil
}

// qualified returns e with each column reference qualified by the table
// that holds it in s, or the error of one s does not resolve.
func (s *scope) qualified(e Expr) (Expr, error) {
	var err error
	out := MapExpr(e, func(x Expr) Expr {
		ref, ok := x.(*ColumnRef)
		if !ok || err != nil {
			return nil
		}
		i, rerr := s.resolve(ref.Table, ref.Column)
		if err = rerr; err != nil {
			return x
		}
		return &ColumnRef{Table: s.cols[i].table, Column: ref.Column, OuterJoin: ref.OuterJoin}
	})
	return out, err
}

// merge concatenates two scopes (join output).
func (s *scope) merge(other *scope) *scope {
	m := &scope{}
	m.cols = append(append([]scopeCol{}, s.cols...), other.cols...)
	return m
}

// compiled is an operator plus its name scope.
type compiled struct {
	op    exec.Operator
	scope *scope
}

// planned is a logical-plan node plus its name scope. The FROM clause
// and the upper query pipeline compile into plan nodes; one plan.Lower
// call per SELECT block turns the tree into physical operators.
type planned struct {
	node  plan.Node
	scope *scope
}

// CompileSelect compiles a query to an operator tree.
func (c *Compiler) CompileSelect(sel *SelectStmt) (exec.Operator, error) {
	cpl, err := c.compileSelect(sel)
	if err != nil {
		return nil, err
	}
	return cpl.op, nil
}

// collect runs a tree the compiler materializes itself — a CTE body, an
// uncorrelated subquery. Such a tree comes from CompileSelect like the
// statement's own, so it runs on the same engine under the same governor
// and snapshot set. A variable so a test can see the trees run.
var collect = exec.Collect

func (c *Compiler) compileSelect(sel *SelectStmt) (*compiled, error) {
	// Run CTEs first; they are bound for the rest of this query, shadowing
	// catalog objects and any outer binding of the same name.
	saved := make(map[string]catalog.RemoteSource)
	for _, cte := range sel.With {
		k := strings.ToLower(cte.Name)
		saved[k] = c.bound[k]
		sub, err := c.CompileSelect(cte.Sub)
		if err != nil {
			return nil, fmt.Errorf("sql: CTE %s: %w", cte.Name, err)
		}
		batches, err := collect(sub)
		if err != nil {
			return nil, fmt.Errorf("sql: CTE %s: %w", cte.Name, err)
		}
		c.bound[k] = exec.NewBatches(sub.Schema(), batches)
	}
	defer func() {
		for _, cte := range sel.With {
			k := strings.ToLower(cte.Name)
			if saved[k] == nil {
				delete(c.bound, k)
			} else {
				c.bound[k] = saved[k]
			}
		}
	}()

	if sel.Union == nil {
		return c.compileSelectCore(sel)
	}
	// A set operation: the operands are blocks with no tail of their own,
	// folded left to right; the statement's ORDER BY, LIMIT and OFFSET
	// apply to the whole chain.
	head := *sel
	head.OrderBy, head.Limit, head.Offset = nil, -1, 0
	left, err := c.compileSelectCore(&head)
	if err != nil {
		return nil, err
	}
	out := left.op.Schema()
	var node plan.Node = &plan.Input{Op: left.op}
	for u := sel; u.Union != nil; u = u.Union {
		right, err := c.compileSelectCore(u.Union)
		if err != nil {
			return nil, err
		}
		if len(right.op.Schema()) != len(out) {
			return nil, fmt.Errorf("sql: UNION operands have different arity")
		}
		node = &plan.Input{Op: &exec.UnionAllOp{Children: []exec.Operator{plan.Lower(node, c.planOptions()), right.op}}}
		if !u.UnionAll {
			node = &plan.Distinct{Child: node}
		}
	}
	return c.compileTail(&SelectStmt{OrderBy: sel.OrderBy, Limit: sel.Limit, Offset: sel.Offset}, node, nil, nil, out)
}

// compileSelectCore compiles one SELECT block — sel's own fields, not the
// set operands chained behind it — as one plan tree and lowers it once.
func (c *Compiler) compileSelectCore(sel *SelectStmt) (*compiled, error) {
	// Projection pruning: record every column the statement touches so
	// base-table scans fetch only the columns of active interest
	// (§II.B.3). Nested SELECTs recompute their own usage.
	savedUsage := c.usage
	usage := newColUsage()
	collectUsage(sel, usage)
	c.usage = usage
	defer func() { c.usage = savedUsage }()

	// --- FROM ---
	// The FROM clause compiles to a logical plan.Node tree; physical
	// join operators are produced by plan.Lower, after the planner's
	// join-ordering and build-side passes.
	var cur *planned
	var err error
	if len(sel.From) == 0 {
		// SELECT without FROM: a single empty row (like DUAL).
		cur = &planned{
			node:  &plan.Input{Op: exec.NewValues(types.Schema{}, []types.Row{{}})},
			scope: &scope{},
		}
	}

	// Split WHERE into conjuncts: the list scans take pushdown predicates
	// from, which every inner join's ON joins (compileJoin).
	conjuncts := Conjuncts(sel.Where)
	// Oracle ROWNUM <= n in WHERE becomes a limit.
	rownumLimit := int64(-1)
	conjuncts, rownumLimit = extractRownumLimit(conjuncts)

	for i, fi := range sel.From {
		item, err2 := c.compileFromItem(fi, &conjuncts)
		if err2 != nil {
			return nil, err2
		}
		if i == 0 && cur == nil {
			cur = item
			continue
		}
		cur, err = c.combineComma(cur, item, &conjuncts)
		if err != nil {
			return nil, err
		}
	}

	// What the scans left: the planner places each conjunct (plan.Filter).
	if len(conjuncts) > 0 {
		pred, err := c.compileConjuncts(conjuncts, cur.scope)
		if err != nil {
			return nil, err
		}
		cur = &planned{node: &plan.Filter{Child: cur.node, Pred: pred}, scope: cur.scope}
	}
	if rownumLimit >= 0 {
		cur = &planned{node: &plan.Limit{Child: cur.node, Limit: rownumLimit}, scope: cur.scope}
	}

	// Expand stars in the select list.
	items, err := c.expandStars(sel.Items, cur.scope)
	if err != nil {
		return nil, err
	}

	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, it := range items {
		hasAgg = hasAgg || containsAggregate(it.Expr)
	}
	if hasAgg {
		if cur, err = c.planAggregate(sel, items, cur); err != nil {
			return nil, err
		}
	}
	return c.compileTail(sel, cur.node, items, cur.scope, nil)
}

// compileTail puts the part every query expression shares on top of node
// and lowers the tree: Project(items + hidden sort keys) → [Distinct] →
// [Sort] → [Project away hidden] → [Limit]. A block passes its select
// items and the scope they compile in — the row scope, or the aggregated
// row's; a set operation passes neither, only the output columns node
// already has.
//
// An ORDER BY key resolves, in order, as an output ordinal; an expression
// over output names; the select item it textually is; an expression in
// the block's own scope, projected as a hidden __sort<i> column.
func (c *Compiler) compileTail(sel *SelectStmt, node plan.Node, items []SelectItem, in *scope, out types.Schema) (*compiled, error) {
	exprs := make([]exec.Expr, len(items))
	for i, it := range items {
		e, err := c.compileExpr(it.Expr, in)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
		out = append(out, types.Column{Name: ItemName(it, i), Kind: types.KindNull, Nullable: true})
	}
	visible := len(out)
	outScope := &scope{}
	for _, col := range out {
		outScope.add("", col.Name)
	}
	rows := in // the scope exprKey binds column names against
	if in != nil && in.agg != nil {
		rows = in.agg.in
	}

	var sortKeys []exec.SortKey
	for _, oi := range sel.OrderBy {
		var e exec.Expr
		switch {
		case oi.Ordinal > visible:
			return nil, fmt.Errorf("sql: ORDER BY ordinal %d out of range", oi.Ordinal)
		case oi.Ordinal > 0:
			e = exec.ColRef(oi.Ordinal - 1)
		default:
			// The output schema first (qualifier stripped: the projection
			// renames columns unqualified).
			probe := oi.Expr
			if ref, ok := probe.(*ColumnRef); ok && ref.Table != "" {
				if _, err := outScope.resolve("", ref.Column); err == nil {
					probe = &ColumnRef{Column: ref.Column}
				}
			}
			var err error
			if e, err = c.compileExpr(probe, outScope); err == nil {
				break
			}
			if in == nil {
				return nil, err
			}
			col, key := 0, exprKey(oi.Expr, rows)
			for col < len(items) && exprKey(items[col].Expr, rows) != key {
				col++
			}
			if col == len(items) {
				hidden, herr := c.compileExpr(oi.Expr, in)
				if herr != nil {
					return nil, err
				}
				col = len(exprs)
				exprs = append(exprs, hidden)
				out = append(out, types.Column{Name: fmt.Sprintf("__sort%d", col-visible), Kind: types.KindNull, Nullable: true})
			}
			e = exec.ColRef(col)
		}
		sortKeys = append(sortKeys, exec.SortKey{Expr: e, Desc: oi.Desc})
	}

	if items != nil {
		node = &plan.Project{Child: node, Exprs: exprs, Out: out}
	}
	if sel.Distinct {
		if len(out) > visible {
			return nil, fmt.Errorf("sql: ORDER BY over non-selected columns cannot combine with DISTINCT")
		}
		node = &plan.Distinct{Child: node}
	}
	if len(sortKeys) > 0 {
		node = &plan.Sort{Child: node, Keys: sortKeys}
	}
	if len(out) > visible {
		keep := make([]exec.Expr, visible)
		for i := range keep {
			keep[i] = exec.ColRef(i)
		}
		node = &plan.Project{Child: node, Exprs: keep, Out: out[:visible]}
	}
	if sel.Limit >= 0 || sel.Offset > 0 {
		node = &plan.Limit{Child: node, Offset: sel.Offset, Limit: max(sel.Limit, -1)}
	}
	return &compiled{op: plan.Lower(node, c.planOptions()), scope: outScope}, nil
}

// ItemName derives the output column name of the i-th select item (stars
// expanded): its alias, else the column or function it is, else COL<i+1>.
func ItemName(it SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ref, ok := it.Expr.(*ColumnRef); ok {
		return ref.Column
	}
	if fc, ok := it.Expr.(*FuncCall); ok {
		return fc.Name
	}
	return fmt.Sprintf("COL%d", i+1)
}

// expandStars replaces * and t.* with explicit column references.
func (c *Compiler) expandStars(items []SelectItem, sc *scope) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		star, ok := it.Expr.(*Star)
		if !ok {
			out = append(out, it)
			continue
		}
		matched := false
		for _, col := range sc.cols {
			if star.Table != "" && col.table != strings.ToLower(star.Table) {
				continue
			}
			out = append(out, SelectItem{Expr: &ColumnRef{Table: col.table, Column: col.name}})
			matched = true
		}
		if !matched {
			return nil, fmt.Errorf("sql: %s.* matches no columns", star.Table)
		}
	}
	return out, nil
}

// --- FROM compilation -------------------------------------------------------

// compileFromItem builds one FROM entry as a logical-plan leaf or join
// subtree, pushing pushable conjuncts into base-table scans.
func (c *Compiler) compileFromItem(fi FromItem, conjuncts *[]Expr) (*planned, error) {
	switch f := fi.(type) {
	case *TableRef:
		cpl, err := c.compileTableRef(f, conjuncts)
		if err != nil {
			return nil, err
		}
		name := f.Alias
		if name == "" {
			name = f.Name
		}
		return &planned{node: &plan.Input{Op: cpl.op, Name: name}, scope: cpl.scope}, nil
	case *SubqueryRef:
		sub, err := c.compileSelect(f.Sub)
		if err != nil {
			return nil, err
		}
		return &planned{node: &plan.Input{Op: sub.op, Name: f.Alias}, scope: aliased(f.Alias, sub.op).scope}, nil
	case *JoinRef:
		return c.compileJoin(f, conjuncts)
	}
	return nil, fmt.Errorf("sql: unsupported FROM item %T", fi)
}

func (c *Compiler) compileTableRef(f *TableRef, conjuncts *[]Expr) (*compiled, error) {
	alias := f.Alias
	if alias == "" {
		alias = f.Name
	}
	lname := strings.ToLower(f.Name)

	// DUAL (Oracle).
	if lname == "dual" {
		return heldItem(f.Name, alias, exec.NewValues(types.Schema{{Name: "DUMMY", Kind: types.KindString}}, []types.Row{{types.NewString("X")}}))
	}
	// A name bound for this statement: a CTE, a pull, a shuffle partition.
	if src, ok := c.bound[lname]; ok {
		return heldItem(f.Name, alias, src)
	}
	if c.Cat == nil {
		return nil, fmt.Errorf("sql: table or view %s does not exist", f.Name)
	}
	// Base table: push applicable conjuncts into the compressed scan and
	// prune the projection to the referenced columns.
	if tbl, ok := c.Cat.Table(f.Name); ok {
		schema := tbl.Schema()
		preds := c.extractScanPreds(conjuncts, alias, schema)
		var projection []int
		if c.usage != nil && !c.usage.wantsAll(alias) {
			for i, col := range schema {
				if c.usage.uses(alias, col.Name) {
					projection = append(projection, i)
				}
			}
			if len(projection) == 0 {
				projection = []int{0} // row-count-only queries still need a lane
			}
			if len(projection) == len(schema) {
				projection = nil
			}
		}
		scanOp := exec.NewScan(tbl, preds, projection)
		if c.Snaps != nil {
			scanOp.Snap = c.Snaps.Get(tbl)
		}
		if !c.NoCompressedExec {
			scanOp.EnableCompressed()
		}
		return aliased(alias, scanOp), nil
	}
	// View: compile its stored query under its creation dialect.
	if view, ok := c.Cat.View(f.Name); ok {
		if c.viewDepth > 16 {
			return nil, fmt.Errorf("sql: view nesting too deep at %s", f.Name)
		}
		vd, err := ParseDialect(view.Dialect)
		if err != nil {
			vd = DialectANSI
		}
		sub, err := Parse(view.SQL, vd)
		if err != nil {
			return nil, fmt.Errorf("sql: view %s: %w", f.Name, err)
		}
		selStmt, ok := sub.(*SelectStmt)
		if !ok {
			return nil, fmt.Errorf("sql: view %s does not contain a query", f.Name)
		}
		// The view body is one more block of this statement: it keeps the
		// session's governor, snapshot set, parallelism, UDFs and planner
		// settings, and differs only in dialect and CTE scope.
		vc := *c
		vc.Dialect, vc.bound, vc.viewDepth = vd, make(map[string]catalog.RemoteSource), c.viewDepth+1
		cpl, err := vc.compileSelect(selStmt)
		if err != nil {
			return nil, fmt.Errorf("sql: view %s: %w", f.Name, err)
		}
		return aliased(alias, cpl.op), nil
	}
	// Nickname (remote table via Fluid Query, a system view).
	if nick, ok := c.Cat.Nickname(f.Name); ok {
		return heldItem(f.Name, alias, nick.Source)
	}
	return nil, fmt.Errorf("sql: table or view %s does not exist", f.Name)
}

// heldItem reads a source's batches once for this reference.
func heldItem(name, alias string, src catalog.RemoteSource) (*compiled, error) {
	batches, err := src.ScanAll()
	if err != nil {
		return nil, fmt.Errorf("sql: %s: %w", name, err)
	}
	op := exec.NewBatches(src.Schema(), batches)
	op.Name = strings.ToUpper(name)
	return aliased(alias, op), nil
}

// aliased scopes every column of op under alias.
func aliased(alias string, op exec.Operator) *compiled {
	sc := &scope{}
	for _, col := range op.Schema() {
		sc.add(alias, col.Name)
	}
	return &compiled{op: op, scope: sc}
}

// extractScanPreds removes conjuncts of the form <alias.col OP literal>
// from the list and converts them into columnar scan predicates.
func (c *Compiler) extractScanPreds(conjuncts *[]Expr, alias string, sch types.Schema) []columnar.Pred {
	var preds []columnar.Pred
	var rest []Expr
	for _, cj := range *conjuncts {
		if p, ok := c.asScanPred(cj, alias, sch); ok {
			preds = append(preds, p...)
			continue
		}
		rest = append(rest, cj)
	}
	*conjuncts = rest
	return preds
}

// asScanPred recognizes pushable predicates: col OP literal, literal OP
// col, and col BETWEEN l1 AND l2, where col belongs to the given alias.
func (c *Compiler) asScanPred(e Expr, alias string, sch types.Schema) ([]columnar.Pred, bool) {
	la := strings.ToLower(alias)
	colOf := func(x Expr) (int, bool) {
		ref, ok := x.(*ColumnRef)
		if !ok || ref.OuterJoin {
			return 0, false
		}
		if ref.Table != "" && strings.ToLower(ref.Table) != la {
			return 0, false
		}
		ci := sch.ColumnIndex(ref.Column)
		return ci, ci >= 0
	}
	litOf := func(x Expr) (types.Value, bool) {
		l, ok := x.(*Literal)
		if !ok {
			return types.Null, false
		}
		return l.Val, true
	}
	switch ex := e.(type) {
	case *BinaryOp:
		op, ok := cmpOpFor(ex.Op)
		if !ok {
			return nil, false
		}
		if ci, ok := colOf(ex.Left); ok {
			if v, ok := litOf(ex.Right); ok {
				return []columnar.Pred{{Col: ci, Op: op, Val: v}}, true
			}
		}
		if ci, ok := colOf(ex.Right); ok {
			if v, ok := litOf(ex.Left); ok {
				return []columnar.Pred{{Col: ci, Op: op.Flip(), Val: v}}, true
			}
		}
	case *BetweenExpr:
		if ex.Not {
			return nil, false
		}
		ci, ok := colOf(ex.Expr)
		if !ok {
			return nil, false
		}
		lo, ok1 := litOf(ex.Lo)
		hi, ok2 := litOf(ex.Hi)
		if ok1 && ok2 {
			return []columnar.Pred{
				{Col: ci, Op: encoding.OpGE, Val: lo},
				{Col: ci, Op: encoding.OpLE, Val: hi},
			}, true
		}
	}
	return nil, false
}

func cmpOpFor(op string) (encoding.CmpOp, bool) {
	switch op {
	case "=":
		return encoding.OpEQ, true
	case "<>":
		return encoding.OpNE, true
	case "<":
		return encoding.OpLT, true
	case "<=":
		return encoding.OpLE, true
	case ">":
		return encoding.OpGT, true
	case ">=":
		return encoding.OpGE, true
	}
	return 0, false
}

// compileJoin handles explicit JOIN ... ON / USING, producing a logical
// plan.Join. An inner join's condition is WHERE conjuncts: they join the
// list it compiles in before its inputs compile, so a conjunct over one
// base table reaches that table's scan, and the planner places the rest.
// An outer join keeps its condition, and its null-supplying side compiles
// in a list of its own: a WHERE conjunct filters joined rows — pushed into
// that side's scan it would filter before the join, and the rows it rejects
// would come back null-extended instead of removed — while what the side's
// own inner joins leave there filters the side. Join orientation stays
// syntactic here: lowering maps RIGHT joins onto the executor's
// left-preserving join and the planner picks build sides and join order.
func (c *Compiler) compileJoin(j *JoinRef, conjuncts *[]Expr) (*planned, error) {
	var kind plan.JoinKind
	cond := conjuncts
	lists := [2]*[]Expr{conjuncts, conjuncts}
	switch j.Type {
	case "LEFT":
		kind, cond, lists[1] = plan.LeftOuterJoin, &[]Expr{}, &[]Expr{}
	case "RIGHT":
		kind, cond, lists[0] = plan.RightOuterJoin, &[]Expr{}, &[]Expr{}
	}
	on := Conjuncts(j.On)
	*cond = append(*cond, on...)
	var sides [2]*planned
	for i, fi := range []FromItem{j.Left, j.Right} {
		side, err := c.compileFromItem(fi, lists[i])
		if err != nil {
			return nil, err
		}
		if lists[i] != conjuncts && len(*lists[i]) > 0 {
			pred, err := c.compileConjuncts(*lists[i], side.scope)
			if err != nil {
				return nil, err
			}
			side.node = &plan.Filter{Child: side.node, Pred: pred}
		}
		sides[i] = side
	}
	merged := sides[0].scope.merge(sides[1].scope)
	// The ON's names resolve in the join's own scope; qualified by it, the
	// conjuncts the scans left read the same in the list's wider one.
	var err error
	for i, cj := range *cond {
		if slices.Contains(on, cj) {
			if (*cond)[i], err = merged.qualified(cj); err != nil {
				return nil, err
			}
		}
	}

	// USING(cols) → an equality per column, between the first column of
	// that name on each side.
	for _, col := range j.Using {
		var refs [2]Expr
		for i, side := range []string{"left", "right"} {
			ci := slices.IndexFunc(sides[i].scope.cols, func(sc scopeCol) bool { return sc.name == strings.ToLower(col) })
			if ci < 0 {
				return nil, fmt.Errorf("sql: USING column %s is not a column of the join's %s side", col, side)
			}
			refs[i] = &ColumnRef{Table: sides[i].scope.cols[ci].table, Column: col}
		}
		*cond = append(*cond, &BinaryOp{Op: "=", Left: refs[0], Right: refs[1]})
	}

	jn := &plan.Join{Left: sides[0].node, Right: sides[1].node, Kind: kind}
	if cond != conjuncts && len(*cond) > 0 {
		if jn.Cond, err = c.compileConjuncts(*cond, merged); err != nil {
			return nil, err
		}
	}
	return &planned{node: jn, scope: merged}, nil
}

// combineComma joins two comma-separated FROM items: an inner join whose
// condition stays with the WHERE conjuncts, unless an equality between the
// two carries Oracle's (+). The equalities between them are then an outer
// join's condition, preserving the side without the marker.
func (c *Compiler) combineComma(left, right *planned, conjuncts *[]Expr) (*planned, error) {
	var cond, rest []Expr
	var outerLeft, outerRight bool // (+) on that side: RIGHT-style, LEFT JOIN
	for _, cj := range *conjuncts {
		bo, ok := cj.(*BinaryOp)
		if !ok || bo.Op != "=" {
			rest = append(rest, cj)
			continue
		}
		lref, lok := bo.Left.(*ColumnRef)
		rref, rok := bo.Right.(*ColumnRef)
		if lok && rok && !resolves(left.scope, lref) {
			lref, rref = rref, lref
		}
		if !lok || !rok || !resolves(left.scope, lref) || !resolves(right.scope, rref) {
			rest = append(rest, cj)
			continue
		}
		outerRight, outerLeft = outerRight || rref.OuterJoin, outerLeft || lref.OuterJoin
		cond = append(cond, cj)
	}

	merged := left.scope.merge(right.scope)
	jn := &plan.Join{Left: left.node, Right: right.node, Kind: plan.InnerJoin}
	switch {
	case outerRight && !outerLeft:
		jn.Kind = plan.LeftOuterJoin
	case outerLeft && !outerRight:
		// Lowering maps this onto a swapped LEFT join and restores column
		// order.
		jn.Kind = plan.RightOuterJoin
	default:
		return &planned{node: jn, scope: merged}, nil
	}
	*conjuncts = rest
	var err error
	jn.Cond, err = c.compileConjuncts(cond, merged)
	return &planned{node: jn, scope: merged}, err
}

// resolves reports whether ref names one column of s.
func resolves(s *scope, ref *ColumnRef) bool {
	_, err := s.resolve(ref.Table, ref.Column)
	return err == nil
}

// --- helpers ----------------------------------------------------------------

// Conjuncts flattens nested ANDs: the terms a predicate's rows must all
// pass (nil for no predicate).
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if bo, ok := e.(*BinaryOp); ok && bo.Op == "AND" {
		return append(Conjuncts(bo.Left), Conjuncts(bo.Right)...)
	}
	return []Expr{e}
}

// extractRownumLimit strips "ROWNUM <= n" / "ROWNUM < n" conjuncts.
func extractRownumLimit(conjuncts []Expr) ([]Expr, int64) {
	limit := int64(-1)
	var rest []Expr
	for _, cj := range conjuncts {
		bo, ok := cj.(*BinaryOp)
		if ok {
			if _, isRownum := bo.Left.(*RownumExpr); isRownum {
				if lit, ok := bo.Right.(*Literal); ok {
					if n, isInt := lit.Val.AsInt(); isInt {
						switch bo.Op {
						case "<=":
							limit = n
							continue
						case "<":
							limit = n - 1
							continue
						case "=":
							if n == 1 {
								limit = 1
								continue
							}
						}
					}
				}
			}
		}
		rest = append(rest, cj)
	}
	return rest, limit
}

// compileConjuncts ANDs compiled conjuncts into a single predicate as a
// chain of structured AndExprs (short-circuiting, and vectorizable when
// every conjunct is).
func (c *Compiler) compileConjuncts(conjuncts []Expr, sc *scope) (exec.Expr, error) {
	var pred exec.Expr
	for _, cj := range conjuncts {
		e, err := c.compileExpr(cj, sc)
		if err != nil {
			return nil, err
		}
		if pred == nil {
			pred = e
		} else {
			pred = &exec.AndExpr{L: pred, R: e}
		}
	}
	if pred == nil {
		pred = exec.Const{V: types.NewBool(true)}
	}
	return pred, nil
}

// AggregateCall returns the node as an aggregate function call, if it is one.
func AggregateCall(e Expr) (*FuncCall, bool) {
	fc, ok := e.(*FuncCall)
	if !ok {
		return nil, false
	}
	_, ok = aggFuncFor(fc.Name)
	return fc, ok
}

// containsAggregate reports whether the expression tree contains an
// aggregate function call.
func containsAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if _, agg := AggregateCall(x); agg {
			found = true
		}
		return !found
	})
	return found
}

// aggFuncFor maps SQL aggregate names (across dialects) to executor
// aggregate kinds.
func aggFuncFor(name string) (exec.AggFunc, bool) {
	switch strings.ToUpper(name) {
	case "COUNT":
		return exec.AggCount, true
	case "SUM":
		return exec.AggSum, true
	case "AVG", "MEAN":
		return exec.AggAvg, true
	case "MIN":
		return exec.AggMin, true
	case "MAX":
		return exec.AggMax, true
	case "STDDEV", "STDDEV_POP":
		return exec.AggStddevPop, true
	case "STDDEV_SAMP":
		return exec.AggStddevSamp, true
	case "VARIANCE", "VAR_POP":
		return exec.AggVarPop, true
	case "VAR_SAMP", "VARIANCE_SAMP":
		return exec.AggVarSamp, true
	case "MEDIAN":
		return exec.AggMedian, true
	case "PERCENTILE_CONT":
		return exec.AggPercentileCont, true
	case "PERCENTILE_DISC":
		return exec.AggPercentileDisc, true
	case "COVAR_POP", "COVARIANCE":
		return exec.AggCovarPop, true
	case "COVAR_SAMP", "COVARIANCE_SAMP":
		return exec.AggCovarSamp, true
	}
	return 0, false
}
