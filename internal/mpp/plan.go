package mpp

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"dashdb/internal/sql"
	"dashdb/internal/types"
)

// A distributed SELECT is one plan cut at its exchanges: shard statements
// whose rows are hash-shuffled between the shards (stages), shard
// statements whose rows the coordinator collects (pulls), and the final
// statement the coordinator compiles over the pulls, bound as nicknames,
// with the ordinary SQL compiler. The three ways a statement distributes
// are three placements of that one shape:
//
//	scatter       no stages; one pull running the partial statement over
//	              the base tables — on the one shard that holds them when
//	              the WHERE pins the distribution key; final merges the
//	              partials
//	shuffle join  one stage per joined table, each selecting its
//	              single-table conjuncts and the columns the rest reads,
//	              hash-shuffled on its join key; the same pull over the two
//	              shuffle inputs; the same final
//	gather        no stages; one SELECT * pull per table; the user's
//	              statement as final
//
// planSelect picks the placement before anything is sent, so a statement
// that fails on a shard fails once: its error is the answer.
type distSelect struct {
	stages []input
	pulls  []input
	final  *sql.SelectStmt
	path   *uint64 // the NetStats counter of the placement
}

// input is one shard statement and the table its consumer reads it as.
// A pull's schema names its columns and gives them no kind: the
// coordinator's compiler reads a pulled column as the values it holds, so
// a join over in-process shards decodes each shard's dictionary codes
// instead of keying on them. A stage's schema is its table's columns.
type input struct {
	name   string
	schema types.Schema
	sel    *sql.SelectStmt
	shards []int // the shards that answer, nil for every one
	keys   []int // stage: the ordinals its rows are hash-partitioned on
}

// Names the statements of a plan see their inputs under.
const (
	partialName      = "_PARTIAL"
	shuffleBuildName = "__shuf_l"
	shuffleProbeName = "__shuf_r"
)

// planSelect places a SELECT: scatter when at most one FROM table is
// distributed, shuffle join for an equi-join of two distributed tables,
// gather for everything else — anything cutSelect cannot express, any
// FROM item that is not a cluster table. The placement does not depend on
// how the shards are reached.
func (c *NetCluster) planSelect(sel *sql.SelectStmt, d sql.Dialect) *distSelect {
	if from, distributed, ok := c.fromTables(sel.From); ok {
		if shard, final, ok := cutSelect(sel, from); ok {
			partial := input{name: partialName, schema: make(types.Schema, len(shard.Items)), sel: shard}
			for i, it := range shard.Items {
				partial.schema[i] = types.Column{Name: it.Alias, Nullable: true}
			}
			p := &distSelect{pulls: []input{partial}, final: final}
			if distributed <= 1 {
				p.pulls[0].shards, p.path = c.pin(shard.Where, from), &c.stats.FastPathQueries
				return p
			}
			if stages, ok := shuffleStages(shard, from, d); ok {
				p.stages, p.path = stages, &c.stats.ShuffleJoins
				return p
			}
		}
	}
	p := &distSelect{final: sel, path: &c.stats.GatherPathQueries}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for name, meta := range c.tables {
		p.pulls = append(p.pulls, scanInput(name, name, meta))
	}
	return p
}

// scanInput is SELECT * FROM table, read by its consumer as name.
func scanInput(name, table string, meta *tableMeta) input {
	schema := slices.Clone(meta.schema)
	for i := range schema {
		schema[i].Kind = types.KindNull
	}
	in := input{name: name, schema: schema, sel: &sql.SelectStmt{
		Items: []sql.SelectItem{{Expr: &sql.Star{}}},
		From:  []sql.FromItem{&sql.TableRef{Name: table}},
		Limit: -1,
	}}
	if meta.repl {
		in.shards = []int{0}
	}
	return in
}

// pin lists the shards a statement over at most one distributed table
// must ask: the one Insert placed every row it can read on when a
// top-level conjunct pins that table's distribution column to a non-NULL
// literal of the column's kind; shard 0 when every table is replicated
// (each shard holds them whole); nil, every shard, otherwise.
func (c *NetCluster) pin(where sql.Expr, from fromScope) []int {
	for _, cj := range sql.Conjuncts(where) {
		eq, ok := cj.(*sql.BinaryOp)
		if !ok || eq.Op != "=" {
			continue
		}
		for _, side := range [][2]sql.Expr{{eq.Left, eq.Right}, {eq.Right, eq.Left}} {
			ref, isRef := side[0].(*sql.ColumnRef)
			lit, isLit := side[1].(*sql.Literal)
			if !isRef || !isLit || ref.OuterJoin || lit.Val.IsNull() {
				continue
			}
			if ti, ci, ok := from.resolve(ref); ok {
				if meta := from[ti].meta; !meta.repl && ci == meta.distCol && lit.Val.Kind() == meta.schema[ci].Kind {
					return []int{c.shardOf(meta, lit.Val)}
				}
			}
		}
	}
	for _, t := range from {
		if !t.meta.repl {
			return nil
		}
	}
	return []int{0}
}

// fromTable is one base table of a FROM clause.
type fromTable struct {
	alias string // what qualifies its columns: the alias, else the name
	name  string
	meta  *tableMeta
}

// fromScope is the tables of a FROM clause in the order the compiler
// lays their columns out.
type fromScope []fromTable

// fromTables resolves a FROM clause made of cluster tables and joins of
// them, counting the distributed (non-replicated) ones. ok is false when
// a shard could not answer for its slice alone: no FROM at all, an item
// that is not a cluster table, a RIGHT join (kept off the scatter path,
// as before), or a LEFT join whose preserved side is replicated while the
// other is distributed — every shard would null-extend the replicated
// rows its own slice does not match.
func (c *NetCluster) fromTables(items []sql.FromItem) (from fromScope, distributed int, ok bool) {
	var walk func(fi sql.FromItem) (int, bool)
	walk = func(fi sql.FromItem) (int, bool) {
		switch f := fi.(type) {
		case *sql.TableRef:
			meta, err := c.tableMeta(f.Name)
			if err != nil {
				return 0, false
			}
			alias := f.Alias
			if alias == "" {
				alias = f.Name
			}
			from = append(from, fromTable{alias: alias, name: f.Name, meta: meta})
			if meta.repl {
				return 0, true
			}
			return 1, true
		case *sql.JoinRef:
			l, lok := walk(f.Left)
			r, rok := walk(f.Right)
			if !lok || !rok || f.Type == "RIGHT" || (f.Type == "LEFT" && l == 0 && r > 0) {
				return 0, false
			}
			return l + r, true
		}
		return 0, false
	}
	for _, fi := range items {
		n, ok := walk(fi)
		if !ok {
			return nil, 0, false
		}
		distributed += n
	}
	return from, distributed, len(items) > 0
}

// resolve binds a column reference to its table and ordinal; ok is false
// for a reference that names no column or more than one.
func (f fromScope) resolve(ref *sql.ColumnRef) (ti, ci int, ok bool) {
	ti = -1
	for i, t := range f {
		if ref.Table != "" && !strings.EqualFold(ref.Table, t.alias) {
			continue
		}
		if c := t.meta.schema.ColumnIndex(ref.Column); c >= 0 {
			if ti >= 0 {
				return 0, 0, false
			}
			ti, ci = i, c
		}
	}
	return ti, ci, ti >= 0
}

// qualify copies e with every column reference bound to its table's alias
// and the column's own name, so two spellings of one expression are equal
// under reflect.DeepEqual; ok is false when a reference resolves to no
// single column (it is left as written).
func (f fromScope) qualify(e sql.Expr) (q sql.Expr, ok bool) {
	ok = true
	q = sql.MapExpr(e, func(e sql.Expr) sql.Expr {
		ref, isRef := e.(*sql.ColumnRef)
		if !isRef {
			return nil
		}
		if ti, ci, found := f.resolve(ref); found {
			return &sql.ColumnRef{Table: f[ti].alias, Column: f[ti].meta.schema[ci].Name}
		}
		ok = false
		return ref
	})
	return q, ok
}

// expandStars replaces * and t.* the way the compiler will on the shard,
// so the output names are known at plan time; ok is false for a t.* that
// matches no table.
func (f fromScope) expandStars(items []sql.SelectItem) (out []sql.SelectItem, ok bool) {
	for _, it := range items {
		star, isStar := it.Expr.(*sql.Star)
		if !isStar {
			out = append(out, it)
			continue
		}
		before := len(out)
		for _, t := range f {
			if star.Table != "" && !strings.EqualFold(star.Table, t.alias) {
				continue
			}
			for _, col := range t.meta.schema {
				out = append(out, sql.SelectItem{Expr: &sql.ColumnRef{Table: strings.ToLower(t.alias), Column: strings.ToLower(col.Name)}})
			}
		}
		if len(out) == before {
			return nil, false
		}
	}
	return out, true
}

// needsWholeTable reports whether the statement holds, anywhere a shard
// would evaluate it, an expression a slice of the table answers wrongly: a
// subquery or Oracle's ROWNUM (a shard would answer over its own rows), a
// sequence read (every shard has its own counter).
func needsWholeTable(sel *sql.SelectStmt) bool {
	found := false
	walkSelect(sel, func(e sql.Expr) bool {
		switch e.(type) {
		case *sql.RownumExpr, *sql.SeqValExpr:
			found = true
		}
		found = found || sql.SubqueryOf(e) != nil
		return !found
	})
	return found
}

// walkSelect is sql.WalkExpr over every expression of one SELECT block:
// items, WHERE, GROUP BY, HAVING, ORDER BY and each join's ON.
func walkSelect(sel *sql.SelectStmt, visit func(sql.Expr) bool) {
	exprs := append([]sql.Expr{sel.Where, sel.Having}, sel.GroupBy...)
	for _, it := range sel.Items {
		exprs = append(exprs, it.Expr)
	}
	for _, o := range sel.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	var walkFrom func(fi sql.FromItem)
	walkFrom = func(fi sql.FromItem) {
		if j, ok := fi.(*sql.JoinRef); ok {
			walkFrom(j.Left)
			walkFrom(j.Right)
			exprs = append(exprs, j.On)
		}
	}
	for _, fi := range sel.From {
		walkFrom(fi)
	}
	for _, e := range exprs {
		sql.WalkExpr(e, visit)
	}
}

// cutSelect is the one statement builder: it cuts a SELECT into the
// statement every shard runs over its slice and the statement that turns
// the shards' rows into the answer, by substitution, not by shape.
//
// An aggregating block needs every GROUP BY term to be a column or an
// expression over columns, and every aggregate call to be COUNT, SUM, MIN,
// MAX or AVG without DISTINCT. The shards compute the group terms as _G<i>
// and one partial per distinct call as _P<i> (AVG: _P<i>_S and _P<i>_C);
// final groups the partials by the _G<i> and is the user's select list,
// HAVING and ORDER BY with each group term (any subtree equal to it once
// references are qualified) and aggregate call replaced by its merge
// expression — SUM(_P<i>), MIN, MAX, CAST(SUM(_P<i>_S) AS DOUBLE) /
// SUM(_P<i>_C) — wherever it stands: before a group column, under
// arithmetic, in a predicate. A plain block has the shards evaluate each item as _C<i>
// (keeping only their top OFFSET+LIMIT rows when there is a LIMIT) and
// final re-sort the concatenation. Either way final keeps the user's
// output names, LIMIT and OFFSET.
//
// An aggregating block with a LIMIT, no HAVING and an ORDER BY that names
// exactly the full set of its group terms — by output name, ordinal or
// expression, in any order and either direction — also has the shards keep
// only their first OFFSET+LIMIT groups in that order. Group keys order
// the groups totally, and a group's rank on a shard is at most its rank
// over the union, so every partial of every group final keeps arrives.
//
// ok is false for what the substitution cannot express — CTEs, UNION,
// DISTINCT, expressions that need the whole table, other aggregates, a
// literal or output-name group term, a column outside every group term and
// aggregate, ORDER BY a column a plain block does not output — and the
// statement gathers.
func cutSelect(sel *sql.SelectStmt, from fromScope) (shard, final *sql.SelectStmt, ok bool) {
	items, ok := from.expandStars(sel.Items)
	if !ok || len(sel.With) > 0 || sel.Union != nil || sel.Distinct || needsWholeTable(sel) {
		return nil, nil, false
	}
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = sql.ItemName(it, i)
	}
	// outputColumn is the one output column a reference in ORDER BY names,
	// the compiler's first resolution step; -1 when none or several do.
	outputColumn := func(ref *sql.ColumnRef) int {
		found := -1
		for i, name := range names {
			if strings.EqualFold(name, ref.Column) {
				if found >= 0 {
					return -1
				}
				found = i
			}
		}
		return found
	}
	shard = &sql.SelectStmt{From: sel.From, Where: sel.Where, GroupBy: sel.GroupBy, Limit: -1}
	final = &sql.SelectStmt{From: []sql.FromItem{&sql.TableRef{Name: partialName}}, Limit: sel.Limit, Offset: sel.Offset}

	aggregating := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, it := range items {
		sql.WalkExpr(it.Expr, func(e sql.Expr) bool {
			_, agg := sql.AggregateCall(e)
			aggregating = aggregating || agg
			return !aggregating
		})
	}
	if !aggregating {
		for i, it := range items {
			name := fmt.Sprintf("_C%d", i)
			shard.Items = append(shard.Items, sql.SelectItem{Expr: it.Expr, Alias: name})
			final.Items = append(final.Items, sql.SelectItem{Expr: &sql.ColumnRef{Column: name}, Alias: names[i]})
		}
		for _, o := range sel.OrderBy {
			if ref, isRef := o.Expr.(*sql.ColumnRef); isRef && o.Ordinal == 0 {
				o.Expr, o.Ordinal = nil, outputColumn(ref)+1
			}
			if o.Ordinal == 0 {
				return nil, nil, false
			}
			final.OrderBy = append(final.OrderBy, o)
		}
		if sel.Limit >= 0 {
			shard.OrderBy, shard.Limit = final.OrderBy, sel.Offset+sel.Limit
		}
		return shard, final, true
	}

	m := merger{from: from}
	for i, g := range sel.GroupBy {
		// A literal may be an ordinal; an output name resolves to no column.
		q, ok := from.qualify(g)
		if _, isLit := g.(*sql.Literal); isLit || !ok {
			return nil, nil, false
		}
		col := &sql.ColumnRef{Column: fmt.Sprintf("_G%d", i)}
		m.groups = append(m.groups, groupTerm{q, col})
		shard.Items = append(shard.Items, sql.SelectItem{Expr: g, Alias: col.Column})
		final.GroupBy = append(final.GroupBy, col)
	}
	for i, it := range items {
		final.Items = append(final.Items, sql.SelectItem{Expr: m.merge(it.Expr), Alias: names[i]})
	}
	final.Having = m.merge(sel.Having)
	for _, o := range sel.OrderBy {
		// An expression over output names alone sorts the output as it
		// does on one engine; any other is a group column or aggregate
		// that final finds among its items once substituted.
		overOutput := true
		sql.WalkExpr(o.Expr, func(e sql.Expr) bool {
			if ref, isRef := e.(*sql.ColumnRef); isRef {
				// The compiler drops a qualifier only off a bare reference.
				overOutput = overOutput && (ref.Table == "" || e == o.Expr) && outputColumn(ref) >= 0
			} else if _, agg := sql.AggregateCall(e); agg {
				overOutput = false
			}
			return overOutput
		})
		if !overOutput {
			o.Expr = m.merge(o.Expr)
		}
		final.OrderBy = append(final.OrderBy, o)
	}
	shard.Items = append(shard.Items, m.partials...)
	if order, ok := groupOrder(sel.OrderBy, items, names, from, m.groups); ok && sel.Limit >= 0 && sel.Having == nil {
		shard.OrderBy, shard.Limit = order, sel.Offset+sel.Limit
	}
	return shard, final, !m.failed
}

// groupOrder is the shard statement's ORDER BY for an ORDER BY that sorts
// by exactly the full set of group terms, by the ordinals of their _G<i>
// items; ok is false for any other ORDER BY. A bare reference names an
// output column first, as the compiler has it, and that item must be a
// group term itself; a name several outputs share does not push.
func groupOrder(order []sql.OrderItem, items []sql.SelectItem, names []string, from fromScope, groups []groupTerm) ([]sql.OrderItem, bool) {
	if len(order) == 0 {
		return nil, false
	}
	covered := make([]bool, len(groups))
	var out []sql.OrderItem
	for _, o := range order {
		e := o.Expr
		if o.Ordinal > 0 && o.Ordinal <= len(items) {
			e = items[o.Ordinal-1].Expr
		} else if ref, isRef := e.(*sql.ColumnRef); isRef {
			var named []int
			for i, name := range names {
				if strings.EqualFold(name, ref.Column) {
					named = append(named, i)
				}
			}
			switch len(named) {
			case 0:
			case 1:
				e = items[named[0]].Expr
			default:
				return nil, false
			}
		}
		q, ok := from.qualify(e)
		hit := false
		for g, gt := range groups {
			if ok && reflect.DeepEqual(gt.expr, q) {
				if !hit {
					out = append(out, sql.OrderItem{Ordinal: g + 1, Desc: o.Desc})
				}
				covered[g], hit = true, true
			}
		}
		if !hit {
			return nil, false
		}
	}
	if slices.Contains(covered, false) {
		return nil, false
	}
	return out, true
}

// merger substitutes merge expressions for the group columns and
// aggregate calls of an aggregating block, collecting the partials the
// shards must compute for them.
type merger struct {
	from     fromScope
	groups   []groupTerm
	calls    []*sql.FuncCall // distinct aggregate calls, references qualified
	merges   []sql.Expr      // merges[i] is what stands for calls[i] in final
	partials []sql.SelectItem
	failed   bool // met something with no merge expression
}

// groupTerm is one GROUP BY term, a column or an expression over columns.
type groupTerm struct {
	expr sql.Expr       // the term, references qualified
	col  *sql.ColumnRef // the _G<i> final reads it as
}

// merge substitutes, parents first, the _G<i> for a subtree equal to a
// group term once references are qualified and the merge expression for
// an aggregate call; a column reference left over fails.
func (m *merger) merge(e sql.Expr) sql.Expr {
	return sql.MapExpr(e, func(e sql.Expr) sql.Expr {
		if fc, agg := sql.AggregateCall(e); agg {
			return m.mergeCall(fc)
		}
		if q, ok := m.from.qualify(e); ok {
			for _, g := range m.groups {
				if reflect.DeepEqual(g.expr, q) {
					return g.col
				}
			}
		}
		_, isRef := e.(*sql.ColumnRef)
		m.failed = m.failed || isRef
		return nil
	})
}

// mergeCall returns the merge expression of one aggregate call, adding its
// partials on first sight. Two calls are one when they are equal once
// every column reference is qualified, as the compiler's own matching of
// ORDER BY COUNT(*) to the selected COUNT(*) has it.
func (m *merger) mergeCall(fc *sql.FuncCall) sql.Expr {
	name := strings.ToUpper(fc.Name)
	if name == "MEAN" {
		name = "AVG"
	}
	if fc.Distinct || !(name == "COUNT" || name == "SUM" || name == "MIN" || name == "MAX" || name == "AVG") {
		m.failed = true
		return fc
	}
	q, _ := m.from.qualify(fc)
	call := q.(*sql.FuncCall)
	for i, seen := range m.calls {
		if reflect.DeepEqual(seen, call) {
			return m.merges[i]
		}
	}
	// partial has the shards compute fn over the call's arguments and
	// returns the merge of those values.
	partial := func(suffix, fn, mergeFn string) sql.Expr {
		p := *call
		p.Name = fn
		alias := fmt.Sprintf("_P%d%s", len(m.calls), suffix)
		m.partials = append(m.partials, sql.SelectItem{Expr: &p, Alias: alias})
		return &sql.FuncCall{Name: mergeFn, Args: []sql.Expr{&sql.ColumnRef{Column: alias}}}
	}
	var merged sql.Expr
	switch name {
	case "AVG":
		merged = &sql.BinaryOp{Op: "/",
			Left:  &sql.CastExpr{Expr: partial("_S", "SUM", "SUM"), Type: "DOUBLE"},
			Right: partial("_C", "COUNT", "SUM")}
	case "COUNT":
		merged = partial("", "COUNT", "SUM")
	default: // SUM of sums, MIN of minima, MAX of maxima
		merged = partial("", name, name)
	}
	m.calls, m.merges = append(m.calls, call), append(m.merges, merged)
	return merged
}

// shuffleStages recognizes a join of two tables with an a.x = b.y
// conjunct between them — in an INNER join's ON or a comma join's WHERE,
// which are one list of conjuncts, and for a LEFT join in its ON: both
// hash-shuffle on that key, co-locating matching rows, and each shard joins
// one partition. Partition-wise joins are exact for INNER and LEFT joins
// (matching keys land in the same partition; unmatched left rows
// null-extend within theirs), and partial aggregation is correct over any
// disjoint partitioning, so the cut statement runs over the same join
// reading the two shuffle inputs (aliases preserved so qualified references
// still bind), less what the stages did for it.
//
// A stage ships only what the shard statement reads: a WHERE conjunct over
// one table (readsOne) moves into its stage — either side of INNER, the
// preserved side of LEFT — and each stage selects, in table order, its
// join key and the columns the rest of shard reads (every column when a
// reference may be its own but resolves to no single one). Every other
// conjunct stays in the shard statement. Oracle's (+) gathers.
func shuffleStages(shard *sql.SelectStmt, from fromScope, d sql.Dialect) (stages []input, ok bool) {
	if len(from) != 2 {
		return nil, false
	}
	where := sql.Conjuncts(shard.Where)
	jr, _ := shard.From[0].(*sql.JoinRef)
	left := jr != nil && jr.Type == "LEFT"
	cond := where
	switch {
	case jr != nil && len(jr.Using) > 0:
		return nil, false
	case left:
		cond = sql.Conjuncts(jr.On)
	case jr != nil:
		cond = append(sql.Conjuncts(jr.On), where...)
	}
	keys := [2]int{-1, -1}
	for _, cj := range cond {
		eq, isEq := cj.(*sql.BinaryOp)
		if !isEq || eq.Op != "=" || keys[0] >= 0 {
			continue
		}
		l, lok := eq.Left.(*sql.ColumnRef)
		r, rok := eq.Right.(*sql.ColumnRef)
		if lok && rok {
			lt, lc, lok := from.resolve(l)
			rt, rc, rok := from.resolve(r)
			if lok && rok && lt != rt {
				keys[lt], keys[rt] = lc, rc
			}
		}
	}
	outer := false
	sql.WalkExpr(shard.Where, func(x sql.Expr) bool {
		ref, isRef := x.(*sql.ColumnRef)
		outer = outer || isRef && ref.OuterJoin
		return true
	})
	if keys[0] < 0 || outer {
		return nil, false
	}

	var pushed [2][]sql.Expr
	var kept []sql.Expr
	for _, cj := range where {
		if ti := readsOne(cj, from, d); ti == 0 || (ti == 1 && !left) {
			pushed[ti] = append(pushed[ti], cj)
		} else {
			kept = append(kept, cj)
		}
	}
	shard.Where = and(kept)
	shard.From = []sql.FromItem{
		&sql.TableRef{Name: shuffleBuildName, Alias: from[0].alias},
		&sql.TableRef{Name: shuffleProbeName, Alias: from[1].alias}}
	if jr != nil {
		shard.From = []sql.FromItem{&sql.JoinRef{Type: jr.Type, On: jr.On, Left: shard.From[0], Right: shard.From[1]}}
	}

	var used [2][]bool // used[t][c]: the shard statement reads column c of table t
	for ti, t := range from {
		used[ti] = make([]bool, len(t.meta.schema))
		used[ti][keys[ti]] = true
	}
	walkSelect(shard, func(x sql.Expr) bool {
		if ref, isRef := x.(*sql.ColumnRef); isRef {
			ti, ci, ok := from.resolve(ref)
			for t := range from {
				if !ok && (ref.Table == "" || strings.EqualFold(ref.Table, from[t].alias)) {
					used[t] = slices.Repeat([]bool{true}, len(used[t]))
				}
			}
			if ok {
				used[ti][ci] = true
			}
		}
		return true
	})

	for ti, name := range []string{shuffleBuildName, shuffleProbeName} {
		t := from[ti]
		st := input{name: name, sel: &sql.SelectStmt{Where: and(pushed[ti]), Limit: -1,
			From: []sql.FromItem{&sql.TableRef{Name: t.name, Alias: t.alias}}}}
		for ci, col := range t.meta.schema {
			if ci == keys[ti] {
				st.keys = []int{len(st.schema)}
			}
			if used[ti][ci] {
				st.schema = append(st.schema, col)
				st.sel.Items = append(st.sel.Items, sql.SelectItem{Expr: &sql.ColumnRef{Column: col.Name}})
			}
		}
		stages = append(stages, st)
	}
	return stages, true
}

// readsOne is the one FROM table a conjunct reads, or -1: it reads no
// column or both tables, a reference resolves to no single column, or it
// holds a call that is not one of d's built-in scalar functions — a UDX
// (user code, stateful) or an aggregate keeps its place.
func readsOne(e sql.Expr, from fromScope, d sql.Dialect) int {
	side, ok := -1, true
	sql.WalkExpr(e, func(x sql.Expr) bool {
		switch ex := x.(type) {
		case *sql.ColumnRef:
			ti, _, found := from.resolve(ex)
			ok = ok && found && !ex.OuterJoin && (side < 0 || side == ti)
			side = ti
		case *sql.FuncCall:
			_, err := sql.LookupFunc(ex.Name, d)
			ok = ok && err == nil
		}
		return ok
	})
	if !ok {
		return -1
	}
	return side
}

// and is the conjunction of cjs, nil for none.
func and(cjs []sql.Expr) (out sql.Expr) {
	for _, cj := range cjs {
		if out != nil {
			cj = &sql.BinaryOp{Op: "AND", Left: out, Right: cj}
		}
		out = cj
	}
	return out
}
