package sql

import (
	"dashdb/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed scalar expression.
type Expr interface{ expr() }

// --- Expressions -----------------------------------------------------------

// Literal is a constant value.
type Literal struct{ Val types.Value }

// ColumnRef names a column, optionally qualified ("t.c").
type ColumnRef struct {
	Table  string // "" when unqualified
	Column string
	// OuterJoin marks Oracle's (+) on this reference.
	OuterJoin bool
}

// Star is "*" or "t.*" in a select list.
type Star struct{ Table string }

// BinaryOp applies an infix operator: arithmetic (+ - * / %), comparison
// (= <> < <= > >=), logical (AND OR), string concat (||), LIKE, IN is
// separate (InExpr).
type BinaryOp struct {
	Op          string
	Left, Right Expr
}

// UnaryOp applies a prefix operator: - + NOT.
type UnaryOp struct {
	Op   string
	Expr Expr
}

// FuncCall invokes a scalar or aggregate function.
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
	// WithinGroupOrder is the ORDER BY inside PERCENTILE_CONT(p)
	// WITHIN GROUP (ORDER BY e); nil otherwise.
	WithinGroupOrder Expr
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct{ When, Then Expr }

// CastExpr is CAST(e AS type) or e::type.
type CastExpr struct {
	Expr Expr
	Type string // raw type name, e.g. "VARCHAR2", "INT8", "DECFLOAT"
}

// IsNullExpr is "e IS [NOT] NULL" / Netezza "e ISNULL" / "e NOTNULL".
type IsNullExpr struct {
	Expr Expr
	Not  bool
}

// IsBoolExpr is "e IS [NOT] TRUE/FALSE" / Netezza ISTRUE/ISFALSE.
type IsBoolExpr struct {
	Expr Expr
	Want bool // the tested truth value
	Not  bool
}

// BetweenExpr is "e [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	Expr, Lo, Hi Expr
	Not          bool
}

// InExpr is "e [NOT] IN (list...)" or "e [NOT] IN (subquery)".
type InExpr struct {
	Expr Expr
	List []Expr
	Sub  *SelectStmt // nil for list form
	Not  bool
}

// ExistsExpr is "EXISTS (subquery)".
type ExistsExpr struct {
	Sub *SelectStmt
	Not bool
}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct{ Sub *SelectStmt }

// SeqValExpr reads a sequence: Oracle "seq.NEXTVAL"/"seq.CURRVAL" and
// DB2 "NEXT VALUE FOR seq"/"PREVIOUS VALUE FOR seq".
type SeqValExpr struct {
	Seq  string
	Next bool // true = NEXTVAL, false = CURRVAL
}

// RownumExpr is Oracle's ROWNUM pseudo-column.
type RownumExpr struct{}

// ParamExpr is a positional parameter marker "?" (0-indexed), bound at
// execution time (prepared statements, §II.C.3's application interfaces).
type ParamExpr struct{ Index int }

// OverlapsExpr is "(s1, e1) OVERLAPS (s2, e2)" (Netezza/PG).
type OverlapsExpr struct {
	S1, E1, S2, E2 Expr
}

func (*Literal) expr()      {}
func (*ColumnRef) expr()    {}
func (*Star) expr()         {}
func (*BinaryOp) expr()     {}
func (*UnaryOp) expr()      {}
func (*FuncCall) expr()     {}
func (*CaseExpr) expr()     {}
func (*CastExpr) expr()     {}
func (*IsNullExpr) expr()   {}
func (*IsBoolExpr) expr()   {}
func (*BetweenExpr) expr()  {}
func (*InExpr) expr()       {}
func (*ExistsExpr) expr()   {}
func (*SubqueryExpr) expr() {}
func (*SeqValExpr) expr()   {}
func (*RownumExpr) expr()   {}
func (*ParamExpr) expr()    {}
func (*OverlapsExpr) expr() {}

// SubqueryOf returns the SELECT block a node holds (IN (subquery),
// EXISTS, scalar subquery), nil for every other node.
func SubqueryOf(e Expr) *SelectStmt {
	switch ex := e.(type) {
	case *InExpr:
		return ex.Sub
	case *ExistsExpr:
		return ex.Sub
	case *SubqueryExpr:
		return ex.Sub
	}
	return nil
}

// WalkExpr calls visit on e and then, while visit returns true, on every
// expression below it, parents first. It and MapExpr are the only places
// that enumerate an expression's children, so a question asked through it
// (holds an aggregate? a subquery? which columns?) sees every Expr kind
// or none. A subquery is its own SELECT block: the node holding it is
// handed to visit (see SubqueryOf) and the walk does not enter the block.
func WalkExpr(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch ex := e.(type) {
	case *BinaryOp:
		WalkExpr(ex.Left, visit)
		WalkExpr(ex.Right, visit)
	case *UnaryOp:
		WalkExpr(ex.Expr, visit)
	case *FuncCall:
		for _, a := range ex.Args {
			WalkExpr(a, visit)
		}
		WalkExpr(ex.WithinGroupOrder, visit)
	case *CaseExpr:
		WalkExpr(ex.Operand, visit)
		for _, w := range ex.Whens {
			WalkExpr(w.When, visit)
			WalkExpr(w.Then, visit)
		}
		WalkExpr(ex.Else, visit)
	case *CastExpr:
		WalkExpr(ex.Expr, visit)
	case *IsNullExpr:
		WalkExpr(ex.Expr, visit)
	case *IsBoolExpr:
		WalkExpr(ex.Expr, visit)
	case *BetweenExpr:
		WalkExpr(ex.Expr, visit)
		WalkExpr(ex.Lo, visit)
		WalkExpr(ex.Hi, visit)
	case *InExpr:
		WalkExpr(ex.Expr, visit)
		for _, le := range ex.List {
			WalkExpr(le, visit)
		}
	case *OverlapsExpr:
		WalkExpr(ex.S1, visit)
		WalkExpr(ex.E1, visit)
		WalkExpr(ex.S2, visit)
		WalkExpr(ex.E2, visit)
	}
}

// MapExpr rewrites an expression without touching the original: replace is
// offered every node, parents first; a non-nil answer stands in for the
// node and everything below it, nil copies the node and maps its
// children. Leaves and subquery blocks are shared with the original.
func MapExpr(e Expr, replace func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if r := replace(e); r != nil {
		return r
	}
	m := func(x Expr) Expr { return MapExpr(x, replace) }
	switch ex := e.(type) {
	case *BinaryOp:
		return &BinaryOp{Op: ex.Op, Left: m(ex.Left), Right: m(ex.Right)}
	case *UnaryOp:
		return &UnaryOp{Op: ex.Op, Expr: m(ex.Expr)}
	case *FuncCall:
		c := *ex
		c.Args, c.WithinGroupOrder = nil, m(ex.WithinGroupOrder)
		for _, a := range ex.Args {
			c.Args = append(c.Args, m(a))
		}
		return &c
	case *CaseExpr:
		c := &CaseExpr{Operand: m(ex.Operand), Else: m(ex.Else)}
		for _, w := range ex.Whens {
			c.Whens = append(c.Whens, CaseWhen{When: m(w.When), Then: m(w.Then)})
		}
		return c
	case *CastExpr:
		return &CastExpr{Expr: m(ex.Expr), Type: ex.Type}
	case *IsNullExpr:
		return &IsNullExpr{Expr: m(ex.Expr), Not: ex.Not}
	case *IsBoolExpr:
		return &IsBoolExpr{Expr: m(ex.Expr), Want: ex.Want, Not: ex.Not}
	case *BetweenExpr:
		return &BetweenExpr{Expr: m(ex.Expr), Lo: m(ex.Lo), Hi: m(ex.Hi), Not: ex.Not}
	case *InExpr:
		c := &InExpr{Expr: m(ex.Expr), Sub: ex.Sub, Not: ex.Not}
		for _, le := range ex.List {
			c.List = append(c.List, m(le))
		}
		return c
	case *OverlapsExpr:
		return &OverlapsExpr{S1: m(ex.S1), E1: m(ex.E1), S2: m(ex.S2), E2: m(ex.E2)}
	}
	return e
}

// --- FROM clause -----------------------------------------------------------

// TableRef is a named relation (base table, view, nickname or DUAL) with
// an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// SubqueryRef is a derived table with alias.
type SubqueryRef struct {
	Sub   *SelectStmt
	Alias string
}

// JoinRef is an explicit JOIN.
type JoinRef struct {
	Left, Right FromItem
	Type        string // "INNER", "LEFT", "RIGHT", "CROSS"
	On          Expr   // nil for USING/CROSS
	Using       []string
}

// FromItem is anything that can appear in FROM.
type FromItem interface{ fromItem() }

func (*TableRef) fromItem()    {}
func (*SubqueryRef) fromItem() {}
func (*JoinRef) fromItem()     {}

// --- Statements ------------------------------------------------------------

// SelectItem is one select-list entry.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY term; Ordinal > 0 means "ORDER BY n".
type OrderItem struct {
	Expr    Expr
	Ordinal int
	Desc    bool
}

// CTE is one WITH-list entry.
type CTE struct {
	Name string
	Sub  *SelectStmt
}

// SelectStmt is a query expression: one SELECT block, or a set operation
// whose first block it is. Set operands are chained through Union and
// combine left to right — ((block op Union) op Union.Union) … — and carry
// no With, OrderBy, Limit or Offset of their own: the first block's apply
// to the whole chain.
type SelectStmt struct {
	With     []CTE
	Distinct bool
	Items    []SelectItem
	From     []FromItem // comma-separated items (implicit cross join)
	Where    Expr
	GroupBy  []Expr // may include ordinals/aliases (resolved at compile)
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 = none
	Offset   int64
	// Union is the next set operand; UnionAll says this block (or the
	// chain up to it) and that operand combine as UNION ALL.
	Union    *SelectStmt
	UnionAll bool
}

// InsertStmt is INSERT INTO t [(cols)] VALUES ... | SELECT ...
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	Query   *SelectStmt
}

// UpdateStmt is UPDATE t SET c = e, ... [WHERE p].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr
}

// SetClause is one "col = expr" assignment.
type SetClause struct {
	Column string
	Expr   Expr
}

// DeleteStmt is DELETE FROM t [WHERE p].
type DeleteStmt struct {
	Table string
	Where Expr
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name    string
	Type    string
	NotNull bool
}

// CreateTableStmt covers CREATE TABLE, CREATE [GLOBAL] TEMP[ORARY] TABLE
// and DECLARE GLOBAL TEMPORARY TABLE.
type CreateTableStmt struct {
	Table       string
	Columns     []ColumnDef
	Temp        bool
	IfNotExists bool
	AsQuery     *SelectStmt // CREATE TABLE ... AS SELECT
}

// DropStmt drops an object.
type DropStmt struct {
	Kind     string // "TABLE", "VIEW", "SEQUENCE", "NICKNAME"
	Name     string
	IfExists bool
}

// TruncateStmt empties a table.
type TruncateStmt struct{ Table string }

// CreateViewStmt registers a view; the session dialect is recorded.
type CreateViewStmt struct {
	Name string
	SQL  string // the view query's original text
	Sub  *SelectStmt
}

// CreateSequenceStmt registers a sequence.
type CreateSequenceStmt struct {
	Name  string
	Start int64
	Incr  int64
}

// CreateAliasStmt is DB2 CREATE ALIAS name FOR target.
type CreateAliasStmt struct{ Name, Target string }

// CreateIndexStmt is CREATE [UNIQUE] INDEX. The engine's scan-centric
// runtime makes secondary indexes unnecessary; per §II.B.7 only
// uniqueness-enforcing indexes are accepted (as constraints), all others
// are rejected.
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// SetStmt is "SET name = value" (session variables, e.g. SQL_DIALECT).
type SetStmt struct{ Name, Value string }

// ExplainStmt wraps a statement for plan display. Analyze (EXPLAIN
// ANALYZE) additionally executes the target and annotates every plan node
// with actual row counts, wall time, and scan skip ratios.
type ExplainStmt struct {
	Target  Statement
	Analyze bool
}

// ValuesStmt is DB2's standalone VALUES expression statement.
type ValuesStmt struct{ Rows [][]Expr }

// CallStmt is CALL proc(args) — used for the Spark stored-procedure
// interface (§II.D: SQL Stored Procedure interfaces to submit or cancel
// Spark applications).
type CallStmt struct {
	Proc string
	Args []Expr
}

// BeginBlockStmt is an Oracle anonymous PL/SQL block: BEGIN ... END. The
// body statements execute sequentially.
type BeginBlockStmt struct{ Body []Statement }

func (*SelectStmt) stmt()         {}
func (*InsertStmt) stmt()         {}
func (*UpdateStmt) stmt()         {}
func (*DeleteStmt) stmt()         {}
func (*CreateTableStmt) stmt()    {}
func (*DropStmt) stmt()           {}
func (*TruncateStmt) stmt()       {}
func (*CreateViewStmt) stmt()     {}
func (*CreateSequenceStmt) stmt() {}
func (*CreateAliasStmt) stmt()    {}
func (*CreateIndexStmt) stmt()    {}
func (*SetStmt) stmt()            {}
func (*ExplainStmt) stmt()        {}
func (*ValuesStmt) stmt()         {}
func (*CallStmt) stmt()           {}
func (*BeginBlockStmt) stmt()     {}
