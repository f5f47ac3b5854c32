package sql

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dashdb/internal/types"
)

// Statement wire codec: how a parsed statement travels between the MPP
// coordinator and the shard servers. The coordinator rewrites the AST
// (partial-aggregate select lists, shuffle-stage inputs) and ships the tree
// instead of rendering it back to SQL text, so no SQL renderer exists in
// the protocol.
//
// A node is a tag byte naming its type (0 = nil) followed by its fields in
// declaration order:
//
//	string           uvarint byte length, bytes
//	int              zig-zag varint
//	bool             one byte, 0 or 1
//	slice            uvarint length + 1 (0 = nil), elements
//	*SelectStmt      its blocks, each 1 and the block's fields; then 0
//	Literal value    one cell of types/codec.go
//
// A set-operation chain (SelectStmt.Union) is written as the list it is,
// block after block at one depth, and so is a BinaryOp's left spine — the
// way the parser builds a OR b OR c, a + b - c and x || y || z: the count
// of its operators, the leftmost operand, then each operator and right
// operand from the bottom up. However many terms a predicate or an
// arithmetic chain has, it costs one level. Every other child is nested
// one level deeper. Encoder and decoder both refuse a tree nested deeper
// than MaxWireDepth, so a hostile frame cannot recurse without bound. The
// decoder checks every length against the bytes left before it allocates,
// and refuses what the encoder never writes: an unknown tag, a bool other
// than 0 or 1, a statement-level SELECT that is absent.

// MaxWireDepth bounds how deeply a statement on the wire may nest:
// expressions, FROM items, subqueries and statements each count a level,
// a chain of binary operators one in all. Only parentheses, subqueries
// and prefix operators nested a thousand deep reach it.
const MaxWireDepth = 1000

var errWireDepth = fmt.Errorf("statement nests deeper than %d", MaxWireDepth)

// Tags of the statement kinds.
const (
	wSelect byte = iota + 1
	wInsert
	wUpdate
	wDelete
	wCreateTable
	wDrop
	wTruncate
	wCreateView
	wCreateSequence
	wCreateAlias
	wCreateIndex
	wSet
	wExplain
	wValues
	wCall
	wBeginBlock
)

// Tags of the expression kinds.
const (
	wLiteral byte = iota + 1
	wColumnRef
	wStar
	wBinaryOp
	wUnaryOp
	wFuncCall
	wCase
	wCast
	wIsNull
	wIsBool
	wBetween
	wIn
	wExists
	wSubquery
	wSeqVal
	wRownum
	wParam
	wOverlaps
)

// Tags of the FROM item kinds.
const (
	wTableRef byte = iota + 1
	wSubqueryRef
	wJoinRef
)

// AppendStmt appends st's wire encoding to b.
func AppendStmt(b []byte, st Statement) ([]byte, error) {
	w := wireWriter{b: b}
	w.stmt(st)
	if w.err != nil {
		return b, fmt.Errorf("sql: wire: %w", w.err)
	}
	return w.b, nil
}

// ReadStmt decodes the statement at the start of b and returns it with the
// number of bytes it took.
func ReadStmt(b []byte) (Statement, int, error) {
	r := wireReader{Reader: types.NewReader(b)}
	st := r.stmt()
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("sql: wire: %w", err)
	}
	return st, len(b) - len(r.Rest()), nil
}

// wireWriter appends nodes to b; the first error sticks.
type wireWriter struct {
	b     []byte
	depth int
	err   error
}

func (w *wireWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// enter descends one level, false once the tree is too deep.
func (w *wireWriter) enter() bool {
	if w.depth++; w.depth > MaxWireDepth {
		w.fail(errWireDepth)
		return false
	}
	return w.err == nil
}

func (w *wireWriter) tag(t byte)  { w.b = append(w.b, t) }
func (w *wireWriter) int(x int64) { w.b = binary.AppendVarint(w.b, x) }

// count writes a list's length, which for nil is 0.
func (w *wireWriter) count(n int, isNil bool) {
	if isNil {
		w.b = append(w.b, 0)
		return
	}
	w.b = binary.AppendUvarint(w.b, uint64(n)+1)
}

func (w *wireWriter) str(s string) { w.b = types.AppendStr(w.b, s) }
func (w *wireWriter) bool(v bool)  { w.b = types.AppendBool(w.b, v) }

func (w *wireWriter) strs(ss []string) {
	w.count(len(ss), ss == nil)
	for _, s := range ss {
		w.str(s)
	}
}

func (w *wireWriter) exprs(es []Expr) {
	w.count(len(es), es == nil)
	for _, e := range es {
		w.expr(e)
	}
}

func (w *wireWriter) rows(rows [][]Expr) {
	w.count(len(rows), rows == nil)
	for _, r := range rows {
		w.exprs(r)
	}
}

func (w *wireWriter) stmt(st Statement) {
	if !w.enter() {
		return
	}
	defer func() { w.depth-- }()
	switch s := st.(type) {
	case *SelectStmt:
		if s == nil {
			w.fail(errors.New("nil SELECT"))
			return
		}
		w.tag(wSelect)
		w.selectStmt(s)
	case *InsertStmt:
		w.tag(wInsert)
		w.str(s.Table)
		w.strs(s.Columns)
		w.rows(s.Rows)
		w.selectStmt(s.Query)
	case *UpdateStmt:
		w.tag(wUpdate)
		w.str(s.Table)
		w.count(len(s.Set), s.Set == nil)
		for _, set := range s.Set {
			w.str(set.Column)
			w.expr(set.Expr)
		}
		w.expr(s.Where)
	case *DeleteStmt:
		w.tag(wDelete)
		w.str(s.Table)
		w.expr(s.Where)
	case *CreateTableStmt:
		w.tag(wCreateTable)
		w.str(s.Table)
		w.count(len(s.Columns), s.Columns == nil)
		for _, c := range s.Columns {
			w.str(c.Name)
			w.str(c.Type)
			w.bool(c.NotNull)
		}
		w.bool(s.Temp)
		w.bool(s.IfNotExists)
		w.selectStmt(s.AsQuery)
	case *DropStmt:
		w.tag(wDrop)
		w.str(s.Kind)
		w.str(s.Name)
		w.bool(s.IfExists)
	case *TruncateStmt:
		w.tag(wTruncate)
		w.str(s.Table)
	case *CreateViewStmt:
		w.tag(wCreateView)
		w.str(s.Name)
		w.str(s.SQL)
		w.selectStmt(s.Sub)
	case *CreateSequenceStmt:
		w.tag(wCreateSequence)
		w.str(s.Name)
		w.int(s.Start)
		w.int(s.Incr)
	case *CreateAliasStmt:
		w.tag(wCreateAlias)
		w.str(s.Name)
		w.str(s.Target)
	case *CreateIndexStmt:
		w.tag(wCreateIndex)
		w.str(s.Name)
		w.str(s.Table)
		w.strs(s.Columns)
		w.bool(s.Unique)
	case *SetStmt:
		w.tag(wSet)
		w.str(s.Name)
		w.str(s.Value)
	case *ExplainStmt:
		w.tag(wExplain)
		w.stmt(s.Target)
		w.bool(s.Analyze)
	case *ValuesStmt:
		w.tag(wValues)
		w.rows(s.Rows)
	case *CallStmt:
		w.tag(wCall)
		w.str(s.Proc)
		w.exprs(s.Args)
	case *BeginBlockStmt:
		w.tag(wBeginBlock)
		w.count(len(s.Body), s.Body == nil)
		for _, b := range s.Body {
			w.stmt(b)
		}
	default:
		w.fail(fmt.Errorf("cannot encode statement %T", st))
	}
}

// selectStmt writes a query expression: each block of its set-operation
// chain, then the end of the chain.
func (w *wireWriter) selectStmt(s *SelectStmt) {
	if !w.enter() {
		return
	}
	defer func() { w.depth-- }()
	for ; s != nil; s = s.Union {
		w.tag(1)
		w.count(len(s.With), s.With == nil)
		for _, c := range s.With {
			w.str(c.Name)
			w.selectStmt(c.Sub)
		}
		w.bool(s.Distinct)
		w.count(len(s.Items), s.Items == nil)
		for _, it := range s.Items {
			w.expr(it.Expr)
			w.str(it.Alias)
		}
		w.count(len(s.From), s.From == nil)
		for _, f := range s.From {
			w.from(f)
		}
		w.expr(s.Where)
		w.exprs(s.GroupBy)
		w.expr(s.Having)
		w.count(len(s.OrderBy), s.OrderBy == nil)
		for _, o := range s.OrderBy {
			w.expr(o.Expr)
			w.int(int64(o.Ordinal))
			w.bool(o.Desc)
		}
		w.int(s.Limit)
		w.int(s.Offset)
		w.bool(s.UnionAll)
	}
	w.tag(0)
}

func (w *wireWriter) from(f FromItem) {
	if !w.enter() {
		return
	}
	defer func() { w.depth-- }()
	switch x := f.(type) {
	case *TableRef:
		w.tag(wTableRef)
		w.str(x.Name)
		w.str(x.Alias)
	case *SubqueryRef:
		w.tag(wSubqueryRef)
		w.selectStmt(x.Sub)
		w.str(x.Alias)
	case *JoinRef:
		w.tag(wJoinRef)
		w.from(x.Left)
		w.from(x.Right)
		w.str(x.Type)
		w.expr(x.On)
		w.strs(x.Using)
	case nil:
		w.tag(0)
	default:
		w.fail(fmt.Errorf("cannot encode FROM item %T", f))
	}
}

func (w *wireWriter) expr(e Expr) {
	if e == nil {
		w.tag(0)
		return
	}
	if !w.enter() {
		return
	}
	defer func() { w.depth-- }()
	switch x := e.(type) {
	case *Literal:
		w.tag(wLiteral)
		var err error
		if w.b, err = types.AppendCell(w.b, x.Val); err != nil {
			w.fail(err)
		}
	case *ColumnRef:
		w.tag(wColumnRef)
		w.str(x.Table)
		w.str(x.Column)
		w.bool(x.OuterJoin)
	case *Star:
		w.tag(wStar)
		w.str(x.Table)
	case *BinaryOp:
		w.tag(wBinaryOp)
		w.chain(x)
	case *UnaryOp:
		w.tag(wUnaryOp)
		w.str(x.Op)
		w.expr(x.Expr)
	case *FuncCall:
		w.tag(wFuncCall)
		w.str(x.Name)
		w.exprs(x.Args)
		w.bool(x.Star)
		w.bool(x.Distinct)
		w.expr(x.WithinGroupOrder)
	case *CaseExpr:
		w.tag(wCase)
		w.expr(x.Operand)
		w.count(len(x.Whens), x.Whens == nil)
		for _, wh := range x.Whens {
			w.expr(wh.When)
			w.expr(wh.Then)
		}
		w.expr(x.Else)
	case *CastExpr:
		w.tag(wCast)
		w.expr(x.Expr)
		w.str(x.Type)
	case *IsNullExpr:
		w.tag(wIsNull)
		w.expr(x.Expr)
		w.bool(x.Not)
	case *IsBoolExpr:
		w.tag(wIsBool)
		w.expr(x.Expr)
		w.bool(x.Want)
		w.bool(x.Not)
	case *BetweenExpr:
		w.tag(wBetween)
		w.expr(x.Expr)
		w.expr(x.Lo)
		w.expr(x.Hi)
		w.bool(x.Not)
	case *InExpr:
		w.tag(wIn)
		w.expr(x.Expr)
		w.exprs(x.List)
		w.selectStmt(x.Sub)
		w.bool(x.Not)
	case *ExistsExpr:
		w.tag(wExists)
		w.selectStmt(x.Sub)
		w.bool(x.Not)
	case *SubqueryExpr:
		w.tag(wSubquery)
		w.selectStmt(x.Sub)
	case *SeqValExpr:
		w.tag(wSeqVal)
		w.str(x.Seq)
		w.bool(x.Next)
	case *RownumExpr:
		w.tag(wRownum)
	case *ParamExpr:
		w.tag(wParam)
		w.int(int64(x.Index))
	case *OverlapsExpr:
		w.tag(wOverlaps)
		w.expr(x.S1)
		w.expr(x.E1)
		w.expr(x.S2)
		w.expr(x.E2)
	default:
		w.fail(fmt.Errorf("cannot encode expression %T", e))
	}
}

// chain writes top's left spine: the BinaryOps reached through Left, then
// the operand below the last of them, then each BinaryOp's operator and
// right operand, bottom up.
func (w *wireWriter) chain(top *BinaryOp) {
	var buf [8]*BinaryOp
	spine := buf[:0]
	var e Expr = top
	for b, ok := top, true; ok && b != nil; b, ok = e.(*BinaryOp) {
		spine, e = append(spine, b), b.Left
	}
	w.count(len(spine), false)
	w.expr(e)
	for i := len(spine) - 1; i >= 0; i-- {
		w.str(spine[i].Op)
		w.expr(spine[i].Right)
	}
}

// wireReader decodes nodes from the front of its bytes; the first error
// sticks.
type wireReader struct {
	types.Reader
	depth int
}

// enter descends one level, false once the tree is too deep or the read
// failed.
func (r *wireReader) enter() bool {
	if r.depth++; r.depth > MaxWireDepth {
		r.Fail(errWireDepth)
	}
	return r.Err() == nil
}

// count reads a list's length: -1 for nil. A list of n takes at least n
// bytes.
func (r *wireReader) count() int {
	x := r.Uvarint()
	if x > uint64(len(r.Rest()))+1 {
		r.Fail(fmt.Errorf("list of %d, %d bytes left", x-1, len(r.Rest())))
		return -1
	}
	return int(x) - 1
}

// makeList makes the slice of a list of n elements, nil for -1.
func makeList[T any](n int) []T {
	if n < 0 {
		return nil
	}
	return make([]T, n)
}

func (r *wireReader) strs() []string {
	ss := makeList[string](r.count())
	for i := range ss {
		ss[i] = r.Str()
	}
	return ss
}

func (r *wireReader) exprs() []Expr {
	es := makeList[Expr](r.count())
	for i := range es {
		es[i] = r.expr()
	}
	return es
}

func (r *wireReader) rows() [][]Expr {
	rows := makeList[[]Expr](r.count())
	for i := range rows {
		rows[i] = r.exprs()
	}
	return rows
}

func (r *wireReader) stmt() Statement {
	if !r.enter() {
		return nil
	}
	defer func() { r.depth-- }()
	switch t := r.Byte(); t {
	case wSelect:
		s := r.selectStmt()
		if s == nil {
			r.Fail(errors.New("empty SELECT"))
		}
		return s
	case wInsert:
		s := &InsertStmt{Table: r.Str(), Columns: r.strs(), Rows: r.rows()}
		s.Query = r.selectStmt()
		return s
	case wUpdate:
		s := &UpdateStmt{Table: r.Str(), Set: makeList[SetClause](r.count())}
		for i := range s.Set {
			s.Set[i] = SetClause{Column: r.Str(), Expr: r.expr()}
		}
		s.Where = r.expr()
		return s
	case wDelete:
		return &DeleteStmt{Table: r.Str(), Where: r.expr()}
	case wCreateTable:
		s := &CreateTableStmt{Table: r.Str(), Columns: makeList[ColumnDef](r.count())}
		for i := range s.Columns {
			s.Columns[i] = ColumnDef{Name: r.Str(), Type: r.Str(), NotNull: r.Bool()}
		}
		s.Temp, s.IfNotExists = r.Bool(), r.Bool()
		s.AsQuery = r.selectStmt()
		return s
	case wDrop:
		return &DropStmt{Kind: r.Str(), Name: r.Str(), IfExists: r.Bool()}
	case wTruncate:
		return &TruncateStmt{Table: r.Str()}
	case wCreateView:
		return &CreateViewStmt{Name: r.Str(), SQL: r.Str(), Sub: r.selectStmt()}
	case wCreateSequence:
		return &CreateSequenceStmt{Name: r.Str(), Start: r.Varint(), Incr: r.Varint()}
	case wCreateAlias:
		return &CreateAliasStmt{Name: r.Str(), Target: r.Str()}
	case wCreateIndex:
		return &CreateIndexStmt{Name: r.Str(), Table: r.Str(), Columns: r.strs(), Unique: r.Bool()}
	case wSet:
		return &SetStmt{Name: r.Str(), Value: r.Str()}
	case wExplain:
		return &ExplainStmt{Target: r.stmt(), Analyze: r.Bool()}
	case wValues:
		return &ValuesStmt{Rows: r.rows()}
	case wCall:
		return &CallStmt{Proc: r.Str(), Args: r.exprs()}
	case wBeginBlock:
		s := &BeginBlockStmt{Body: makeList[Statement](r.count())}
		for i := range s.Body {
			s.Body[i] = r.stmt()
		}
		return s
	default:
		r.Fail(fmt.Errorf("bad statement tag %d", t))
		return nil
	}
}

// chain reads a BinaryOp's left spine written by wireWriter.chain and
// builds it left-deep again.
func (r *wireReader) chain() Expr {
	n := r.count()
	if n < 1 {
		r.Fail(errors.New("binary operator chain without an operator"))
		return nil
	}
	e := r.expr()
	if _, ok := e.(*BinaryOp); ok {
		r.Fail(errors.New("binary operator chain below a chain"))
		return nil
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		e = &BinaryOp{Op: r.Str(), Left: e, Right: r.expr()}
	}
	return e
}

// selectStmt reads a query expression written by wireWriter.selectStmt:
// nil when it has no block.
func (r *wireReader) selectStmt() *SelectStmt {
	if !r.enter() {
		return nil
	}
	defer func() { r.depth-- }()
	var head *SelectStmt
	for next := &head; r.Err() == nil; {
		switch t := r.Byte(); t {
		case 0:
			return head
		case 1:
		default:
			r.Fail(fmt.Errorf("bad SELECT block tag %d", t))
			return nil
		}
		s := &SelectStmt{With: makeList[CTE](r.count())}
		for i := range s.With {
			s.With[i] = CTE{Name: r.Str(), Sub: r.selectStmt()}
		}
		s.Distinct = r.Bool()
		s.Items = makeList[SelectItem](r.count())
		for i := range s.Items {
			s.Items[i] = SelectItem{Expr: r.expr(), Alias: r.Str()}
		}
		s.From = makeList[FromItem](r.count())
		for i := range s.From {
			s.From[i] = r.from()
		}
		s.Where, s.GroupBy, s.Having = r.expr(), r.exprs(), r.expr()
		s.OrderBy = makeList[OrderItem](r.count())
		for i := range s.OrderBy {
			s.OrderBy[i] = OrderItem{Expr: r.expr(), Ordinal: int(r.Varint()), Desc: r.Bool()}
		}
		s.Limit, s.Offset, s.UnionAll = r.Varint(), r.Varint(), r.Bool()
		*next, next = s, &s.Union
	}
	return nil
}

func (r *wireReader) from() FromItem {
	if !r.enter() {
		return nil
	}
	defer func() { r.depth-- }()
	switch t := r.Byte(); t {
	case 0:
		return nil
	case wTableRef:
		return &TableRef{Name: r.Str(), Alias: r.Str()}
	case wSubqueryRef:
		return &SubqueryRef{Sub: r.selectStmt(), Alias: r.Str()}
	case wJoinRef:
		return &JoinRef{Left: r.from(), Right: r.from(), Type: r.Str(), On: r.expr(), Using: r.strs()}
	default:
		r.Fail(fmt.Errorf("bad FROM item tag %d", t))
		return nil
	}
}

func (r *wireReader) expr() Expr {
	t := r.Byte()
	if t == 0 || !r.enter() {
		return nil
	}
	defer func() { r.depth-- }()
	switch t {
	case wLiteral:
		return &Literal{Val: r.Cell()}
	case wColumnRef:
		return &ColumnRef{Table: r.Str(), Column: r.Str(), OuterJoin: r.Bool()}
	case wStar:
		return &Star{Table: r.Str()}
	case wBinaryOp:
		return r.chain()
	case wUnaryOp:
		return &UnaryOp{Op: r.Str(), Expr: r.expr()}
	case wFuncCall:
		return &FuncCall{Name: r.Str(), Args: r.exprs(), Star: r.Bool(), Distinct: r.Bool(), WithinGroupOrder: r.expr()}
	case wCase:
		c := &CaseExpr{Operand: r.expr(), Whens: makeList[CaseWhen](r.count())}
		for i := range c.Whens {
			c.Whens[i] = CaseWhen{When: r.expr(), Then: r.expr()}
		}
		c.Else = r.expr()
		return c
	case wCast:
		return &CastExpr{Expr: r.expr(), Type: r.Str()}
	case wIsNull:
		return &IsNullExpr{Expr: r.expr(), Not: r.Bool()}
	case wIsBool:
		return &IsBoolExpr{Expr: r.expr(), Want: r.Bool(), Not: r.Bool()}
	case wBetween:
		return &BetweenExpr{Expr: r.expr(), Lo: r.expr(), Hi: r.expr(), Not: r.Bool()}
	case wIn:
		return &InExpr{Expr: r.expr(), List: r.exprs(), Sub: r.selectStmt(), Not: r.Bool()}
	case wExists:
		return &ExistsExpr{Sub: r.selectStmt(), Not: r.Bool()}
	case wSubquery:
		return &SubqueryExpr{Sub: r.selectStmt()}
	case wSeqVal:
		return &SeqValExpr{Seq: r.Str(), Next: r.Bool()}
	case wRownum:
		return &RownumExpr{}
	case wParam:
		return &ParamExpr{Index: int(r.Varint())}
	case wOverlaps:
		return &OverlapsExpr{S1: r.expr(), E1: r.expr(), S2: r.expr(), E2: r.expr()}
	default:
		r.Fail(fmt.Errorf("bad expression tag %d", t))
		return nil
	}
}
