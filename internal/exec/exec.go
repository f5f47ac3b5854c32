// Package exec is the query executor: a pull-based operator tree working
// on batches of tuples ("strides", §II.B.7). Selection predicates are
// pushed into the columnar scan, where they run over compressed codes;
// joins and grouping use partitioned hash algorithms in the style of
// Hybrid Hash Join: inputs hash into a fixed fan-out of 64 partitions
// charged against the session's hash heap, a partition spills when the
// heap is exhausted, and an operator given no governor runs the same path
// with nothing denied. Fan-out is not yet derived from the build estimate
// or a cache size (ROADMAP, "Sort, Top-N and spill" 2(c)).
package exec

import (
	"fmt"

	"dashdb/internal/types"
)

// ChunkSize is the executor's batch size in rows, matched to the storage
// stride so scans hand over whole strides.
const ChunkSize = 1024

// Chunk is a batch of rows sharing a schema.
//
// Ownership invariant: once Next returns a chunk, the Rows slice and the
// Row values it references belong to the consumer. A producer must not
// rewrite previously returned rows or recycle their backing arrays on
// later Next calls; consumers (Drain, buffering operators, clients) rely
// on this to retain rows without deep-copying. Operators that reuse
// internal buffers — in particular the vector-batch RowAdapter — must
// materialize fresh rows before handing them out.
type Chunk struct {
	Schema types.Schema
	Rows   []types.Row
}

// Operator is a pull-based executor node. Contract: Open before Next;
// Next returns (nil, nil) at end of stream; Close releases resources and
// is idempotent.
type Operator interface {
	Schema() types.Schema
	Open() error
	Next() (*Chunk, error)
	Close() error
}

// Expr is a scalar expression evaluated against one row. The SQL layer
// compiles its AST into Exprs; library users can supply their own.
type Expr interface {
	Eval(row types.Row) (types.Value, error)
}

// ColRef references a column by ordinal.
type ColRef int

// Eval implements Expr.
func (c ColRef) Eval(row types.Row) (types.Value, error) {
	if int(c) < 0 || int(c) >= len(row) {
		return types.Null, fmt.Errorf("exec: column %d out of range", int(c))
	}
	return row[c], nil
}

// Const is a literal value.
type Const struct{ V types.Value }

// Eval implements Expr.
func (c Const) Eval(types.Row) (types.Value, error) { return c.V, nil }

// FuncExpr adapts an arbitrary function to Expr.
type FuncExpr func(row types.Row) (types.Value, error)

// Eval implements Expr.
func (f FuncExpr) Eval(row types.Row) (types.Value, error) { return f(row) }

// Drain runs an operator tree to completion and returns all rows. It
// copies each chunk's row headers into its own slice, which — together
// with the Chunk ownership invariant (producers never rewrite returned
// rows) — makes the result safe to hold after the operator is closed.
func Drain(op Operator) ([]types.Row, error) {
	if err := op.Open(); err != nil {
		// A failed Open can already hold resources: governed operators
		// acquire their heap reservation before streaming children, so a
		// child error mid-Open would otherwise leak the grant (and any
		// spill runs) against the broker forever, eventually stalling
		// WLM admission. Every operator's Close is idempotent and
		// nil-safe, so closing after a failed Open is always safe.
		op.Close()
		return nil, err
	}
	defer op.Close()
	var out []types.Row
	for {
		ch, err := op.Next()
		if err != nil {
			return nil, err
		}
		if ch == nil {
			return out, nil
		}
		out = append(out, ch.Rows...)
	}
}

// ValuesOp streams literal rows (VALUES clause, catalog queries, tests).
type ValuesOp struct {
	Sch  types.Schema
	Data []types.Row
	pos  int
}

// NewValues creates a ValuesOp.
func NewValues(sch types.Schema, rows []types.Row) *ValuesOp {
	return &ValuesOp{Sch: sch, Data: rows}
}

// Schema implements Operator.
func (v *ValuesOp) Schema() types.Schema { return v.Sch }

// Open implements Operator.
func (v *ValuesOp) Open() error { v.pos = 0; return nil }

// Next implements Operator.
func (v *ValuesOp) Next() (*Chunk, error) {
	if v.pos >= len(v.Data) {
		return nil, nil
	}
	end := v.pos + ChunkSize
	if end > len(v.Data) {
		end = len(v.Data)
	}
	ch := &Chunk{Schema: v.Sch, Rows: v.Data[v.pos:end]}
	v.pos = end
	return ch, nil
}

// Close implements Operator.
func (v *ValuesOp) Close() error { return nil }

// FilterOp drops rows whose predicate does not evaluate to TRUE
// (three-valued logic: NULL and false both drop the row). Survivors are
// re-chunked toward ChunkSize so a selective predicate does not starve
// downstream operators with degenerate tiny chunks.
type FilterOp struct {
	Child Operator
	Pred  Expr

	buf []types.Row
	eos bool
}

// Schema implements Operator.
func (f *FilterOp) Schema() types.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *FilterOp) Open() error {
	f.buf, f.eos = nil, false
	return f.Child.Open()
}

// Next implements Operator.
func (f *FilterOp) Next() (*Chunk, error) {
	for {
		if len(f.buf) >= ChunkSize {
			rows := f.buf[:ChunkSize:ChunkSize]
			f.buf = f.buf[ChunkSize:]
			return &Chunk{Schema: f.Child.Schema(), Rows: rows}, nil
		}
		if f.eos {
			if len(f.buf) > 0 {
				rows := f.buf
				f.buf = nil
				return &Chunk{Schema: f.Child.Schema(), Rows: rows}, nil
			}
			return nil, nil
		}
		ch, err := f.Child.Next()
		if err != nil {
			return nil, err
		}
		if ch == nil {
			f.eos = true
			continue
		}
		for _, row := range ch.Rows {
			v, err := f.Pred.Eval(row)
			if err != nil {
				return nil, err
			}
			if !v.IsNull() && v.Kind() == types.KindBool && v.Bool() {
				f.buf = append(f.buf, row)
			}
		}
	}
}

// Close implements Operator.
func (f *FilterOp) Close() error {
	f.buf = nil
	return f.Child.Close()
}

// ProjectOp computes output expressions per row.
type ProjectOp struct {
	Child Operator
	Exprs []Expr
	Out   types.Schema
}

// Schema implements Operator.
func (p *ProjectOp) Schema() types.Schema { return p.Out }

// Open implements Operator.
func (p *ProjectOp) Open() error { return p.Child.Open() }

// Next implements Operator.
func (p *ProjectOp) Next() (*Chunk, error) {
	ch, err := p.Child.Next()
	if err != nil || ch == nil {
		return nil, err
	}
	rows := make([]types.Row, len(ch.Rows))
	for i, in := range ch.Rows {
		out := make(types.Row, len(p.Exprs))
		for j, e := range p.Exprs {
			v, err := e.Eval(in)
			if err != nil {
				return nil, err
			}
			out[j] = v
		}
		rows[i] = out
	}
	return &Chunk{Schema: p.Out, Rows: rows}, nil
}

// Close implements Operator.
func (p *ProjectOp) Close() error { return p.Child.Close() }

// LimitOp implements LIMIT/OFFSET (and Oracle ROWNUM, Netezza LIMIT).
// Output is re-chunked toward ChunkSize: offset trimming never produces
// a degenerate sliver chunk followed by full ones.
type LimitOp struct {
	Child   Operator
	Offset  int64
	Limit   int64 // -1 = unlimited
	skipped int64
	sent    int64
	buf     []types.Row
	eos     bool
}

// Schema implements Operator.
func (l *LimitOp) Schema() types.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *LimitOp) Open() error {
	l.skipped, l.sent = 0, 0
	l.buf, l.eos = nil, false
	return l.Child.Open()
}

// Next implements Operator.
func (l *LimitOp) Next() (*Chunk, error) {
	for {
		if len(l.buf) >= ChunkSize {
			rows := l.buf[:ChunkSize:ChunkSize]
			l.buf = l.buf[ChunkSize:]
			return &Chunk{Schema: l.Child.Schema(), Rows: rows}, nil
		}
		if l.eos {
			if len(l.buf) > 0 {
				rows := l.buf
				l.buf = nil
				return &Chunk{Schema: l.Child.Schema(), Rows: rows}, nil
			}
			return nil, nil
		}
		if l.Limit >= 0 && l.sent >= l.Limit {
			l.eos = true
			continue
		}
		ch, err := l.Child.Next()
		if err != nil {
			return nil, err
		}
		if ch == nil {
			l.eos = true
			continue
		}
		rows := ch.Rows
		if l.skipped < l.Offset {
			need := l.Offset - l.skipped
			if int64(len(rows)) <= need {
				l.skipped += int64(len(rows))
				continue
			}
			rows = rows[need:]
			l.skipped = l.Offset
		}
		if l.Limit >= 0 {
			remain := l.Limit - l.sent
			if int64(len(rows)) > remain {
				rows = rows[:remain]
			}
		}
		l.sent += int64(len(rows))
		l.buf = append(l.buf, rows...)
	}
}

// Close implements Operator.
func (l *LimitOp) Close() error {
	l.buf = nil
	return l.Child.Close()
}

// UnionAllOp concatenates children with identical arity.
type UnionAllOp struct {
	Children []Operator
	cur      int
}

// Schema implements Operator.
func (u *UnionAllOp) Schema() types.Schema { return u.Children[0].Schema() }

// Open implements Operator.
func (u *UnionAllOp) Open() error {
	u.cur = 0
	for i, c := range u.Children {
		if err := c.Open(); err != nil {
			// Close the siblings already opened so their resources
			// (reservations, snapshot pins) are not stranded by one
			// failing branch.
			for _, prev := range u.Children[:i] {
				prev.Close()
			}
			return err
		}
	}
	return nil
}

// Next implements Operator.
func (u *UnionAllOp) Next() (*Chunk, error) {
	for u.cur < len(u.Children) {
		ch, err := u.Children[u.cur].Next()
		if err != nil {
			return nil, err
		}
		if ch != nil {
			return ch, nil
		}
		u.cur++
	}
	return nil, nil
}

// Close implements Operator.
func (u *UnionAllOp) Close() error {
	var first error
	for _, c := range u.Children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
