// Package exec is the query executor: a pull-based operator tree in which
// every operator hands its parent a vec.Batch ("strides", §II.B.7) — there
// is one operator contract and no row engine beside it. Selection predicates
// are pushed into the columnar scan, where they run over compressed codes;
// filters narrow a selection vector, projections evaluate a column at a
// time, and every expression runs over whole batches (Expr is EvalVec alone):
// one without a typed kernel is an ApplyExpr, whose arguments are vectors and
// whose function runs once per live position. Grouping, sorting and the one
// join keep typed columns indexed by id (agg_table.go, agg_lanes.go, sort.go)
// and emit typed vectors: grouping and sorting through one order-and-gather
// (sortedCols), the join by gathering a chunk of candidate pairs at a time,
// keyed or not, and narrowing it by its residual. Rows remain only where
// state is written to or read from a spill file and in VALUES. The join
// and grouping use partitioned hash algorithms in the style of Hybrid
// Hash Join: state belongs to one of a fixed fan-out of 64 hash partitions charged
// against the session's hash heap, a partition spills when the heap is
// exhausted, and an operator given no governor runs the same path with
// nothing denied. Fan-out is not yet derived from the build estimate or a
// cache size (ROADMAP, "Sort, Top-N and spill" 2(c)).
package exec

import (
	"sync/atomic"

	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// ChunkSize is the executor's batch size in rows, matched to the storage
// stride so scans hand over whole strides.
const ChunkSize = 1024

// Operator is a pull-based executor node. Contract: Open before Next;
// Next returns (nil, nil) at end of stream; Close releases resources and
// is idempotent.
//
// Ownership: a returned batch belongs to the caller, who may narrow its
// Sel and keep it past the next Next call — a producer builds a fresh batch
// for every Next and never rewrites a batch or vector it has handed out, so
// the shard server frames several batches at once and a nickname holds the
// batches it fetched. A batch that ScanOp decodes, or that SortOp,
// GroupByOp or HashJoinOp gathers, is also owned (vec.Batch.Own): its
// vectors' payloads come from vec's pools, and whoever ends up with the
// batch decides what happens to them. A pass-through operator moves it to
// its output: FilterOp narrows Sel in place and releases a batch it drops
// whole, ProjectOp's output adopts its input, and LimitOp and StatsOp hand
// it on as it came. A consumer that has copied out everything it keeps
// calls Release, which returns the payloads for the next scan to fill:
// GroupByOp after ingesting a batch, SortOp after buffering it, HashJoinOp
// after filing a build batch and after gathering a probe batch's last
// chunk, Drain and the session's result after boxing its rows, a DELETE
// after taking its row ids, and the shard server after framing a block.
// Any other holder disowns what it keeps (vec.Batch.Disown): BatchesOp,
// Collect, an UPDATE, the ShuffleWriter and the in-process shards. A
// batch nobody releases is garbage; a read of a released batch panics.
// Rows boxed out of a batch (Batch.AppendRows) are the taker's.
type Operator interface {
	Schema() types.Schema
	Open() error
	Next() (*vec.Batch, error)
	Close() error
}

// Expr is a scalar expression, evaluated a batch at a time: EvalVec returns
// one value per live position of b (other positions of the result are
// unspecified). It is the only way an expression runs — there is no per-row
// entry point. The SQL layer compiles its AST into the nodes of vecexpr.go;
// library users can supply their own through ApplyExpr.
type Expr interface {
	EvalVec(b *vec.Batch) (*vec.Vector, error)
}

// ColRef references a column by ordinal.
type ColRef int

// Const is a literal value.
type Const struct{ V types.Value }

// Drain runs an operator tree to completion and returns all rows. The rows
// are the caller's (see Operator), so the result is safe to hold after the
// operator is closed or run again.
func Drain(op Operator) ([]types.Row, error) {
	var out []types.Row
	err := Stream(op, func(b *vec.Batch) error {
		out = b.AppendRows(out)
		b.Release()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Collect runs an operator tree to completion and returns its batches,
// disowned, for a holder that keeps them (a CTE, a subquery, INSERT).
func Collect(op Operator) ([]*vec.Batch, error) {
	var out []*vec.Batch
	err := Stream(op, func(b *vec.Batch) error {
		b.Disown()
		out = append(out, b)
		return nil
	})
	return out, err
}

// Stream runs an operator tree to completion, handing every non-empty batch
// to emit; an error from emit stops the tree and is returned.
func Stream(op Operator, emit func(*vec.Batch) error) error {
	if err := op.Open(); err != nil {
		// A failed Open can already hold resources: governed operators
		// acquire their heap reservation before streaming children, so a
		// child error mid-Open would otherwise leak the grant (and any
		// spill runs) against the broker forever, eventually stalling
		// WLM admission. Every operator's Close is idempotent and
		// nil-safe, so closing after a failed Open is always safe.
		op.Close()
		return err
	}
	defer op.Close()
	for {
		vb, err := op.Next()
		if err != nil || vb == nil {
			return err
		}
		if vb.Rows() == 0 {
			continue
		}
		if err := emit(vb); err != nil {
			return err
		}
	}
}

// NewValues is the leaf over literal rows (VALUES, DUAL, a FROM-less
// SELECT, tests): a BatchesOp over the rows cut into batches
// (vec.FromRows) of ChunkSize.
func NewValues(sch types.Schema, rows []types.Row) *BatchesOp {
	var batches []*vec.Batch
	for a := 0; a < len(rows); a += ChunkSize {
		b := min(a+ChunkSize, len(rows))
		batches = append(batches, vec.FromRows(sch, rows[a:b:b]))
	}
	return NewBatches(sch, batches)
}

// BatchesOp is the one leaf over data a statement already holds: literal
// rows, a CTE's output, a nickname's scan, the coordinator's pulls and a
// shard's shuffle partitions. It hands out an unowned copy of each batch,
// so a parent that narrows Sel leaves the data as it was for the next
// reader, and a consumer's Release leaves it in place.
type BatchesOp struct {
	Sch  types.Schema
	Data []*vec.Batch
	// Name is the bound name the batches were read under ("" for VALUES),
	// for EXPLAIN.
	Name string
	// EstRows is the planner's estimate, which is exact here: Rows.
	EstRows float64
	next    int
}

// NewBatches creates a BatchesOp over batches of sch's width. It keeps
// them, so it disowns them: no reader releases their payloads.
func NewBatches(sch types.Schema, batches []*vec.Batch) *BatchesOp {
	for _, b := range batches {
		b.Disown()
	}
	return &BatchesOp{Sch: sch, Data: batches}
}

// Rows returns the number of live rows the operator holds.
func (o *BatchesOp) Rows() int {
	n := 0
	for _, b := range o.Data {
		n += b.Rows()
	}
	return n
}

// Schema implements Operator.
func (o *BatchesOp) Schema() types.Schema { return o.Sch }

// ScanAll returns the batches, so held data can itself be bound as a
// source (a CTE's output, DUAL).
func (o *BatchesOp) ScanAll() ([]*vec.Batch, error) { return o.Data, nil }

// Open implements Operator.
func (o *BatchesOp) Open() error { o.next = 0; return nil }

// Next implements Operator.
func (o *BatchesOp) Next() (*vec.Batch, error) {
	if o.next == len(o.Data) {
		return nil, nil
	}
	b := o.Data[o.next].WithSel(o.Data[o.next].Sel)
	b.Schema = o.Sch
	o.next++
	return b, nil
}

// Close implements Operator.
func (o *BatchesOp) Close() error { return nil }

// FilterOp drops rows whose predicate does not evaluate to TRUE
// (three-valued logic: NULL and false both drop the row) by narrowing the
// batch's selection vector in place — no row is copied or moved — and
// releases a batch of which it keeps no row.
type FilterOp struct {
	Child Operator
	Pred  Expr

	// CodeRows counts live rows whose qualifying set was computed entirely
	// in code space (no value decoded); EXPLAIN ANALYZE reports it. Atomic:
	// a parallel group-by pulls Next from several workers at once.
	CodeRows atomic.Int64
}

// Schema implements Operator.
func (f *FilterOp) Schema() types.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *FilterOp) Open() error { return f.Child.Open() }

// Next implements Operator.
func (f *FilterOp) Next() (*vec.Batch, error) {
	for {
		vb, err := f.Child.Next()
		if err != nil || vb == nil {
			return nil, err
		}
		// Operate-on-compressed fast path: dictionary-translated predicates
		// narrow the selection by comparing codes, never touching values.
		sel, ok, err := compressedSel(f.Pred, vb, vb.Idx())
		if err != nil {
			return nil, err
		}
		if ok {
			f.CodeRows.Add(int64(vb.Rows()))
		} else {
			pv, err := f.Pred.EvalVec(vb)
			if err != nil {
				return nil, err
			}
			sel = SelTrue(pv, vb.Idx())
		}
		if len(sel) == 0 {
			vb.Release()
			continue
		}
		vb.Sel = sel
		return vb, nil
	}
}

// Close implements Operator.
func (f *FilterOp) Close() error { return f.Child.Close() }

// ProjectOp evaluates output expressions one column at a time over the
// whole batch, preserving the child's selection vector. Its output adopts
// the input batch (vec.Batch.Adopt), so releasing the output returns the
// input's payloads, the columns it dropped included.
type ProjectOp struct {
	Child Operator
	Exprs []Expr
	Out   types.Schema

	// EncodedRows counts live rows that arrived still dictionary-encoded
	// in at least one column — i.e. rows late-materialized here rather
	// than decoded upstream. EXPLAIN ANALYZE reports it. Atomic for the
	// same reason as FilterOp.CodeRows.
	EncodedRows atomic.Int64
}

// Schema implements Operator.
func (p *ProjectOp) Schema() types.Schema { return p.Out }

// Open implements Operator.
func (p *ProjectOp) Open() error { return p.Child.Open() }

// Next implements Operator.
func (p *ProjectOp) Next() (*vec.Batch, error) {
	vb, err := p.Child.Next()
	if err != nil || vb == nil {
		return nil, err
	}
	cols := make([]*vec.Vector, len(p.Exprs))
	encoded := false
	for j, e := range p.Exprs {
		cols[j], err = e.EvalVec(vb)
		if err != nil {
			return nil, err
		}
		if cols[j].Encoded() {
			encoded = true
		}
	}
	// Late materialization point: everything upstream ran on codes; the
	// projection decodes each surviving output column exactly once.
	if encoded {
		p.EncodedRows.Add(int64(vb.Rows()))
		for _, cv := range cols {
			cv.Materialize()
		}
	}
	out := vec.NewBatch(p.Out, cols, vb.N)
	out.Sel = vb.Sel
	out.Adopt(vb)
	return out, nil
}

// Close implements Operator.
func (p *ProjectOp) Close() error { return p.Child.Close() }

// LimitOp implements LIMIT/OFFSET (and Oracle ROWNUM, Netezza LIMIT) over
// the selection vector.
type LimitOp struct {
	Child   Operator
	Offset  int64
	Limit   int64 // -1 = unlimited
	skipped int64
	sent    int64
}

// Schema implements Operator.
func (l *LimitOp) Schema() types.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *LimitOp) Open() error {
	l.skipped, l.sent = 0, 0
	return l.Child.Open()
}

// Next implements Operator.
func (l *LimitOp) Next() (*vec.Batch, error) {
	for {
		if l.Limit >= 0 && l.sent >= l.Limit {
			return nil, nil
		}
		vb, err := l.Child.Next()
		if err != nil || vb == nil {
			return nil, err
		}
		idx := vb.Idx()
		if l.skipped < l.Offset {
			need := l.Offset - l.skipped
			if int64(len(idx)) <= need {
				l.skipped += int64(len(idx))
				continue
			}
			idx = idx[need:]
			l.skipped = l.Offset
		}
		if l.Limit >= 0 {
			remain := l.Limit - l.sent
			if int64(len(idx)) > remain {
				idx = idx[:remain]
			}
		}
		if len(idx) == 0 {
			continue
		}
		l.sent += int64(len(idx))
		vb.Sel = idx
		return vb, nil
	}
}

// Close implements Operator.
func (l *LimitOp) Close() error { return l.Child.Close() }

// UnionAllOp concatenates children with identical arity. It decodes
// dictionary-encoded columns on the way through: a consumer that groups or
// joins on codes adopts one dictionary per column from its first batch, and
// two branches scan two tables.
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
func (u *UnionAllOp) Next() (*vec.Batch, error) {
	for u.cur < len(u.Children) {
		vb, err := u.Children[u.cur].Next()
		if err != nil {
			return nil, err
		}
		if vb != nil {
			vb.Decode()
			return vb, nil
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
