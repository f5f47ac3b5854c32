package exec

import (
	"sync/atomic"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// VecOperator is the vectorized executor contract, mirroring Operator but
// exchanging vec.Batch instead of row chunks. Contract: Open before
// NextVec; NextVec returns (nil, nil) at end of stream; Close releases
// resources and is idempotent. Returned batches are owned by the caller
// until the next NextVec call.
type VecOperator interface {
	Schema() types.Schema
	Open() error
	NextVec() (*vec.Batch, error)
	Close() error
}

// VecScanOp streams a columnar table as typed vector batches: one batch
// per stride, decoded column-at-a-time straight out of the stride pages
// with no per-row materialization. Predicates are pushed into the
// compressed scan exactly like ScanOp, and Dop > 1 drives the same
// morsel-parallel ParallelScan.
type VecScanOp struct {
	Table      *columnar.Table
	Preds      []columnar.Pred
	Projection []int
	Dop        int // 0/1 = serial, in row-id order

	// Snap, when set by the compiler, is the statement's pinned snapshot
	// of Table (see ScanOp.Snap). Nil makes the scan pin its own epoch
	// for the scan's duration.
	Snap *columnar.Snapshot

	// Compressed, aligned to output positions, marks columns the scan
	// emits as code-carrying vectors (dictionary codes + *Dict reference)
	// instead of materialized values — the operate-on-compressed-data
	// hand-off. Nil = decode everything. Set via EnableCompressed.
	Compressed []bool

	// EstRows is the planner's output-cardinality estimate, carried over
	// from the row ScanOp when the plan vectorizes. 0 = unplanned.
	EstRows float64

	// ScanStats, when set by exec.Instrument, receives per-worker stride
	// visit/skip and row counters for this scan. Nil = uninstrumented.
	ScanStats *telemetry.ScanStats

	out    types.Schema
	chunks chan *vec.Batch
	errc   chan error
	stop   chan struct{}
}

// NewVecScan builds a VecScanOp.
func NewVecScan(t *columnar.Table, preds []columnar.Pred, projection []int, dop int) *VecScanOp {
	s := &VecScanOp{Table: t, Preds: preds, Projection: projection, Dop: dop}
	if projection == nil {
		s.out = t.Schema()
	} else {
		for _, ci := range projection {
			s.out = append(s.out, t.Schema()[ci])
		}
	}
	return s
}

// Schema implements VecOperator.
func (s *VecScanOp) Schema() types.Schema { return s.out }

// EnableCompressed marks every dictionary-encoded output column for
// code-vector emission and reports whether any column qualified. The
// planner's view of "dictionary-encoded" is advisory — an insert-triggered
// re-analysis can swap encoders before Open — so downstream operators
// always adopt dictionaries from the batches themselves, and VectorsEnc
// falls back to decoding if a flagged column is no longer a Dict.
func (s *VecScanOp) EnableCompressed() bool {
	flags := make([]bool, len(s.out))
	any := false
	for j := range s.out {
		ci := j
		if s.Projection != nil {
			ci = s.Projection[j]
		}
		if s.planDict(ci) != nil {
			flags[j] = true
			any = true
		}
	}
	if any {
		s.Compressed = flags
	}
	return any
}

// planDict resolves column ci's dictionary against the pinned snapshot
// when one is set (so compile-time eligibility matches what the scan will
// read), or the current epoch otherwise.
func (s *VecScanOp) planDict(ci int) *encoding.Dict {
	if s.Snap != nil {
		return s.Snap.ColumnDict(ci)
	}
	// Transient pin: dictionaries are shared append-only structures, so
	// the returned Dict stays valid after the epoch is released.
	snap := s.Table.Snapshot()
	defer snap.Release()
	return snap.ColumnDict(ci)
}

// Open implements VecOperator: like ScanOp, a producer goroutine runs the
// scan and vectorizes each columnar.Batch inside the callback (batches
// are only valid during the callback).
func (s *VecScanOp) Open() error {
	buf := 2
	if s.Dop > buf {
		buf = s.Dop
	}
	s.chunks = make(chan *vec.Batch, buf)
	s.errc = make(chan error, 1)
	s.stop = make(chan struct{})
	deliver := func(b *columnar.Batch) bool {
		vb := &vec.Batch{Schema: s.out, Cols: b.VectorsEnc(s.Projection, s.Compressed), N: b.Len()}
		select {
		case s.chunks <- vb:
			return true
		case <-s.stop:
			return false
		}
	}
	go func() {
		defer close(s.chunks)
		snap := s.Snap
		if snap == nil {
			snap = s.Table.Snapshot()
			defer snap.Release()
		}
		var err error
		if s.Dop > 1 {
			err = snap.ParallelScanWithStats(s.Preds, s.Dop, s.ScanStats, func(_ int, b *columnar.Batch) bool {
				return deliver(b)
			})
		} else {
			err = snap.ScanWithStats(s.Preds, s.ScanStats, deliver)
		}
		if err != nil {
			s.errc <- err
		}
	}()
	return nil
}

// NextVec implements VecOperator.
func (s *VecScanOp) NextVec() (*vec.Batch, error) {
	vb, ok := <-s.chunks
	if !ok {
		select {
		case err := <-s.errc:
			return nil, err
		default:
			return nil, nil
		}
	}
	return vb, nil
}

// Close implements VecOperator.
func (s *VecScanOp) Close() error {
	if s.stop != nil {
		select {
		case <-s.stop:
		default:
			close(s.stop)
		}
		// Drain so the producer goroutine exits.
		for range s.chunks {
		}
		s.stop = nil
	}
	return nil
}

// VecFilterOp drops rows whose predicate does not evaluate to TRUE by
// narrowing the batch's selection vector — no row is copied or moved.
type VecFilterOp struct {
	Child VecOperator
	Pred  Expr // must satisfy Vectorizable

	// CodeRows counts live rows whose qualifying set was computed entirely
	// in code space (no value decoded); EXPLAIN ANALYZE reports it. Atomic:
	// a parallel group-by pulls NextVec from several workers at once.
	CodeRows atomic.Int64
}

// Schema implements VecOperator.
func (f *VecFilterOp) Schema() types.Schema { return f.Child.Schema() }

// Open implements VecOperator.
func (f *VecFilterOp) Open() error { return f.Child.Open() }

// NextVec implements VecOperator.
func (f *VecFilterOp) NextVec() (*vec.Batch, error) {
	for {
		vb, err := f.Child.NextVec()
		if err != nil || vb == nil {
			return nil, err
		}
		// Operate-on-compressed fast path: dictionary-translated predicates
		// narrow the selection by comparing codes, never touching values.
		if sel, ok, err := compressedSel(f.Pred, vb, vb.Idx()); err != nil {
			return nil, err
		} else if ok {
			f.CodeRows.Add(int64(vb.Rows()))
			if len(sel) == 0 {
				continue
			}
			vb.Sel = sel
			return vb, nil
		}
		pv, err := evalVec(f.Pred, vb)
		if err != nil {
			return nil, err
		}
		idx := vb.Idx()
		sel := make([]int, 0, len(idx))
		switch {
		case pv.Kind == types.KindBool:
			for _, i := range idx {
				if !pv.IsNull(i) && pv.I64[pv.Ix(i)] != 0 {
					sel = append(sel, i)
				}
			}
		case pv.Any != nil:
			// Boxed predicate results: keep only true BOOLEANs, like FilterOp.
			for _, i := range idx {
				x := pv.Any[pv.Ix(i)]
				if !x.IsNull() && x.Kind() == types.KindBool && x.Bool() {
					sel = append(sel, i)
				}
			}
		default:
			// Non-boolean typed result never passes the filter.
		}
		if len(sel) == 0 {
			continue
		}
		vb.Sel = sel
		return vb, nil
	}
}

// Close implements VecOperator.
func (f *VecFilterOp) Close() error { return f.Child.Close() }

// VecProjectOp evaluates output expressions one column at a time over the
// whole batch, preserving the child's selection vector.
type VecProjectOp struct {
	Child VecOperator
	Exprs []Expr // each must satisfy Vectorizable
	Out   types.Schema

	// EncodedRows counts live rows that arrived still dictionary-encoded
	// in at least one column — i.e. rows late-materialized here rather
	// than decoded upstream. EXPLAIN ANALYZE reports it. Atomic for the
	// same reason as VecFilterOp.CodeRows.
	EncodedRows atomic.Int64
}

// Schema implements VecOperator.
func (p *VecProjectOp) Schema() types.Schema { return p.Out }

// Open implements VecOperator.
func (p *VecProjectOp) Open() error { return p.Child.Open() }

// NextVec implements VecOperator.
func (p *VecProjectOp) NextVec() (*vec.Batch, error) {
	vb, err := p.Child.NextVec()
	if err != nil || vb == nil {
		return nil, err
	}
	cols := make([]*vec.Vector, len(p.Exprs))
	encoded := false
	for j, e := range p.Exprs {
		cols[j], err = evalVec(e, vb)
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
	return &vec.Batch{Schema: p.Out, Cols: cols, N: vb.N, Sel: vb.Sel}, nil
}

// Close implements VecOperator.
func (p *VecProjectOp) Close() error { return p.Child.Close() }

// VecLimitOp implements LIMIT/OFFSET over the selection vector.
type VecLimitOp struct {
	Child   VecOperator
	Offset  int64
	Limit   int64 // -1 = unlimited
	skipped int64
	sent    int64
}

// Schema implements VecOperator.
func (l *VecLimitOp) Schema() types.Schema { return l.Child.Schema() }

// Open implements VecOperator.
func (l *VecLimitOp) Open() error {
	l.skipped, l.sent = 0, 0
	return l.Child.Open()
}

// NextVec implements VecOperator.
func (l *VecLimitOp) NextVec() (*vec.Batch, error) {
	for {
		if l.Limit >= 0 && l.sent >= l.Limit {
			return nil, nil
		}
		vb, err := l.Child.NextVec()
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

// Close implements VecOperator.
func (l *VecLimitOp) Close() error { return l.Child.Close() }

// RowAdapter bridges a vectorized subtree into the row-at-a-time Operator
// contract: it materializes fresh rows (safe under the Chunk ownership
// invariant) and re-chunks them toward ChunkSize so downstream operators
// see full batches regardless of how selective the vector pipeline was.
type RowAdapter struct {
	Inner VecOperator

	buf []types.Row
	eos bool
}

// Schema implements Operator.
func (a *RowAdapter) Schema() types.Schema { return a.Inner.Schema() }

// Open implements Operator.
func (a *RowAdapter) Open() error {
	a.buf, a.eos = nil, false
	return a.Inner.Open()
}

// Next implements Operator.
func (a *RowAdapter) Next() (*Chunk, error) {
	for {
		if len(a.buf) >= ChunkSize {
			rows := a.buf[:ChunkSize:ChunkSize]
			a.buf = a.buf[ChunkSize:]
			return &Chunk{Schema: a.Inner.Schema(), Rows: rows}, nil
		}
		if a.eos {
			if len(a.buf) > 0 {
				rows := a.buf
				a.buf = nil
				return &Chunk{Schema: a.Inner.Schema(), Rows: rows}, nil
			}
			return nil, nil
		}
		vb, err := a.Inner.NextVec()
		if err != nil {
			return nil, err
		}
		if vb == nil {
			a.eos = true
			continue
		}
		for _, i := range vb.Idx() {
			a.buf = append(a.buf, vb.Row(i))
		}
	}
}

// Close implements Operator.
func (a *RowAdapter) Close() error {
	a.buf = nil
	return a.Inner.Close()
}

// vecPipeline returns the vector pipeline behind op when op is the
// RowAdapter bridge over one, else nil. It is the one place a row operator
// looks through the bridge: a consumer that can take batches (group-by
// ingest, both sides of the hash join) pulls them from the pipeline itself
// instead of having the adapter box every row. The consumer still opens and
// closes op, which opens and closes the pipeline.
func vecPipeline(op Operator) VecOperator {
	if ra, ok := op.(*RowAdapter); ok {
		return ra.Inner
	}
	return nil
}

// Vectorize rewrites a row-oriented operator tree so that every eligible
// segment runs on the vectorized engine. Scans become VecScanOp;
// Filter/Project/Limit directly above a vectorized segment move inside it
// when their expressions compile to vector kernels; everything else
// (Sort, grouping, joins, UDF/func expressions) keeps the row
// contract and reads through a RowAdapter at the boundary. Unknown
// operators (library extensions) pass through untouched.
func Vectorize(op Operator) Operator { return VectorizeMode(op, true) }

// VectorizeMode is Vectorize with explicit control over compressed
// execution: when compressed is true, scans emit dictionary-encoded
// columns as code vectors and the pipeline operates on codes until the
// projection (or another kernel that genuinely needs values)
// materializes them. false forces eager decode at the scan — the
// "decode then evaluate" baseline used for ablations and as an
// escape hatch (core.Config.DisableCompressedExec).
func VectorizeMode(op Operator, compressed bool) Operator {
	switch o := op.(type) {
	case *ScanOp:
		vs := NewVecScan(o.Table, o.Preds, o.Projection, o.Dop)
		vs.EstRows = o.EstRows
		vs.Snap = o.Snap
		if compressed {
			vs.EnableCompressed()
		}
		return &RowAdapter{Inner: vs}
	case *FilterOp:
		child := VectorizeMode(o.Child, compressed)
		if ra, ok := child.(*RowAdapter); ok && Vectorizable(o.Pred) {
			return &RowAdapter{Inner: &VecFilterOp{Child: ra.Inner, Pred: o.Pred}}
		}
		o.Child = child
		return o
	case *ProjectOp:
		child := VectorizeMode(o.Child, compressed)
		if ra, ok := child.(*RowAdapter); ok && allVectorizable(o.Exprs) {
			return &RowAdapter{Inner: &VecProjectOp{Child: ra.Inner, Exprs: o.Exprs, Out: o.Out}}
		}
		o.Child = child
		return o
	case *LimitOp:
		child := VectorizeMode(o.Child, compressed)
		if ra, ok := child.(*RowAdapter); ok {
			return &RowAdapter{Inner: &VecLimitOp{Child: ra.Inner, Offset: o.Offset, Limit: o.Limit}}
		}
		o.Child = child
		return o
	case *SortOp:
		o.Child = VectorizeMode(o.Child, compressed)
		return o
	case *GroupByOp:
		o.Child = VectorizeMode(o.Child, compressed)
		return o
	case *HashJoinOp:
		o.Left = VectorizeMode(o.Left, compressed)
		o.Right = VectorizeMode(o.Right, compressed)
		return o
	case *NestedLoopJoinOp:
		o.Left = VectorizeMode(o.Left, compressed)
		o.Right = VectorizeMode(o.Right, compressed)
		return o
	case *UnionAllOp:
		for i := range o.Children {
			o.Children[i] = VectorizeMode(o.Children[i], compressed)
		}
		return o
	}
	return op
}

// allVectorizable reports whether every expression has a vector kernel.
func allVectorizable(exprs []Expr) bool {
	for _, e := range exprs {
		if !Vectorizable(e) {
			return false
		}
	}
	return true
}
