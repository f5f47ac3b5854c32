package exec

import (
	"dashdb/internal/columnar"
	"dashdb/internal/rowstore"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
)

// ScanOp streams a columnar table with predicates pushed into the
// compressed scan (data skipping + SWAR) and optional projection.
// Projection ordinals refer to the table schema; nil projects all columns.
//
// Dop > 1 switches to the morsel-driven ParallelScan: Dop workers pull
// strides from a shared queue and chunks arrive in nondeterministic
// order, so the compiler only raises Dop under a group-by, whose
// key-ordered emit makes arrival order irrelevant.
type ScanOp struct {
	Table      *columnar.Table
	Preds      []columnar.Pred
	Projection []int
	Dop        int // 0/1 = serial, in row-id order

	// Snap, when set by the compiler, is the statement's pinned snapshot
	// of Table: the scan reads exactly that epoch, so every operator (and
	// the planner's statistics) of one statement agree on the data. Nil
	// makes the scan pin its own epoch for the scan's duration (library
	// callers).
	Snap *columnar.Snapshot

	// EstRows is the planner's output-cardinality estimate, surfaced by
	// EXPLAIN next to actuals. 0 = unplanned (library-built scans).
	EstRows float64

	// ScanStats, when set by exec.Instrument, receives per-worker stride
	// visit/skip and row counters for this scan. Nil = uninstrumented.
	ScanStats *telemetry.ScanStats

	out    types.Schema
	chunks chan *Chunk
	errc   chan error
	stop   chan struct{}
}

// NewScan builds a ScanOp.
func NewScan(t *columnar.Table, preds []columnar.Pred, projection []int) *ScanOp {
	s := &ScanOp{Table: t, Preds: preds, Projection: projection}
	if projection == nil {
		s.out = t.Schema()
	} else {
		for _, ci := range projection {
			s.out = append(s.out, t.Schema()[ci])
		}
	}
	return s
}

// Schema implements Operator.
func (s *ScanOp) Schema() types.Schema { return s.out }

// Open implements Operator: the scan runs in a goroutine delivering one
// chunk per stride; batches are materialized inside the scan callback
// because a columnar.Batch is only valid during the callback. With Dop >
// 1 the producer goroutine drives ParallelScan and all workers feed the
// same chunk channel.
func (s *ScanOp) Open() error {
	buf := 2
	if s.Dop > buf {
		buf = s.Dop
	}
	s.chunks = make(chan *Chunk, buf)
	s.errc = make(chan error, 1)
	s.stop = make(chan struct{})
	deliver := func(b *columnar.Batch) bool {
		rows := make([]types.Row, b.Len())
		for i := 0; i < b.Len(); i++ {
			if s.Projection == nil {
				rows[i] = b.Row(i)
			} else {
				r := make(types.Row, len(s.Projection))
				for j, ci := range s.Projection {
					r[j] = b.Value(ci, i)
				}
				rows[i] = r
			}
		}
		select {
		case s.chunks <- &Chunk{Schema: s.out, Rows: rows}:
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

// PlanSnapshot returns the scan's pinned snapshot when the compiler set
// one, or the table's current epoch pinned transiently otherwise. The
// release func must be called once the caller is done reading; for a
// compiler-pinned snapshot it is a no-op (the statement owns the pin).
func (s *ScanOp) PlanSnapshot() (*columnar.Snapshot, func()) {
	if s.Snap != nil {
		return s.Snap, func() {}
	}
	snap := s.Table.Snapshot()
	return snap, snap.Release
}

// Next implements Operator.
func (s *ScanOp) Next() (*Chunk, error) {
	ch, ok := <-s.chunks
	if !ok {
		select {
		case err := <-s.errc:
			return nil, err
		default:
			return nil, nil
		}
	}
	return ch, nil
}

// Close implements Operator.
func (s *ScanOp) Close() error {
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

// RowScanOp streams a row-store table (the baseline engine's access path:
// row-at-a-time with a residual predicate, no skipping, no SIMD).
type RowScanOp struct {
	Table *rowstore.Table
	Pred  Expr // optional residual filter
	rows  []types.Row
	pos   int
}

// Schema implements Operator.
func (r *RowScanOp) Schema() types.Schema { return r.Table.Schema() }

// Open implements Operator.
func (r *RowScanOp) Open() error {
	r.rows = r.rows[:0]
	r.pos = 0
	var err error
	r.Table.Scan(func(_ int64, row types.Row) bool {
		if r.Pred != nil {
			v, e := r.Pred.Eval(row)
			if e != nil {
				err = e
				return false
			}
			if v.IsNull() || v.Kind() != types.KindBool || !v.Bool() {
				return true
			}
		}
		r.rows = append(r.rows, row)
		return true
	})
	return err
}

// Next implements Operator.
func (r *RowScanOp) Next() (*Chunk, error) {
	if r.pos >= len(r.rows) {
		return nil, nil
	}
	end := r.pos + ChunkSize
	if end > len(r.rows) {
		end = len(r.rows)
	}
	ch := &Chunk{Schema: r.Table.Schema(), Rows: r.rows[r.pos:end]}
	r.pos = end
	return ch, nil
}

// Close implements Operator.
func (r *RowScanOp) Close() error { return nil }
