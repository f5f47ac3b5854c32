package exec

import (
	"dashdb/internal/columnar"
	"dashdb/internal/rowstore"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// ScanOp streams a columnar table as typed vector batches: one batch per
// stride, decoded column-at-a-time straight out of the stride pages with no
// per-row materialization, with predicates pushed into the compressed scan
// (data skipping + SWAR) and optional projection. Projection ordinals refer
// to the table schema; nil projects all columns.
//
// Dop > 1 switches to the morsel-driven ParallelScan: Dop workers pull
// strides from a shared queue and batches arrive in nondeterministic
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

	// Compressed, aligned to output positions, marks columns the scan
	// emits as code-carrying vectors (dictionary codes + *Dict reference)
	// instead of materialized values — the operate-on-compressed-data
	// hand-off. Nil = decode everything. Set via EnableCompressed.
	Compressed []bool

	// EstRows is the planner's output-cardinality estimate, surfaced by
	// EXPLAIN next to actuals. 0 = unplanned (library-built scans).
	EstRows float64

	// ScanStats, when set by exec.Instrument, receives per-worker stride
	// visit/skip and row counters for this scan. Nil = uninstrumented.
	ScanStats *telemetry.ScanStats

	out    types.Schema
	chunks chan *vec.Batch
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

// EnableCompressed marks every dictionary-encoded output column for
// code-vector emission and reports whether any column qualified. The
// planner's view of "dictionary-encoded" is advisory — an insert-triggered
// re-analysis can swap encoders before Open — so downstream operators
// always adopt dictionaries from the batches themselves, and VectorsEnc
// falls back to decoding if a flagged column is no longer a Dict.
func (s *ScanOp) EnableCompressed() bool {
	// Eligibility is read from the pinned snapshot when one is set, so it
	// matches what the scan will read, or the current epoch otherwise.
	snap, release := s.PlanSnapshot()
	defer release()
	flags := make([]bool, len(s.out))
	any := false
	for j := range s.out {
		ci := j
		if s.Projection != nil {
			ci = s.Projection[j]
		}
		if snap.ColumnDict(ci) != nil {
			flags[j] = true
			any = true
		}
	}
	if any {
		s.Compressed = flags
	}
	return any
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

// Open implements Operator: a producer goroutine runs the scan and
// vectorizes each columnar.Batch inside the callback (batches are only
// valid during the callback). With Dop > 1 the producer drives ParallelScan
// and all workers feed the same channel.
func (s *ScanOp) Open() error {
	buf := 2
	if s.Dop > buf {
		buf = s.Dop
	}
	s.chunks = make(chan *vec.Batch, buf)
	s.errc = make(chan error, 1)
	s.stop = make(chan struct{})
	deliver := func(b *columnar.Batch) bool {
		vb := vec.NewBatch(s.out, b.VectorsEnc(s.Projection, s.Compressed), b.Len())
		select {
		case s.chunks <- vb:
			return true
		case <-s.stop:
			return false
		}
	}
	go func() {
		defer close(s.chunks)
		snap, release := s.PlanSnapshot()
		defer release()
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

// Next implements Operator. Several group-by workers may call it at once:
// the channel hands each batch to exactly one of them.
func (s *ScanOp) Next() (*vec.Batch, error) {
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
// row-at-a-time with a residual predicate, no skipping, no SIMD). Pred is a
// plain row function, not an Expr: the baseline is meant to look at one row
// at a time.
type RowScanOp struct {
	Table *rowstore.Table
	Pred  func(types.Row) bool // optional residual filter
	out   rowQueue
}

// Schema implements Operator.
func (r *RowScanOp) Schema() types.Schema { return r.Table.Schema() }

// Open implements Operator.
func (r *RowScanOp) Open() error {
	r.out.rows = nil
	r.Table.Scan(func(_ int64, row types.Row) bool {
		if r.Pred == nil || r.Pred(row) {
			r.out.rows = append(r.out.rows, row)
		}
		return true
	})
	return nil
}

// Next implements Operator.
func (r *RowScanOp) Next() (*vec.Batch, error) { return r.out.next(r.Table.Schema(), true), nil }

// Close implements Operator.
func (r *RowScanOp) Close() error { return nil }
