package exec

import (
	"dashdb/internal/columnar"
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
// Dop > 1 runs the scan with Dop morsel workers: they pull strides from a
// shared queue and batches arrive in nondeterministic order, so the
// compiler only raises Dop under a group-by, whose key-ordered emit makes
// arrival order irrelevant.
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

	// Bound, when the planner wired one, is the scan's bound that only
	// tightens: a bounded sort or a group-by under a key-ordered LIMIT above
	// publishes into it while the scan runs (see columnar.Bound). Nil =
	// unbounded. BoundAfter is the rows or groups the producer takes
	// before it first publishes.
	Bound      *columnar.Bound
	BoundAfter int

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
// vectorizes each columnar.Batch inside the callback, the only time a
// columnar.Batch is valid. Each vec.Batch it hands out is owned (its
// payloads are pooled; see vec.Batch.Own). With Dop > 1 the scan's workers
// all feed the same channel.
//
// A bounded scan whose producer publishes within its first batch
// (BoundAfter at most ChunkSize) hands each batch over unbuffered, so a
// worker selects at most one stride ahead of the batch its consumer is
// working on, and the first bound reaches every stride selected after
// that. A producer that counts further needs several strides before it
// publishes anyway, and the scan keeps its buffer, which overlaps the
// workers with the consumer. A bound the pinned snapshot does not apply
// (columnar.Snapshot.Bounds: a NULL under an ascending key) is dropped at
// Open.
func (s *ScanOp) Open() error {
	snap, release := s.PlanSnapshot()
	if s.Bound != nil && !snap.Bounds(s.Bound) {
		s.Bound = nil
	}
	buf := max(2, s.Dop)
	if s.Bound != nil {
		s.Bound.Reset() // the producers above open after the scan
		if s.BoundAfter <= ChunkSize {
			buf = 0
		}
	}
	s.chunks = make(chan *vec.Batch, buf)
	s.errc = make(chan error, 1)
	s.stop = make(chan struct{})
	deliver := func(_ int, b *columnar.Batch) bool {
		vb := vec.NewBatch(s.out, b.VectorsEnc(s.Projection, s.Compressed), b.Len())
		vb.Own()
		select {
		case s.chunks <- vb:
			return true
		case <-s.stop:
			vb.Release()
			return false
		}
	}
	go func() {
		defer close(s.chunks)
		defer release()
		if err := snap.Scan(s.Preds, s.Bound, s.Dop, s.ScanStats, deliver); err != nil {
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
		// Drain so the producer goroutine exits; nobody reads what it
		// drains.
		for vb := range s.chunks {
			vb.Release()
		}
		s.stop = nil
	}
	return nil
}
