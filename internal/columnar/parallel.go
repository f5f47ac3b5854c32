package columnar

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dashdb/internal/encoding"
	"dashdb/internal/synopsis"
	"dashdb/internal/telemetry"
)

// encPredicates is a predicate list translated to code space.
type encPredicates []encoding.Predicate

// ParallelScan is the morsel-driven variant of Scan (§II.B.7 strides ×
// machine cores): sealed strides are morsels on a shared work queue, and
// dop workers pull morsel indexes, run data skipping and SWAR predicate
// evaluation independently, and deliver their batches to fn. The open
// (unsealed) stride is one additional morsel, evaluated in code space like
// the others, so the effective degree of parallelism is capped at
// sealedStrides+1 — a table that is all open stride degenerates to a
// serial scan.
//
// Contract: fn is invoked concurrently from up to dop goroutines. The
// worker argument (0 <= worker < dop) identifies the calling worker so
// callers can keep per-worker state without locking; one worker never
// runs fn concurrently with itself. Every Batch is confined to the
// delivering worker and owns a private lazy page map (see Batch), so
// callbacks must not share a batch across goroutines and must not retain
// it past the snapshot's lifetime. All workers read the same pinned
// epoch: concurrent writers are invisible, and mutating the table from
// inside fn is allowed (it affects later epochs, not this scan). fn
// returning false cancels the whole scan; in-flight workers stop at their
// next morsel boundary. Batches arrive in no particular order across
// workers; within one worker they arrive in ascending stride order.
//
// Storage failures in any worker (including lazy materialization inside
// fn) abort the scan and are returned as an error.
func (s *Snapshot) ParallelScan(preds []Pred, dop int, fn func(worker int, b *Batch) bool) error {
	return s.ParallelScanWithStats(preds, dop, nil, fn)
}

// ParallelScanWithStats is ParallelScan with a per-query telemetry sink:
// each worker records stride visits, synopsis skips and delivered rows into
// its own ScanShard of ss with plain (non-atomic) increments — the scan's
// WaitGroup provides the happens-before edge before anyone reads the sums.
// ss may be nil, which makes this identical to ParallelScan.
func (s *Snapshot) ParallelScanWithStats(preds []Pred, dop int, ss *telemetry.ScanStats, fn func(worker int, b *Batch) bool) error {
	t, st := s.t, s.state()
	if st.rows == 0 {
		return nil
	}
	if err := t.checkPreds(preds); err != nil {
		return err
	}
	trans, none := st.translatePreds(preds)
	if none {
		return nil
	}

	morsels := st.strides()
	if dop > morsels {
		dop = morsels
	}
	if dop <= 1 {
		// Serial fallback keeps row-id order (and is what a one-morsel
		// table always gets).
		var err error
		func() {
			defer recoverScanPanic(&err)
			err = s.scanState(preds, ss.Shard(0), func(b *Batch) bool { return fn(0, b) })
		}()
		return err
	}

	var (
		next     atomic.Int64 // shared morsel queue head
		stop     atomic.Bool
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Page-load panics raised inside fn's lazy batch
			// materialization surface as scan errors, as in Scan.
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("columnar: scan aborted: %v", r))
				}
			}()
			sh := ss.Shard(worker)
			for !stop.Load() {
				m := int(next.Add(1)) - 1
				if m >= morsels {
					return
				}
				b, err := st.visit(t, m, preds, trans, sh)
				if err != nil {
					fail(err)
					return
				}
				if b != nil && !fn(worker, b) {
					stop.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// ParallelScan runs the morsel-driven scan over a freshly pinned epoch.
func (t *Table) ParallelScan(preds []Pred, dop int, fn func(worker int, b *Batch) bool) error {
	snap := t.Snapshot()
	defer snap.Release()
	return snap.ParallelScan(preds, dop, fn)
}

// ParallelScanWithStats runs the morsel-driven scan with telemetry over a
// freshly pinned epoch.
func (t *Table) ParallelScanWithStats(preds []Pred, dop int, ss *telemetry.ScanStats, fn func(worker int, b *Batch) bool) error {
	snap := t.Snapshot()
	defer snap.Release()
	return snap.ParallelScanWithStats(preds, dop, ss, fn)
}

// translatePreds translates predicates to code space once per scan.
// none is true when some conjunct can never match (empty result).
func (st *tableState) translatePreds(preds []Pred) (encPredicates, bool) {
	trans := make(encPredicates, len(preds))
	for i, p := range preds {
		trans[i] = st.cols[p.Col].enc.Translate(p.Op, p.Val)
		if trans[i].None {
			return nil, true
		}
	}
	return trans, false
}

// skipStride applies data skipping: the stride can be skipped when any
// conjunct is unsatisfiable in the stride's synopsis span. The open stride
// has no synopsis entry and is never skipped.
func (st *tableState) skipStride(s int, preds []Pred, trans encPredicates) bool {
	if s == st.sealedStrides() {
		return false
	}
	for i, p := range preds {
		if !synopsis.MayMatch(trans[i], st.cols[p.Col].syn[s]) {
			return true
		}
	}
	return false
}
