// Package telemetry is the engine's low-overhead instrumentation layer.
//
// Two counter families cover the hot paths:
//
//   - OpStats: per-operator atomic counters (rows, batches, wall time).
//     A pipeline under a parallel group-by is pulled by several workers at
//     once, so every Next call is bracketed with Enter/Exit and wall time
//     stays elapsed time.
//
//   - ScanStats: per-worker sharded counters for parallel scans. Each morsel
//     worker owns one cache-line-padded shard and bumps it with plain
//     (non-atomic) adds; readers only sum the shards after the scan's
//     WaitGroup has settled, so the happens-before edge is the scan
//     completing, not any per-increment synchronization.
//
// Everything here is std-lib only so any layer of the engine can depend on
// it without cycles.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// OpStats accumulates runtime counters for one operator instance. All
// methods are safe for concurrent use and nil-safe so uninstrumented plans
// pay nothing.
type OpStats struct {
	rows      atomic.Int64
	batches   atomic.Int64
	wallNanos atomic.Int64

	// Enter/Exit state: calls in flight and when the first of them began.
	mu     sync.Mutex
	active int
	since  time.Time
}

// Enter and Exit bracket one Next call on an operator that several
// goroutines may pull at once. Wall time is charged for the span during
// which at least one call is in flight — the union of the calls'
// intervals, not their sum — so a child's time stays elapsed time, no
// larger than its parent's, whatever the number of workers. Exit counts
// the batch and its rows; rows < 0 means "no batch produced" (EOS or
// error): wall time is still charged but batch/row counts are not.
func (s *OpStats) Enter() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.active == 0 {
		s.since = time.Now()
	}
	s.active++
	s.mu.Unlock()
}

// Exit ends the call begun by the matching Enter.
func (s *OpStats) Exit(rows int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.active--; s.active == 0 {
		s.wallNanos.Add(int64(time.Since(s.since)))
	}
	s.mu.Unlock()
	if rows >= 0 {
		s.batches.Add(1)
		s.rows.Add(int64(rows))
	}
}

// AddWall charges wall time without a batch (used for Open, where blocking
// operators like SORT do their real work).
func (s *OpStats) AddWall(d time.Duration) {
	if s == nil {
		return
	}
	s.wallNanos.Add(int64(d))
}

// Rows returns the total output rows observed.
func (s *OpStats) Rows() int64 {
	if s == nil {
		return 0
	}
	return s.rows.Load()
}

// Batches returns the number of Next calls that produced a batch.
func (s *OpStats) Batches() int64 {
	if s == nil {
		return 0
	}
	return s.batches.Load()
}

// Wall returns the accumulated wall-clock time inside the operator.
func (s *OpStats) Wall() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.wallNanos.Load())
}

// ScanShard is one worker's private slice of a parallel scan's counters.
// The pad keeps adjacent shards on distinct cache lines so workers do not
// false-share. A shard's identity is its address: a copy forks the
// counters (updates land in the copy, the reader sums the original), so
// go vet's copylocks reports one through the noCopy field. noCopy comes
// first because a trailing zero-size field is padded, which would push
// the shard past its 64-byte line.
type ScanShard struct {
	_       noCopy
	Visited int64 // strides actually evaluated
	Skipped int64 // strides eliminated by synopsis min/max
	RowsOut int64 // rows delivered to the consumer
	_       [40]byte
}

// noCopy is sync.WaitGroup's idiom: a zero-size type whose Lock and
// Unlock make go vet's copylocks check the struct that holds it.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// ScanStats holds per-worker sharded stride/row counters for one scan.
// Shard(w) hands worker w its private shard; the summing accessors must
// only be called after the scan has fully completed.
type ScanStats struct {
	shards []ScanShard
}

// NewScanStats sizes a ScanStats for dop workers (minimum 1).
func NewScanStats(dop int) *ScanStats {
	if dop < 1 {
		dop = 1
	}
	return &ScanStats{shards: make([]ScanShard, dop)}
}

// Shard returns worker w's private shard. Out-of-range workers (which can
// happen if a caller over-provisions dop) fold into shard 0.
func (s *ScanStats) Shard(w int) *ScanShard {
	if s == nil {
		return nil
	}
	if w < 0 || w >= len(s.shards) {
		w = 0
	}
	return &s.shards[w]
}

// Visit records one stride evaluated by worker shard sh.
func (sh *ScanShard) Visit() {
	if sh != nil {
		sh.Visited++
	}
}

// Skip records one stride eliminated by synopsis pruning.
func (sh *ScanShard) Skip() {
	if sh != nil {
		sh.Skipped++
	}
}

// Rows records n rows delivered by worker shard sh.
func (sh *ScanShard) Rows(n int) {
	if sh != nil {
		sh.RowsOut += int64(n)
	}
}

// StridesVisited sums visited strides across all workers.
func (s *ScanStats) StridesVisited() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for i := range s.shards {
		n += s.shards[i].Visited
	}
	return n
}

// StridesSkipped sums synopsis-skipped strides across all workers.
func (s *ScanStats) StridesSkipped() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for i := range s.shards {
		n += s.shards[i].Skipped
	}
	return n
}

// RowsScanned sums delivered rows across all workers.
func (s *ScanStats) RowsScanned() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for i := range s.shards {
		n += s.shards[i].RowsOut
	}
	return n
}

// SkipRatio returns the fraction of strides eliminated by synopsis pruning,
// in [0,1]. Zero strides yields 0.
func (s *ScanStats) SkipRatio() float64 {
	v, k := s.StridesVisited(), s.StridesSkipped()
	if v+k == 0 {
		return 0
	}
	return float64(k) / float64(v+k)
}
