package exec

import (
	"time"

	"dashdb/internal/telemetry"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// This file is the telemetry weave for operator trees. Instrument wraps
// every known operator in a StatsOp/VecStatsOp that counts rows, batches
// and wall time with atomic adds, and hands scan-backed operators a
// per-worker-sharded ScanStats so morsel workers count stride visits and
// synopsis skips without touching a shared cache line. It runs AFTER
// Vectorize (it must see the final node types) and never changes the shape
// the rest of the engine relies on: RowAdapter keeps its concrete type
// because GroupByOp's ingest and both sides of HashJoinOp look through it
// (vecPipeline) to pull batches.

// StatsOp decorates a row Operator with runtime counters. Open time is
// charged as wall time (blocking operators like SORT do their work there);
// each Next is timed and its chunk's rows counted.
type StatsOp struct {
	Child Operator
	S     telemetry.OpStats
}

// Schema implements Operator.
func (s *StatsOp) Schema() types.Schema { return s.Child.Schema() }

// Open implements Operator.
func (s *StatsOp) Open() error {
	start := time.Now()
	err := s.Child.Open()
	s.S.AddWall(time.Since(start))
	return err
}

// Next implements Operator.
func (s *StatsOp) Next() (*Chunk, error) {
	start := time.Now()
	ch, err := s.Child.Next()
	if ch != nil {
		s.S.Observe(start, len(ch.Rows))
	} else {
		s.S.Observe(start, -1)
	}
	return ch, err
}

// Close implements Operator.
func (s *StatsOp) Close() error { return s.Child.Close() }

// VecStatsOp is StatsOp for the vectorized contract. Rows are counted
// through the selection vector (vb.Rows()), matching what downstream
// consumers actually see. NextVec may be called by several group-by
// workers at once, so it charges wall time through Enter/Exit.
type VecStatsOp struct {
	Child VecOperator
	S     telemetry.OpStats
}

// Schema implements VecOperator.
func (s *VecStatsOp) Schema() types.Schema { return s.Child.Schema() }

// Open implements VecOperator.
func (s *VecStatsOp) Open() error {
	start := time.Now()
	err := s.Child.Open()
	s.S.AddWall(time.Since(start))
	return err
}

// NextVec implements VecOperator.
func (s *VecStatsOp) NextVec() (*vec.Batch, error) {
	s.S.Enter()
	vb, err := s.Child.NextVec()
	if vb != nil {
		s.S.Exit(vb.Rows())
	} else {
		s.S.Exit(-1)
	}
	return vb, err
}

// Close implements VecOperator.
func (s *VecStatsOp) Close() error { return s.Child.Close() }

// Instrument rewrites an operator tree (post-Vectorize) so every known
// operator reports runtime stats. Unknown operator types (library
// extensions) pass through untouched — instrumentation is best-effort and
// must never change query semantics.
func Instrument(op Operator) Operator {
	switch o := op.(type) {
	case *StatsOp:
		return o // already instrumented
	case *RowAdapter:
		// Keep the adapter's concrete type: vecPipeline asserts on it.
		o.Inner = InstrumentVec(o.Inner)
		return o
	case *ScanOp:
		dop := o.Dop
		if dop < 1 {
			dop = 1
		}
		o.ScanStats = telemetry.NewScanStats(dop)
		return &StatsOp{Child: o}
	case *RowScanOp:
		return &StatsOp{Child: o}
	case *FilterOp:
		o.Child = Instrument(o.Child)
		return &StatsOp{Child: o}
	case *ProjectOp:
		o.Child = Instrument(o.Child)
		return &StatsOp{Child: o}
	case *LimitOp:
		o.Child = Instrument(o.Child)
		return &StatsOp{Child: o}
	case *SortOp:
		o.Child = Instrument(o.Child)
		return &StatsOp{Child: o}
	case *GroupByOp:
		o.Child = Instrument(o.Child)
		return &StatsOp{Child: o}
	case *HashJoinOp:
		o.Left = Instrument(o.Left)
		o.Right = Instrument(o.Right)
		return &StatsOp{Child: o}
	case *NestedLoopJoinOp:
		o.Left = Instrument(o.Left)
		o.Right = Instrument(o.Right)
		return &StatsOp{Child: o}
	case *UnionAllOp:
		for i := range o.Children {
			o.Children[i] = Instrument(o.Children[i])
		}
		return &StatsOp{Child: o}
	case *ValuesOp:
		return &StatsOp{Child: o}
	}
	return op
}

// InstrumentVec is Instrument for vectorized subtrees.
func InstrumentVec(op VecOperator) VecOperator {
	switch o := op.(type) {
	case *VecStatsOp:
		return o // already instrumented
	case *VecScanOp:
		dop := o.Dop
		if dop < 1 {
			dop = 1
		}
		o.ScanStats = telemetry.NewScanStats(dop)
		return &VecStatsOp{Child: o}
	case *VecFilterOp:
		o.Child = InstrumentVec(o.Child)
		return &VecStatsOp{Child: o}
	case *VecProjectOp:
		o.Child = InstrumentVec(o.Child)
		return &VecStatsOp{Child: o}
	case *VecLimitOp:
		o.Child = InstrumentVec(o.Child)
		return &VecStatsOp{Child: o}
	}
	return op
}
