package exec

import (
	"time"

	"dashdb/internal/telemetry"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// This file is the telemetry weave for operator trees. Instrument wraps
// every known operator in a StatsOp that counts rows, batches and wall time
// with atomic adds, and hands scans a per-worker-sharded ScanStats so
// morsel workers count stride visits and synopsis skips without touching a
// shared cache line.

// StatsOp decorates an Operator with runtime counters. Open time is charged
// as wall time (blocking operators like SORT do their work there). Rows are
// counted through the selection vector (vb.Rows()), matching what the
// consumer actually sees. Next may be called by several group-by workers at
// once, so it charges wall time through Enter/Exit.
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
func (s *StatsOp) Next() (*vec.Batch, error) {
	s.S.Enter()
	vb, err := s.Child.Next()
	if vb != nil {
		s.S.Exit(vb.Rows())
	} else {
		s.S.Exit(-1)
	}
	return vb, err
}

// Close implements Operator.
func (s *StatsOp) Close() error { return s.Child.Close() }

// Instrument rewrites an operator tree so every known operator reports
// runtime stats. Unknown operator types (library extensions) pass through
// untouched — instrumentation is best-effort and must never change query
// semantics.
func Instrument(op Operator) Operator {
	switch o := op.(type) {
	case *StatsOp:
		return o // already instrumented
	case *ScanOp:
		o.ScanStats = telemetry.NewScanStats(max(o.Dop, 1))
	case *RowScanOp, *ValuesOp:
	case *FilterOp:
		o.Child = Instrument(o.Child)
	case *ProjectOp:
		o.Child = Instrument(o.Child)
	case *LimitOp:
		o.Child = Instrument(o.Child)
	case *SortOp:
		o.Child = Instrument(o.Child)
	case *GroupByOp:
		o.Child = Instrument(o.Child)
	case *HashJoinOp:
		o.Left = Instrument(o.Left)
		o.Right = Instrument(o.Right)
	case *UnionAllOp:
		for i := range o.Children {
			o.Children[i] = Instrument(o.Children[i])
		}
	default:
		return op
	}
	return &StatsOp{Child: op}
}
