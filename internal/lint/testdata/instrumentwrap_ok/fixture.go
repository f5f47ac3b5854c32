// Package exec is the negative fixture: instrumenting ordinary operators
// and keeping the adapter's concrete type is exactly what the invariant
// wants.
package exec

type Operator interface{ Next() (int, error) }
type VecOperator interface{ NextVec() (int, error) }

type RowAdapter struct{ Inner VecOperator }

func (r *RowAdapter) Next() (int, error) { return r.Inner.NextVec() }

type ScanOp struct{}

func (s *ScanOp) Next() (int, error) { return 0, nil }

type VecScanOp struct{}

func (s *VecScanOp) NextVec() (int, error) { return 0, nil }

type StatsOp struct{ Child Operator }

func (s *StatsOp) Next() (int, error) { return s.Child.Next() }

type VecStatsOp struct{ Child VecOperator }

func (s *VecStatsOp) NextVec() (int, error) { return s.Child.NextVec() }

// Instrument decorates generic operators but recurses *through* the bridge
// adapter, preserving its concrete type — the sanctioned pattern.
func Instrument(op Operator) Operator {
	switch o := op.(type) {
	case *RowAdapter:
		o.Inner = InstrumentVec(o.Inner)
		return o
	case *ScanOp:
		return &StatsOp{Child: o}
	}
	return op
}

func InstrumentVec(op VecOperator) VecOperator {
	switch o := op.(type) {
	case *VecScanOp:
		return &VecStatsOp{Child: o}
	}
	return op
}

func ok(scan *ScanOp, op Operator) {
	_ = Instrument(scan)
	_ = Instrument(op)
	_ = &StatsOp{Child: scan}
}
