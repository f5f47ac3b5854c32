// Package exec mirrors the operator/decorator shape of dashdb's real exec
// package so the instrumentwrap analyzer can be exercised in isolation.
package exec

type Operator interface{ Next() (int, error) }
type VecOperator interface{ NextVec() (int, error) }

type RowAdapter struct{ Inner VecOperator }

func (r *RowAdapter) Next() (int, error) { return r.Inner.NextVec() }

type ScanOp struct{}

func (s *ScanOp) Next() (int, error) { return 0, nil }

type StatsOp struct {
	Child Operator
	rows  int64
}

func (s *StatsOp) Next() (int, error) { return s.Child.Next() }

type VecStatsOp struct {
	Child VecOperator
	rows  int64
}

func (s *VecStatsOp) NextVec() (int, error) { return s.Child.NextVec() }

func Instrument(op Operator) Operator          { return &StatsOp{Child: op} }
func InstrumentVec(op VecOperator) VecOperator { return &VecStatsOp{Child: op} }

func bad(ra *RowAdapter) {
	_ = Instrument(ra)              //lint:expect instrumentwrap
	_ = &StatsOp{Child: ra}         //lint:expect instrumentwrap
	_ = StatsOp{Child: ra, rows: 0} //lint:expect instrumentwrap
	_ = &StatsOp{&RowAdapter{}, 0}  //lint:expect instrumentwrap
}
