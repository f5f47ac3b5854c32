//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package ops is the negative typeassert fixture: comma-ok assertions and
// type switches fail soft with typed errors.
package ops

import "errors"

type Operator interface{ Next() (int, error) }

type ScanOp struct{ n int }

func (s *ScanOp) Next() (int, error) { return s.n, nil }

type LimitOp struct {
	Child Operator
	Limit int
}

func (l *LimitOp) Next() (int, error) { return l.Limit, nil }

var errBad = errors.New("bad operator")

func pushdown(op Operator) (int, error) {
	scan, ok := op.(*ScanOp)
	if !ok {
		return 0, errBad
	}
	return scan.n, nil
}

func fuse(op Operator) (Operator, error) {
	switch o := op.(type) {
	case *LimitOp:
		return o.Child, nil
	case *ScanOp:
		return o, nil
	}
	return nil, errBad
}
