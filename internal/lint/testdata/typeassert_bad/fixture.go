//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package ops exercises the typeassert analyzer: unchecked assertions in
// operator-style code are latent panics.
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
	scan := op.(*ScanOp) //lint:expect typeassert
	return scan.n, nil
}

func fuse(op Operator) Operator {
	return op.(*LimitOp).Child //lint:expect typeassert
}

func describe(v any) string {
	return v.(string) //lint:expect typeassert
}
