// Package lowering holds the negative planlower fixtures: callers route
// join construction through the sanctioned constructors, and non-join
// operator literals stay unflagged.
package lowering

// Operator is a local stand-in for exec.Operator (fixtures are
// stdlib-only).
type Operator interface{ Open() error }

// HashJoinOp is a local stand-in for exec.HashJoinOp.
type HashJoinOp struct {
	Left, Right         Operator
	LeftKeys, RightKeys []int
}

// Open implements Operator.
func (j *HashJoinOp) Open() error { return nil }

// ScanOp is an ordinary operator; constructing it anywhere is fine.
type ScanOp struct{ Cols []int }

// Open implements Operator.
func (s *ScanOp) Open() error { return nil }

// HashJoin is the fixture's stand-in for the plan-package constructor;
// the real one lives in internal/plan, which the analyzer exempts by
// path.
func HashJoin(left, right Operator, lk, rk []int) *HashJoinOp {
	return &HashJoinOp{Left: left, Right: right, LeftKeys: lk, RightKeys: rk} //dashdb:nolint planlower fixture stand-in for the exempt lowering package
}

// buildStarJoin assembles the same plan through the constructor — the
// sanctioned shape for library callers.
func buildStarJoin(fact, dim Operator) Operator {
	return HashJoin(fact, dim, []int{0}, []int{0})
}

// scanOnly constructs a non-join operator literal, which is always fine.
func scanOnly() Operator {
	return &ScanOp{Cols: []int{0, 1}}
}

// GroupByOp is a local stand-in for exec.GroupByOp.
type GroupByOp struct {
	Child Operator
	Keys  []int
}

// Open implements Operator.
func (g *GroupByOp) Open() error { return nil }

// Aggregate is the fixture's stand-in for the plan node whose lowering
// builds the group-by.
type Aggregate struct {
	Child Operator
	Keys  []int
}

func lower(a *Aggregate) Operator {
	return &GroupByOp{Child: a.Child, Keys: a.Keys} //dashdb:nolint planlower fixture stand-in for the exempt lowering package
}

// countByKey describes the aggregation as a plan node and has it lowered.
func countByKey(child Operator) Operator {
	return lower(&Aggregate{Child: child, Keys: []int{0}})
}
