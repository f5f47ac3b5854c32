//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package lowering exercises the planlower analyzer: physical join
// operators must not be constructed outside the lowering package, or the
// planner's join-ordering and build-side passes silently stop applying.
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

// buildStarJoin hand-assembles a hash join, bypassing build-side
// selection — the exact anti-pattern the invariant forbids.
func buildStarJoin(fact, dim Operator) Operator {
	return &HashJoinOp{ //lint:expect planlower
		Left:     fact,
		Right:    dim,
		LeftKeys: []int{0}, RightKeys: []int{0},
	}
}

// crossProduct hand-assembles a keyless join as a value.
func crossProduct(l, r Operator) Operator {
	j := HashJoinOp{Left: l, Right: r} //lint:expect planlower
	return &j
}

// GroupByOp is a local stand-in for exec.GroupByOp.
type GroupByOp struct {
	Child Operator
	Keys  []int
}

// Open implements Operator.
func (g *GroupByOp) Open() error { return nil }

// countByKey hand-assembles a group-by on the statement path: it runs,
// ungoverned and serial, outside the block's plan tree.
func countByKey(child Operator) Operator {
	return &GroupByOp{Child: child, Keys: []int{0}} //lint:expect planlower
}
