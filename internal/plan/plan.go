// Package plan is the logical-plan layer between the SQL compiler and the
// physical executor. The compiler translates a parsed SELECT into a small
// relational-algebra tree per SELECT block
// (Input/Filter/Join/Aggregate/Project/Distinct/Sort/Limit) whose
// expressions are already bound; this package then runs the optimizer
// passes and lowers the tree to exec operators:
//
//   - greedy multi-way join ordering: inner/cross join regions are
//     flattened into a join graph and re-ordered by estimated output
//     cardinality (smallest intermediate first, cross joins only when
//     forced) — the statistics-free "greedy beats optimal" recipe, with
//     cardinalities derived from the per-stride synopses and the
//     seal-time distinct-count sketch the storage layer already keeps;
//   - build/probe side selection: exec.HashJoinOp always builds its
//     right input, so the planner swaps inputs when the left side is
//     estimated smaller (inner joins only — outer joins have a forced
//     orientation) and restores the user-visible column order with one
//     projection per region;
//   - join-key bounds pushdown: when one side of an equi-join has a
//     provably narrower key range (from order-preserving synopsis
//     bounds), the range is pushed into the other side's scan as
//     ordinary predicates, so stride skipping prunes rows that cannot
//     have a join partner.
//
// Lowering is also where intra-query parallelism is placed: a group-by
// whose aggregates merge exactly, fed by a columnar scan through filters
// and projections only, runs at Options.Dop, and so does that scan.
//
// Physical group-by and join operators are constructed only here (and
// inside internal/exec itself); the planlower analyzer in internal/lint
// enforces that the statement path routes both through this package.
package plan

import (
	"dashdb/internal/exec"
	"dashdb/internal/mem"
	"dashdb/internal/types"
)

// Options steers lowering.
type Options struct {
	// Greedy enables the optimizer passes (join reordering, build-side
	// selection, join-key bounds pushdown). False lowers the tree in
	// syntactic order with the historical fixed build side — the
	// SET JOIN_ORDER SYNTACTIC / Config.DisableJoinReorder ablation.
	Greedy bool
	// Gov is the session memory governor handed to blocking operators.
	Gov *mem.Governor
	// Dop is the session's effective parallelism degree (the compiler's
	// Parallelism, passed through); 0/1 keeps every plan serial.
	Dop int
}

// Node is one logical-plan operator. Arity is the width of the node's
// output row; estimates are computed during lowering.
type Node interface {
	arity() int
}

// Input is a leaf: an already-compiled physical input (base-table scan,
// VALUES, subquery, CTE). The planner looks through it for statistics
// when it wraps a bare columnar scan.
type Input struct {
	Op   exec.Operator
	Name string // alias, for diagnostics
}

func (n *Input) arity() int { return len(n.Op.Schema()) }

// Filter applies a residual predicate.
type Filter struct {
	Child Node
	Pred  exec.Expr
}

func (n *Filter) arity() int { return n.Child.arity() }

// JoinKind is the logical join type. The physical executor's one join
// operator knows inner and left-outer joins; lowering maps RightOuter onto
// LeftOuter by swapping inputs and restoring column order.
type JoinKind uint8

const (
	// CrossJoin is a join with no predicate (comma join, CROSS JOIN).
	CrossJoin JoinKind = iota
	// InnerJoin emits matching pairs.
	InnerJoin
	// LeftOuterJoin preserves unmatched left rows.
	LeftOuterJoin
	// RightOuterJoin preserves unmatched right rows.
	RightOuterJoin
)

// Join combines two subtrees. LeftKeys/RightKeys are equi-join column
// ordinals relative to each child's output; empty keys pair every row
// with every row. Residual is the rest of the join condition, evaluated
// inside the join on each candidate pair. It has one binding rule, keys
// or none: the join operator's output layout, probe columns then build
// columns — left then right for inner and left-outer joins, right then
// left for a right-outer join, which runs as a swapped left-outer one. The
// compiler builds residuals to match.
type Join struct {
	Left, Right         Node
	Kind                JoinKind
	LeftKeys, RightKeys []int
	Residual            exec.Expr
}

func (n *Join) arity() int { return n.Left.arity() + n.Right.arity() }

// Aggregate groups the child's rows on GroupBy (named by GroupCols) and
// computes Aggs per group: its output is the group columns followed by
// one column per aggregate. No GroupBy is one group over every row.
type Aggregate struct {
	Child     Node
	GroupBy   []exec.Expr
	GroupCols types.Schema
	Aggs      []exec.AggSpec
}

func (n *Aggregate) arity() int { return len(n.GroupBy) + len(n.Aggs) }

// Project computes the output expressions.
type Project struct {
	Child Node
	Exprs []exec.Expr
	Out   types.Schema
}

func (n *Project) arity() int { return len(n.Out) }

// Sort orders the child's output.
type Sort struct {
	Child Node
	Keys  []exec.SortKey
}

func (n *Sort) arity() int { return n.Child.arity() }

// Limit truncates the child's output. Limit < 0 means no limit.
type Limit struct {
	Child  Node
	Offset int64
	Limit  int64
}

func (n *Limit) arity() int { return n.Child.arity() }

// Distinct removes duplicate rows.
type Distinct struct {
	Child Node
}

func (n *Distinct) arity() int { return n.Child.arity() }
