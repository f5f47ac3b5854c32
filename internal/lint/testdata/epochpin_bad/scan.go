//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package pinning exercises the epochpin analyzer: executor/planner code
// calling the Table convenience methods pins a fresh epoch per call, so
// two calls in one statement can observe different data versions.
package pinning

// Table is a local stand-in for columnar.Table (fixtures are
// stdlib-only). Each method pins the table's current epoch on entry —
// the behavior the invariant forbids inside exec/plan.
type Table struct{ rows int }

// Rows reports the current epoch's live row count.
func (t *Table) Rows() int { return t.rows }

// Scan streams the current epoch.
func (t *Table) Scan(preds []int, fn func(int) bool) {}

// ParallelScanWithStats streams the current epoch with dop workers.
func (t *Table) ParallelScanWithStats(preds []int, dop int, fn func(int, int) bool) {}

// ColumnStats summarizes a column of the current epoch.
func (t *Table) ColumnStats(ci int) int { return 0 }

// ColumnDict resolves a column's dictionary in the current epoch.
func (t *Table) ColumnDict(ci int) *int { return nil }

// estimate consults table statistics per call — each call may see a
// different epoch than the scan that follows.
func estimate(t *Table) float64 {
	rows := t.Rows()         //lint:expect epochpin
	card := t.ColumnStats(0) //lint:expect epochpin
	return float64(rows) / float64(card+1)
}

// runScan drives scans directly off the table.
func runScan(t *Table, dop int) {
	if dop > 1 {
		t.ParallelScanWithStats(nil, dop, func(int, int) bool { return true }) //lint:expect epochpin
		return
	}
	t.Scan(nil, func(int) bool { return true }) //lint:expect epochpin
}

// eligibility checks compressed-execution eligibility off the current
// epoch instead of the statement's pinned snapshot.
func eligibility(t *Table, ci int) bool {
	return t.ColumnDict(ci) != nil //lint:expect epochpin
}
