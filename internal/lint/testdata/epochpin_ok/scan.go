//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package pinning holds the negative epochpin fixtures: reads go through
// a pinned Snapshot, so every access in a statement sees one epoch.
package pinning

// Table is a local stand-in for columnar.Table (fixtures are
// stdlib-only).
type Table struct{ rows int }

// Snapshot pins the current epoch and returns a read handle — the
// sanctioned way into table data for executor/planner code.
func (t *Table) Snapshot() *Snapshot { return &Snapshot{rows: t.rows} }

// Rows is forbidden in exec/plan, but monitoring-style callers may be
// granted an explicit, justified exemption.
func (t *Table) Rows() int { return t.rows }

// Snapshot is a local stand-in for columnar.Snapshot: methods mirror the
// Table surface but read the pinned epoch, so calling them is always
// allowed.
type Snapshot struct{ rows int }

// Release unpins the epoch.
func (s *Snapshot) Release() {}

// Rows reports the pinned epoch's live row count.
func (s *Snapshot) Rows() int { return s.rows }

// Scan streams the pinned epoch.
func (s *Snapshot) Scan(preds []int, fn func(int) bool) {}

// ColumnStats summarizes a column of the pinned epoch.
func (s *Snapshot) ColumnStats(ci int) int { return 0 }

// estimate pins once and reads statistics and cardinality from the same
// epoch.
func estimate(t *Table) float64 {
	snap := t.Snapshot()
	defer snap.Release()
	rows := snap.Rows()
	card := snap.ColumnStats(0)
	return float64(rows) / float64(card+1)
}

// runScan drives the scan through the pinned snapshot.
func runScan(t *Table) {
	snap := t.Snapshot()
	defer snap.Release()
	snap.Scan(nil, func(int) bool { return true })
}

// monitorRows is a sanctioned exemption: a monitoring probe that only
// wants "some recent value" and documents why.
func monitorRows(t *Table) int {
	return t.Rows() //dashdb:nolint epochpin monitoring probe reads any recent epoch
}
