package dashdb

import (
	"fmt"

	"dashdb/internal/columnar"
)

// BulkOptions tune a Bulk loader. The zero value selects the defaults.
type BulkOptions struct {
	// MaxRows flushes the accumulated batch once it reaches this many
	// rows. 0 selects DefaultBulkMaxRows.
	MaxRows int
	// MaxBytes flushes once the accumulated batch's estimated raw size
	// reaches this many bytes. 0 selects DefaultBulkMaxBytes.
	MaxBytes int
}

// Default Bulk flush thresholds: large enough that every flush seals
// multiple full strides (so bulk loads skip the trickle path's
// stride-at-a-time sealing), small enough to bound loader memory.
const (
	DefaultBulkMaxRows  = 64 << 10
	DefaultBulkMaxBytes = 16 << 20
)

// Bulk is an accumulate-then-flush loader for one table: Add buffers rows
// client-side as typed column lanes and flushes them to the engine in
// large batches, each batch becoming visible to readers atomically in a
// single snapshot epoch.
// Concurrent queries therefore never observe a partially applied flush —
// they read either the epoch before it or the epoch after.
//
// A Bulk is not safe for concurrent use; open one per loader goroutine
// (the table itself serializes flushes).
type Bulk struct {
	tbl      *columnar.Table
	maxRows  int
	maxBytes int

	lanes *columnar.Lanes

	appended int
	flushes  int
	failed   bool
}

// Bulk opens a bulk loader on the named table.
func (db *DB) Bulk(table string, opts BulkOptions) (*Bulk, error) {
	t, ok := db.inner.Table(table)
	if !ok {
		return nil, fmt.Errorf("dashdb: bulk: table %s does not exist", table)
	}
	b := &Bulk{tbl: t, maxRows: opts.MaxRows, maxBytes: opts.MaxBytes, lanes: columnar.NewLanes(t.Schema(), 0)}
	if b.maxRows <= 0 {
		b.maxRows = DefaultBulkMaxRows
	}
	if b.maxBytes <= 0 {
		b.maxBytes = DefaultBulkMaxBytes
	}
	return b, nil
}

// Add buffers one row, flushing automatically when the batch reaches the
// row or byte threshold. The row is schema-validated value by value into
// the column lanes immediately, so bad input fails at the Add that
// supplied it, not at a later flush, and a refused row buffers nothing.
// The row itself is not kept.
func (b *Bulk) Add(row Row) error {
	if b.failed {
		return fmt.Errorf("dashdb: bulk: loader failed earlier; discard it and open a new one")
	}
	if err := b.lanes.Add(row); err != nil {
		return err
	}
	if b.lanes.Len() >= b.maxRows || b.lanes.Bytes() >= b.maxBytes {
		return b.Flush()
	}
	return nil
}

// Flush appends the buffered rows as one atomic batch and resets the
// buffer. A no-op when the buffer is empty.
func (b *Bulk) Flush() error {
	if b.failed {
		return fmt.Errorf("dashdb: bulk: loader failed earlier; discard it and open a new one")
	}
	if b.lanes.Len() == 0 {
		return nil
	}
	// Add checked and coerced every value into a lane of its column's
	// kind, so the table takes the lanes as they are and encodes them.
	n, err := b.tbl.BulkAppend(b.lanes.Batch())
	if err != nil {
		// A failed flush may have torn the engine-side append mid-batch
		// only in the writer's private buffers — published epochs are
		// unaffected — but this loader's buffered rows are now in an
		// unknown state, so refuse further use.
		b.failed = true
		return err
	}
	b.appended += n
	b.flushes++
	b.lanes.Reset() // the table kept codes, not the lanes: reuse their capacity
	return nil
}

// Pending reports the number of buffered, not-yet-flushed rows.
func (b *Bulk) Pending() int { return b.lanes.Len() }

// Finish flushes any remaining rows and returns the total appended across
// the loader's lifetime. The loader may not be reused after Finish.
func (b *Bulk) Finish() (int, error) {
	if err := b.Flush(); err != nil {
		return b.appended, err
	}
	b.failed = true // seal against reuse
	return b.appended, nil
}

// SnapshotInfo mirrors columnar.SnapshotInfo for the public API: the
// table's snapshot-isolation state as observed at one instant.
type SnapshotInfo = columnar.SnapshotInfo

// SnapshotInfo reports the named table's current epoch, reader pins and
// bulk-flush counters (the MON_SNAPSHOTS view, as a library call).
func (db *DB) SnapshotInfo(table string) (SnapshotInfo, bool) {
	t, ok := db.inner.Table(table)
	if !ok {
		return SnapshotInfo{}, false
	}
	return t.SnapshotInfo(), true
}
