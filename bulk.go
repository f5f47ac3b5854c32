package dashdb

import (
	"fmt"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/types"
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
// client-side and flushes them to the engine in large batches, each batch
// becoming visible to readers atomically in a single snapshot epoch.
// Concurrent queries therefore never observe a partially applied flush —
// they read either the epoch before it or the epoch after.
//
// A Bulk is not safe for concurrent use; open one per loader goroutine
// (the table itself serializes flushes).
type Bulk struct {
	tbl      *columnar.Table
	maxRows  int
	maxBytes int

	rows  []types.Row
	bytes int

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
	b := &Bulk{tbl: t, maxRows: opts.MaxRows, maxBytes: opts.MaxBytes}
	if b.maxRows <= 0 {
		b.maxRows = DefaultBulkMaxRows
	}
	if b.maxBytes <= 0 {
		b.maxBytes = DefaultBulkMaxBytes
	}
	return b, nil
}

// Add buffers one row, flushing automatically when the batch reaches the
// row or byte threshold. The row is schema-validated immediately so bad
// input fails at the Add that supplied it, not at a later flush.
func (b *Bulk) Add(row Row) error {
	if b.failed {
		return fmt.Errorf("dashdb: bulk: loader failed earlier; discard it and open a new one")
	}
	checked, err := b.tbl.Schema().Validate(row)
	if err != nil {
		return err
	}
	b.rows = append(b.rows, checked)
	b.bytes += encoding.EstimateRawBytes(checked)
	if len(b.rows) >= b.maxRows || b.bytes >= b.maxBytes {
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
	if len(b.rows) == 0 {
		return nil
	}
	// Add validated and copied every buffered row; the table stores them
	// as they are.
	n, err := b.tbl.BulkAppendValidated(b.rows)
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
	b.rows = b.rows[:0]
	b.bytes = 0
	return nil
}

// Pending reports the number of buffered, not-yet-flushed rows.
func (b *Bulk) Pending() int { return len(b.rows) }

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
