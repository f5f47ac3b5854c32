// Package rowstore is the row-organized baseline engine: heap-of-rows
// storage with optional B+tree secondary indexes. It exists to reproduce
// the paper's §II.B.7 comparison — "workloads run on column-organized
// tables are typically 10 to 50 times faster than the same workloads run
// on row-organized tables with secondary indexing" — and as the storage
// engine inside the appliance simulator.
package rowstore

import (
	"fmt"
	"sync"

	"dashdb/internal/btree"
	"dashdb/internal/types"
)

// Table is a row-organized table. Row IDs are stable: deletes leave
// tombstones, updates rewrite in place.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  types.Schema
	rows    []types.Row // nil entry = tombstone
	live    int
	indexes map[int]*btree.Tree // column ordinal -> index
}

// NewTable creates an empty row table.
func NewTable(name string, schema types.Schema) *Table {
	return &Table{
		name:    name,
		schema:  schema,
		indexes: make(map[int]*btree.Tree),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() types.Schema { return t.schema }

// CreateIndex builds a secondary index over the named column, returning an
// error if the column does not exist. Rebuilding an existing index is a
// no-op.
func (t *Table) CreateIndex(column string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ci := t.schema.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("rowstore: no column %q in table %s", column, t.name)
	}
	if _, ok := t.indexes[ci]; ok {
		return nil
	}
	tr := btree.New()
	for rid, r := range t.rows {
		if r != nil && !r[ci].IsNull() {
			tr.Insert(r[ci], int64(rid))
		}
	}
	t.indexes[ci] = tr
	return nil
}

// Insert validates and appends a row, returning its row ID.
func (t *Table) Insert(row types.Row) (int64, error) {
	checked, err := t.schema.Validate(row)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rid := int64(len(t.rows))
	t.rows = append(t.rows, checked)
	t.live++
	for ci, tr := range t.indexes {
		if !checked[ci].IsNull() {
			tr.Insert(checked[ci], rid)
		}
	}
	return rid, nil
}

// Update rewrites the row at rid, maintaining indexes.
func (t *Table) Update(rid int64, row types.Row) error {
	checked, err := t.schema.Validate(row)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if rid < 0 || rid >= int64(len(t.rows)) || t.rows[rid] == nil {
		return fmt.Errorf("rowstore: update of missing row %d", rid)
	}
	old := t.rows[rid]
	for ci, tr := range t.indexes {
		if !old[ci].IsNull() {
			tr.Delete(old[ci], rid)
		}
		if !checked[ci].IsNull() {
			tr.Insert(checked[ci], rid)
		}
	}
	t.rows[rid] = checked
	return nil
}

// Delete tombstones the row at rid.
func (t *Table) Delete(rid int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rid < 0 || rid >= int64(len(t.rows)) || t.rows[rid] == nil {
		return fmt.Errorf("rowstore: delete of missing row %d", rid)
	}
	old := t.rows[rid]
	for ci, tr := range t.indexes {
		if !old[ci].IsNull() {
			tr.Delete(old[ci], rid)
		}
	}
	t.rows[rid] = nil
	t.live--
	return nil
}

// Truncate removes every row and resets indexes.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = t.rows[:0]
	t.live = 0
	for ci := range t.indexes {
		t.indexes[ci] = btree.New()
	}
}

// Scan calls fn with each live row in row-ID order; fn returning false
// stops the scan. This is the row-at-a-time full-scan path whose cost the
// columnar engine's vectorized scan is compared against.
func (t *Table) Scan(fn func(rid int64, row types.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for rid, r := range t.rows {
		if r == nil {
			continue
		}
		if !fn(int64(rid), r) {
			return
		}
	}
}

// SelectEq returns the rows where column = v, using an index if available.
// It and SelectRange are F-C's indexed row-organized access path, which the
// package tests exercise; no binary drives a row table through them.
//
//dashdb:nolint deadcode F-C's indexed row-store select, exercised by its tests
func (t *Table) SelectEq(column string, v types.Value) []types.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ci := t.schema.ColumnIndex(column)
	if ci < 0 {
		return nil
	}
	if tr, ok := t.indexes[ci]; ok {
		var out []types.Row
		for _, rid := range tr.Get(v) {
			if r := t.rows[rid]; r != nil {
				out = append(out, r)
			}
		}
		return out
	}
	var out []types.Row
	for _, r := range t.rows {
		if r != nil && types.Equal(r[ci], v) {
			out = append(out, r)
		}
	}
	return out
}

// SelectRange returns rows with lo <= column <= hi (nil bounds are open),
// using an index when one exists.
//
//dashdb:nolint deadcode F-C's indexed row-store range select, exercised by its tests
func (t *Table) SelectRange(column string, lo, hi *types.Value) []types.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ci := t.schema.ColumnIndex(column)
	if ci < 0 {
		return nil
	}
	var out []types.Row
	if tr, ok := t.indexes[ci]; ok {
		tr.Range(lo, hi, func(_ types.Value, rid int64) bool {
			if r := t.rows[rid]; r != nil {
				out = append(out, r)
			}
			return true
		})
		return out
	}
	for _, r := range t.rows {
		if r == nil || r[ci].IsNull() {
			continue
		}
		if lo != nil && types.Compare(r[ci], *lo) < 0 {
			continue
		}
		if hi != nil && types.Compare(r[ci], *hi) > 0 {
			continue
		}
		out = append(out, r)
	}
	return out
}
