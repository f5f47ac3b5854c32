package columnar

import (
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// source is what the scan helpers read: a pinned snapshot as it is, or a
// table's current epoch pinned for the one call.
type source interface{ *Table | *Snapshot }

func pin[S source](src S) (*Snapshot, func()) {
	switch s := any(src).(type) {
	case *Snapshot:
		return s, func() {}
	case *Table:
		snap := s.Snapshot()
		return snap, snap.Release
	}
	panic("unreachable")
}

// scanSerial runs src's one-worker scan: batches in row-id order.
func scanSerial[S source](src S, preds []Pred, fn func(b *Batch) bool) error {
	return scanDop(src, preds, 1, func(_ int, b *Batch) bool { return fn(b) })
}

// scanDop runs src's scan with dop workers.
func scanDop[S source](src S, preds []Pred, dop int, fn func(worker int, b *Batch) bool) error {
	snap, release := pin(src)
	defer release()
	return snap.Scan(preds, nil, dop, nil, fn)
}

// scanNaive runs src's decode-then-evaluate ablation scan.
func scanNaive[S source](src S, preds []Pred, fn func(b *Batch) bool) error {
	snap, release := pin(src)
	defer release()
	return snap.ScanNaive(preds, fn)
}

// countWhere counts the live rows of src satisfying preds.
func countWhere[S source](src S, preds []Pred) (int, error) {
	n := 0
	err := scanSerial(src, preds, func(b *Batch) bool {
		n += b.Len()
		return true
	})
	return n, err
}

// selectWhere materializes the live rows of src satisfying preds, in
// row-id order.
func selectWhere[S source](src S, preds []Pred) ([]types.Row, error) {
	var out []types.Row
	err := scanSerial(src, preds, func(b *Batch) bool {
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
		return true
	})
	return out, err
}

// updateWhere replaces the rows satisfying preds with copies whose
// columns in set take the given values, as one Change; a nil set deletes
// them.
func updateWhere(t *Table, preds []Pred, set map[int]types.Value) (int, error) {
	return t.Change(func(snap *Snapshot) (del []int64, add []*vec.Batch, err error) {
		var rows []types.Row
		err = snap.Scan(preds, nil, 1, nil, func(_ int, b *Batch) bool {
			for i := 0; i < b.Len(); i++ {
				del = append(del, b.RowID(i))
				if set != nil {
					row := b.Row(i)
					for ci, v := range set {
						row[ci] = v
					}
					rows = append(rows, row)
				}
			}
			return true
		})
		return del, rowsBatch(rows), err
	})
}

// rowsBatch is rows as the batches a Change adds: one, or none for no
// rows.
func rowsBatch(rows []types.Row) []*vec.Batch {
	if len(rows) == 0 {
		return nil
	}
	return []*vec.Batch{vec.FromRows(nil, rows)}
}

// deleteWhere deletes the rows satisfying preds as one Change.
func deleteWhere(t *Table, preds []Pred) (int, error) { return updateWhere(t, preds, nil) }

// bulkRows flushes rows through the rows→lanes adapter into BulkAppend.
func bulkRows(t *Table, rows []types.Row) (int, error) {
	b, err := LanesOf(t.Schema(), rows)
	if err != nil {
		return 0, err
	}
	return t.BulkAppend(b)
}
