package columnar

import (
	"fmt"

	"dashdb/internal/bitpack"
	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
)

// Pred is one conjunct of a scan predicate: column OP constant.
type Pred struct {
	Col int
	Op  encoding.CmpOp
	Val types.Value
}

// Batch is one stride's worth of selected tuples handed to the scan
// callback. A batch references only the scan's pinned epoch state, so it
// stays consistent no matter what writers commit meanwhile; it is valid
// for the lifetime of the snapshot it was scanned under.
//
// Concurrency invariant: a Batch is confined to a single goroutine. Value
// populates the batch's private pages map lazily and without locking, so
// sharing one batch across goroutines would race. Scan delivers batches
// sequentially; ParallelScan gives every worker its own batches (each
// with its own page map, so buffer-pool loads don't serialize on shared
// mutable state). Callbacks that want to keep data past the callback must
// copy values out (Row and VectorsEnc materialize copies).
type Batch struct {
	t      *Table
	st     *tableState
	stride int   // stride index; -1 for the open stride
	base   int   // global row id of stride start
	sel    []int // selected offsets within the stride, ascending
	pages  map[int]*page.Page
	doms   map[int][]types.Value // per-column dictionary snapshots for Value
}

// Len returns the number of selected tuples.
func (b *Batch) Len() int { return len(b.sel) }

// RowID returns the global row id of the i'th selected tuple.
func (b *Batch) RowID(i int) int64 { return int64(b.base + b.sel[i]) }

// Value returns column ci of the i'th selected tuple, decoding lazily.
func (b *Batch) Value(ci, i int) types.Value {
	off := b.sel[i]
	c := &b.st.cols[ci]
	if b.stride < 0 {
		return c.openVals[off]
	}
	pg := b.page(ci)
	if pg.Nulls.Get(off) {
		return types.NullOf(b.t.schema[ci].Kind)
	}
	if d, ok := c.enc.(*encoding.Dict); ok {
		// Decode through a per-batch snapshot: one dictionary lock per
		// (batch, column) instead of one per row.
		dom, ok := b.doms[ci]
		if !ok {
			dom = d.Snapshot()
			if b.doms == nil {
				b.doms = make(map[int][]types.Value)
			}
			b.doms[ci] = dom
		}
		return dom[pg.Codes.Get(off)]
	}
	return c.enc.Decode(pg.Codes.Get(off))
}

// Row materializes the full i'th selected tuple.
func (b *Batch) Row(i int) types.Row {
	row := make(types.Row, len(b.t.schema))
	for ci := range b.t.schema {
		row[ci] = b.Value(ci, i)
	}
	return row
}

// Scan streams batches of tuples satisfying the conjunction of preds to
// fn, in row-id order, applying data skipping and SWAR evaluation over
// compressed codes. fn returning false stops the scan. The scan reads the
// snapshot's pinned epoch only: concurrent INSERT/bulk-load/TRUNCATE are
// invisible to it. Storage failures during lazy batch materialization are
// converted into a returned error.
func (s *Snapshot) Scan(preds []Pred, fn func(b *Batch) bool) (err error) {
	return s.ScanWithStats(preds, nil, fn)
}

// ScanWithStats is Scan with a per-query telemetry sink: stride visits,
// synopsis skips and delivered rows are additionally recorded into ss
// (shard 0, since the serial scan is one worker). ss may be nil, which
// makes this identical to Scan.
func (s *Snapshot) ScanWithStats(preds []Pred, ss *telemetry.ScanStats, fn func(b *Batch) bool) (err error) {
	defer recoverScanPanic(&err)
	return s.scanState(preds, ss.Shard(0), fn)
}

// Scan pins the current epoch for the scan's duration and delegates to
// Snapshot.Scan. Query execution should scan an explicitly pinned
// Snapshot instead, so that planning and multiple operators of one query
// agree on the epoch.
func (t *Table) Scan(preds []Pred, fn func(b *Batch) bool) error {
	snap := t.Snapshot()
	defer snap.Release()
	return snap.Scan(preds, fn)
}

// ScanWithStats is Scan with a per-query telemetry sink, over a
// freshly pinned epoch.
func (t *Table) ScanWithStats(preds []Pred, ss *telemetry.ScanStats, fn func(b *Batch) bool) error {
	snap := t.Snapshot()
	defer snap.Release()
	return snap.ScanWithStats(preds, ss, fn)
}

// recoverScanPanic converts page-load panics raised inside batch
// materialization into scan errors, so storage faults surface cleanly.
func recoverScanPanic(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("columnar: scan aborted: %v", r)
	}
}

// checkPreds validates predicate column ordinals against the schema.
func (t *Table) checkPreds(preds []Pred) error {
	for _, p := range preds {
		if p.Col < 0 || p.Col >= len(t.schema) {
			return fmt.Errorf("columnar: predicate on column %d of %d-column table %s", p.Col, len(t.schema), t.name)
		}
	}
	return nil
}

func (s *Snapshot) scanState(preds []Pred, sh *telemetry.ScanShard, fn func(b *Batch) bool) error {
	t, st := s.t, s.state()
	if st.rows == 0 {
		return nil
	}
	if err := t.checkPreds(preds); err != nil {
		return err
	}
	// Translate every predicate to code space once.
	translated, none := st.translatePreds(preds)
	if none {
		return nil // a false conjunct kills the whole scan
	}

	sealed := st.sealedStrides()
	for strideIdx := 0; strideIdx < sealed; strideIdx++ {
		// Data skipping: every conjunct must be satisfiable in this
		// stride's code span.
		if st.skipStride(strideIdx, preds, translated) {
			t.stats.stridesSkipped.Add(1)
			sh.Skip()
			continue
		}
		t.stats.stridesVisited.Add(1)
		sh.Visit()
		b, err := evalSealedStride(t, st, strideIdx, preds, translated)
		if err != nil {
			return err
		}
		if b.Len() > 0 {
			sh.Rows(b.Len())
			if !fn(b) {
				return nil
			}
		}
	}
	// Open stride: value-space evaluation over the unpacked buffers.
	if n := st.openLen(); n > 0 {
		t.stats.stridesVisited.Add(1)
		sh.Visit()
		b := evalOpenStride(t, st, preds)
		if b.Len() > 0 {
			sh.Rows(b.Len())
			if !fn(b) {
				return nil
			}
		}
	}
	return nil
}

// evalSealedStride evaluates the conjunction over one sealed stride using
// the SWAR kernels, returning the selected offsets.
//
//dashdb:hotpath
func evalSealedStride(t *Table, st *tableState, s int, preds []Pred, translated []encoding.Predicate) (*Batch, error) {
	base := s * page.StrideSize
	var sel *bitpack.Bitmap
	pages := make(map[int]*page.Page, len(preds))

	for i, p := range preds {
		pg, ok := pages[p.Col]
		if !ok {
			var err error
			pg, err = t.loadPageGen(p.Col, st.cols[p.Col].gen, s)
			if err != nil {
				return nil, err
			}
			pages[p.Col] = pg
			t.stats.pagesRead.Add(1)
		}
		match := bitpack.NewBitmap(pg.Rows())
		applyPredicate(pg, st.cols[p.Col].enc, translated[i], preds[i], match)
		// Comparison predicates never match NULL.
		match.AndNot(pg.Nulls)
		if sel == nil {
			sel = match
		} else {
			sel.And(match)
		}
		if !sel.Any() {
			return &Batch{t: t, st: st, stride: s, base: base, pages: pages}, nil
		}
	}
	rows := page.StrideSize
	if len(preds) == 0 {
		sel = bitpack.NewBitmapFull(rows)
	} else {
		rows = sel.Len()
	}
	t.stats.rowsScanned.Add(uint64(rows))
	// Mask tombstones.
	selIdx := make([]int, 0, sel.Count())
	sel.ForEach(func(off int) {
		if !st.deleted.Get(base + off) {
			selIdx = append(selIdx, off)
		}
	})
	return &Batch{t: t, st: st, stride: s, base: base, sel: selIdx, pages: pages}, nil
}

// applyPredicate ORs matching positions into match: SWAR range kernels for
// exact ranges, decode-and-recheck for residual ranges.
//
//dashdb:hotpath
func applyPredicate(pg *page.Page, enc encoding.Encoder, tp encoding.Predicate, p Pred, match *bitpack.Bitmap) {
	if tp.All {
		full := bitpack.NewBitmapFull(pg.Rows())
		match.Or(full)
		return
	}
	maxCode := uint64(1)<<pg.Codes.Width() - 1
	for _, r := range tp.Ranges {
		lo, hi := r.Lo, r.Hi
		if lo > maxCode {
			continue // this stride's narrow width cannot hold such codes
		}
		if hi > maxCode {
			hi = maxCode
		}
		pg.Codes.CompareRange(lo, hi, match)
	}
	for _, r := range tp.Residual {
		lo, hi := r.Lo, r.Hi
		if lo > maxCode {
			continue
		}
		if hi > maxCode {
			hi = maxCode
		}
		cand := bitpack.NewBitmap(pg.Rows())
		pg.Codes.CompareRange(lo, hi, cand)
		cand.ForEach(func(off int) {
			if !pg.Nulls.Get(off) && p.Op.Eval(enc.Decode(pg.Codes.Get(off)), p.Val) {
				match.Set(off)
			}
		})
	}
}

// evalOpenStride evaluates predicates over the open stride's buffered
// values in value space.
func evalOpenStride(t *Table, st *tableState, preds []Pred) *Batch {
	n := st.openLen()
	base := st.sealedStrides() * page.StrideSize
	sel := make([]int, 0, n)
	for off := 0; off < n; off++ {
		if st.deleted.Get(base + off) {
			continue
		}
		ok := true
		for _, p := range preds {
			c := &st.cols[p.Col]
			if c.openNulls[off] || !p.Op.Eval(c.openVals[off], p.Val) {
				ok = false
				break
			}
		}
		if ok {
			sel = append(sel, off)
		}
	}
	t.stats.rowsScanned.Add(uint64(n))
	return &Batch{t: t, st: st, stride: -1, base: base, sel: sel}
}

// ScanNaive is the decode-then-evaluate ablation (DESIGN.md §6): it
// visits every stride (no data skipping), decodes every code back to a
// value and compares in value space (no SWAR, no operating on compressed
// data). The cloud column-store baseline of Test 4 runs its scans through
// this path; benchmarking it against Scan isolates exactly the techniques
// of §II.B.2/4/6.
func (s *Snapshot) ScanNaive(preds []Pred, fn func(b *Batch) bool) (err error) {
	defer recoverScanPanic(&err)
	t, st := s.t, s.state()
	if st.rows == 0 {
		return nil
	}
	if err := t.checkPreds(preds); err != nil {
		return err
	}
	sealed := st.sealedStrides()
	for strideIdx := 0; strideIdx < sealed; strideIdx++ {
		t.stats.stridesVisited.Add(1)
		base := strideIdx * page.StrideSize
		pages := make(map[int]*page.Page, len(preds))
		sel := make([]int, 0, page.StrideSize)
		for off := 0; off < page.StrideSize; off++ {
			if st.deleted.Get(base + off) {
				continue
			}
			ok := true
			for _, p := range preds {
				pg, have := pages[p.Col]
				if !have {
					var err error
					pg, err = t.loadPageGen(p.Col, st.cols[p.Col].gen, strideIdx)
					if err != nil {
						return err
					}
					pages[p.Col] = pg
					t.stats.pagesRead.Add(1)
				}
				if pg.Nulls.Get(off) {
					ok = false
					break
				}
				v := st.cols[p.Col].enc.Decode(pg.Codes.Get(off))
				if !p.Op.Eval(v, p.Val) {
					ok = false
					break
				}
			}
			if ok {
				sel = append(sel, off)
			}
		}
		t.stats.rowsScanned.Add(page.StrideSize)
		if len(sel) > 0 {
			b := &Batch{t: t, st: st, stride: strideIdx, base: base, sel: sel, pages: pages}
			if !fn(b) {
				return nil
			}
		}
	}
	if n := st.openLen(); n > 0 {
		t.stats.stridesVisited.Add(1)
		b := evalOpenStride(t, st, preds)
		if b.Len() > 0 && !fn(b) {
			return nil
		}
	}
	return nil
}

// ScanNaive runs the ablation scan over a freshly pinned epoch.
func (t *Table) ScanNaive(preds []Pred, fn func(b *Batch) bool) error {
	snap := t.Snapshot()
	defer snap.Release()
	return snap.ScanNaive(preds, fn)
}

// CountWhere returns the number of live rows satisfying the conjunction,
// without materializing values (COUNT(*) fast path).
func (s *Snapshot) CountWhere(preds []Pred) (int, error) {
	total := 0
	err := s.Scan(preds, func(b *Batch) bool {
		total += b.Len()
		return true
	})
	return total, err
}

// CountWhere counts matching rows in a freshly pinned epoch.
func (t *Table) CountWhere(preds []Pred) (int, error) {
	snap := t.Snapshot()
	defer snap.Release()
	return snap.CountWhere(preds)
}

// SelectWhere materializes all matching rows (convenience for small
// results and tests; the executor streams batches instead).
func (s *Snapshot) SelectWhere(preds []Pred) ([]types.Row, error) {
	var out []types.Row
	err := s.Scan(preds, func(b *Batch) bool {
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
		return true
	})
	return out, err
}

// SelectWhere materializes matching rows from a freshly pinned epoch.
func (t *Table) SelectWhere(preds []Pred) ([]types.Row, error) {
	snap := t.Snapshot()
	defer snap.Release()
	return snap.SelectWhere(preds)
}

// tombstoneLocked sets tombstones for the given row ids on a private copy
// of the bitmap (copy-on-write: published epochs keep the old bitmap) and
// returns how many were live. Caller holds mu and publishes after.
func (t *Table) tombstoneLocked(rids []int64) int {
	nb := t.deleted.Clone()
	n := 0
	for _, rid := range rids {
		if rid < 0 || int(rid) >= t.rows {
			continue // e.g. the table was truncated since the rids were collected
		}
		if !nb.Get(int(rid)) {
			nb.Set(int(rid))
			t.live--
			n++
		}
	}
	t.deleted = nb
	return n
}

// DeleteWhere tombstones matching rows, returning how many were deleted.
// Matches are collected against a pinned snapshot; the tombstones commit
// as one epoch.
func (t *Table) DeleteWhere(preds []Pred) (int, error) {
	var rids []int64
	err := t.Scan(preds, func(b *Batch) bool {
		for i := 0; i < b.Len(); i++ {
			rids = append(rids, b.RowID(i))
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tombstoneLocked(rids)
	t.publishLocked()
	return len(rids), nil
}

// DeleteRows tombstones the given row ids, returning how many were live.
// The general DML path uses it after evaluating residual predicates the
// scan could not push down.
func (t *Table) DeleteRows(rids []int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.tombstoneLocked(rids)
	t.publishLocked()
	return n
}

// UpdateWhere rewrites matching rows: columnar updates are implemented as
// delete + re-insert of the modified row, the standard approach for
// column-organized storage. set maps column ordinals to new values. The
// delete and the re-insert commit together in a single epoch, so readers
// never observe the in-between state where rows have vanished but their
// replacements are not yet visible.
func (t *Table) UpdateWhere(preds []Pred, set map[int]types.Value) (int, error) {
	var updated []types.Row
	var rids []int64
	err := t.Scan(preds, func(b *Batch) bool {
		for i := 0; i < b.Len(); i++ {
			row := b.Row(i)
			for ci, v := range set {
				row[ci] = v
			}
			updated = append(updated, row)
			rids = append(rids, b.RowID(i))
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	checked, err := t.validateAll(updated)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.publishLocked()
	t.tombstoneLocked(rids)
	if err := t.appendRowsLocked(checked); err != nil {
		return 0, err
	}
	return len(updated), nil
}
