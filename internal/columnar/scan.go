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
	stride int   // stride index; st.sealedStrides() for the open stride
	base   int   // global row id of stride start
	sel    []int // selected offsets within the stride, ascending
	pages  map[int]*page.Page
	doms   map[int][]types.Value // per-column dictionary snapshots for Value
}

// newBatch returns an empty batch over stride s of st.
func newBatch(t *Table, st *tableState, s, preds int) *Batch {
	return &Batch{t: t, st: st, stride: s, base: s * page.StrideSize, pages: make(map[int]*page.Page, preds)}
}

// Len returns the number of selected tuples.
func (b *Batch) Len() int { return len(b.sel) }

// RowID returns the global row id of the i'th selected tuple.
func (b *Batch) RowID(i int) int64 { return int64(b.base + b.sel[i]) }

// open reports whether the batch is over the open stride, whose codes are
// not packed on a page.
func (b *Batch) open() bool { return b.stride == b.st.sealedStrides() }

// cell returns column ci's code at offset off of the stride and whether
// the cell is NULL.
func (b *Batch) cell(ci, off int) (uint64, bool) {
	if b.open() {
		c := &b.st.cols[ci]
		return c.openCodes[off], c.openNulls[off]
	}
	pg := b.page(ci)
	return pg.Codes.Get(off), pg.Nulls.Get(off)
}

// Value returns column ci of the i'th selected tuple, decoding lazily.
func (b *Batch) Value(ci, i int) types.Value {
	code, null := b.cell(ci, b.sel[i])
	if null {
		return types.NullOf(b.t.schema[ci].Kind)
	}
	c := &b.st.cols[ci]
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
		return dom[code]
	}
	return c.enc.Decode(code)
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

	for strideIdx := 0; strideIdx < st.strides(); strideIdx++ {
		b, err := st.visit(t, strideIdx, preds, translated, sh)
		if err != nil {
			return err
		}
		if b != nil && !fn(b) {
			return nil
		}
	}
	return nil
}

// visit scans stride s for Scan and ParallelScan: data skipping over the
// synopsis, then the conjunction in code space. It counts the skip or the
// visit and the delivered rows into t's counters and sh, and returns the
// selected tuples, or nil when the stride was skipped or nothing matched.
func (st *tableState) visit(t *Table, s int, preds []Pred, trans encPredicates, sh *telemetry.ScanShard) (*Batch, error) {
	if st.skipStride(s, preds, trans) {
		t.stats.stridesSkipped.Add(1)
		sh.Skip()
		return nil, nil
	}
	t.stats.stridesVisited.Add(1)
	sh.Visit()
	b := newBatch(t, st, s, len(preds))
	var err error
	if b.open() {
		b.sel = b.selectOpen(preds, trans)
	} else {
		b.sel, err = b.selectSealed(preds, trans)
	}
	if err != nil || b.Len() == 0 {
		return nil, err
	}
	sh.Rows(b.Len())
	return b, nil
}

// selectSealed evaluates the conjunction over a sealed stride with the
// SWAR kernels over its packed pages, returning the selected offsets with
// tombstones masked.
//
//dashdb:hotpath
func (b *Batch) selectSealed(preds []Pred, translated encPredicates) ([]int, error) {
	var sel *bitpack.Bitmap
	for i, p := range preds {
		pg, ok := b.pages[p.Col]
		if !ok {
			var err error
			pg, err = b.t.loadPageGen(p.Col, b.st.cols[p.Col].gen, b.stride)
			if err != nil {
				return nil, err
			}
			b.pages[p.Col] = pg
			b.t.stats.pagesRead.Add(1)
		}
		match := bitpack.NewBitmap(pg.Rows())
		applyPredicate(pg, b.st.cols[p.Col].enc, translated[i], p, match)
		// Comparison predicates never match NULL.
		match.AndNot(pg.Nulls)
		if sel == nil {
			sel = match
		} else {
			sel.And(match)
		}
		if !sel.Any() {
			return nil, nil
		}
	}
	rows := page.StrideSize
	if len(preds) == 0 {
		sel = bitpack.NewBitmapFull(rows)
	} else {
		rows = sel.Len()
	}
	b.t.stats.rowsScanned.Add(uint64(rows))
	selIdx := make([]int, 0, sel.Count())
	sel.ForEach(func(off int) {
		if !b.st.deleted.Get(b.base + off) {
			selIdx = append(selIdx, off)
		}
	})
	return selIdx, nil
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

// selectOpen evaluates the conjunction over the open stride's codes, with
// the same translated predicates as a sealed stride: the selection starts
// as the stride's live rows and every conjunct narrows it.
func (b *Batch) selectOpen(preds []Pred, translated encPredicates) []int {
	n := b.st.openLen()
	sel := make([]int, 0, n)
	for off := 0; off < n; off++ {
		if !b.st.deleted.Get(b.base + off) {
			sel = append(sel, off)
		}
	}
	for i, p := range preds {
		c := &b.st.cols[p.Col]
		var dom []types.Value
		if d, ok := c.enc.(*encoding.Dict); ok && len(translated[i].Residual) > 0 {
			dom = d.Snapshot() // one dictionary lock per conjunct, not one per residual row
		}
		sel = selectCodes(c.openCodes, c.openNulls, dom, translated[i], p, sel)
	}
	b.t.stats.rowsScanned.Add(uint64(n))
	return sel
}

// selectCodes narrows sel, ascending offsets into codes, in place to the
// cells that are not NULL and satisfy tp: exact ranges select in code
// space, and a code in a residual range is decoded through dom and
// rechecked against p, as applyPredicate does on a page. Only a
// dictionary's extension is residual, so dom is that dictionary's
// Snapshot (nil when tp has no residual ranges).
//
//dashdb:hotpath
func selectCodes(codes []uint64, nulls []bool, dom []types.Value, tp encoding.Predicate, p Pred, sel []int) []int {
	live := sel[:0]
	for _, off := range sel {
		if !nulls[off] {
			live = append(live, off)
		}
	}
	if tp.All {
		return live
	}
	ranges := make([][2]uint64, 0, len(tp.Ranges)+len(tp.Residual))
	for _, r := range tp.Ranges {
		ranges = append(ranges, [2]uint64{r.Lo, r.Hi})
	}
	exact := len(ranges)
	for _, r := range tp.Residual {
		ranges = append(ranges, [2]uint64{r.Lo, r.Hi})
	}
	live = bitpack.SelectCodesInRanges(codes, ranges, nil, live, live[:0])
	if exact == len(ranges) {
		return live
	}
	out := live[:0]
	for _, off := range live {
		if c := codes[off]; inRanges(c, ranges[:exact]) || p.Op.Eval(dom[c], p.Val) {
			out = append(out, off)
		}
	}
	return out
}

// inRanges reports whether c lies in one of the closed ranges.
//
//dashdb:hotpath
func inRanges(c uint64, ranges [][2]uint64) bool {
	for _, r := range ranges {
		if c-r[0] <= r[1]-r[0] {
			return true
		}
	}
	return false
}

// ScanNaive is the decode-then-evaluate ablation (DESIGN.md §6): it
// visits every stride (no data skipping), the open one included, decodes
// every code back to a value and compares in value space (no SWAR, no
// operating on compressed data). The cloud column-store baseline of Test 4 runs its scans through
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
	for strideIdx := 0; strideIdx < st.strides(); strideIdx++ {
		t.stats.stridesVisited.Add(1)
		b := newBatch(t, st, strideIdx, len(preds))
		n := page.StrideSize
		if b.open() {
			n = st.openLen()
		}
		b.sel = make([]int, 0, n)
		for off := 0; off < n; off++ {
			if !st.deleted.Get(b.base+off) && b.matchesDecoded(preds, off) {
				b.sel = append(b.sel, off)
			}
		}
		t.stats.rowsScanned.Add(uint64(n))
		if b.Len() > 0 && !fn(b) {
			return nil
		}
	}
	return nil
}

// matchesDecoded reports whether the tuple at offset off satisfies every
// predicate, decoding each predicate column's code to its value and
// comparing in value space.
func (b *Batch) matchesDecoded(preds []Pred, off int) bool {
	for _, p := range preds {
		code, null := b.cell(p.Col, off)
		if null || !p.Op.Eval(b.st.cols[p.Col].enc.Decode(code), p.Val) {
			return false
		}
	}
	return true
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
