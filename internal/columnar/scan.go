package columnar

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dashdb/internal/bitpack"
	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/synopsis"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
)

// Pred is one conjunct of a scan predicate: column OP constant.
type Pred struct {
	Col int
	Op  encoding.CmpOp
	Val types.Value
}

// Bound is a scan's one bound that only tightens: column Col, OpLE or OpGE,
// and a value an operator above the scan publishes while the scan runs — a
// bounded sort its Bound-th leading key, a group-by under a key-ordered
// LIMIT its Bound-th group key. A row on the far side of the value cannot
// reach the statement's answer, so the scan neither selects nor decodes it
// — but for a dictionary's extension codes, which are not in value order
// and which it keeps whole: the bound may let a row past it through, never
// drop one within it. Until a value is published the bound admits every
// row.
//
// Producers order NULLs first ascending and last descending, and a
// comparison never keeps a NULL, so the scan applies an OpLE bound only to
// a column that holds no NULL in its pinned epoch; an OpGE bound drops
// NULLs, which sort after every value it keeps.
type Bound struct {
	Col int
	Op  encoding.CmpOp
	val atomic.Pointer[types.Value]
}

// NewBound returns a bound on column col with no value yet; op is OpLE or
// OpGE.
func NewBound(col int, op encoding.CmpOp) *Bound { return &Bound{Col: col, Op: op} }

// Tighten publishes v when it is tighter than the current value: smaller
// under OpLE, larger under OpGE. A NULL never tightens. Safe for
// concurrent use.
func (b *Bound) Tighten(v types.Value) {
	if v.IsNull() {
		return
	}
	for {
		cur := b.val.Load()
		if cur != nil {
			if c := types.Compare(v, *cur); c == 0 || (c < 0) != (b.Op == encoding.OpLE) {
				return
			}
		}
		if b.val.CompareAndSwap(cur, &v) {
			return
		}
	}
}

// Reset forgets the value, for a statement that runs its scan again.
func (b *Bound) Reset() { b.val.Store(nil) }

// Value returns the bound's current value; ok is false before the first.
func (b *Bound) Value() (v types.Value, ok bool) {
	if p := b.val.Load(); p != nil {
		return *p, true
	}
	return types.Null, false
}

// Batch is one stride's worth of selected tuples handed to the scan
// callback. A batch references only the scan's pinned epoch state, so it
// stays consistent no matter what writers commit meanwhile. It is valid
// only during the callback: each scan worker delivers every stride through
// one batch and one set of selection buffers, which the next stride
// reuses. A callback that keeps data must copy it out (Row and VectorsEnc
// return copies).
//
// Concurrency invariant: a Batch is confined to a single goroutine. Value
// populates the batch's private pages map lazily and without locking, so
// sharing one batch across goroutines would race. Scan gives every worker
// its own batch (with its own page map, so buffer-pool loads don't
// serialize on shared mutable state).
type Batch struct {
	t      *Table
	st     *tableState
	stride int   // stride index; st.sealedStrides() for the tail
	base   int   // global row id of stride start
	sel    []int // selected offsets within the stride, ascending
	pages  map[int]*page.Page
	doms   map[int][]types.Value // per-column dictionary snapshots for Value
}

// newBatch returns an empty batch over stride s of st.
func newBatch(t *Table, st *tableState, s, preds int) *Batch {
	return &Batch{t: t, st: st, stride: s, base: s * page.StrideSize, pages: make(map[int]*page.Page, preds)}
}

// scanScratch is one scan worker's selection state, reused from stride to
// stride: the batch it delivers, the selection and match bitmaps, the
// candidates of a residual range and the selected offsets. A worker takes
// one from scratchPool at its first stride not skipped and puts it back
// when it stops.
type scanScratch struct {
	b                Batch
	sel, match, cand *bitpack.Bitmap
	offs             []int
}

// scratchPool recycles scratch from scan to scan, so a scan that visits
// one stride, a point query's, allocates none either.
var scratchPool = sync.Pool{New: func() any {
	return &scanScratch{
		b:     Batch{pages: make(map[int]*page.Page)},
		sel:   bitpack.NewBitmap(page.StrideSize),
		match: bitpack.NewBitmap(page.StrideSize),
		cand:  bitpack.NewBitmap(page.StrideSize),
		offs:  make([]int, 0, page.StrideSize),
	}
}}

// batch readies the scratch batch for stride s of st: no pages loaded, no
// dictionary snapshot taken, nothing selected.
func (sc *scanScratch) batch(t *Table, st *tableState, s int) *Batch {
	b := &sc.b
	clear(b.pages)
	clear(b.doms)
	b.t, b.st, b.stride, b.base, b.sel = t, st, s, s*page.StrideSize, nil
	return b
}

// put returns the scratch to the pool, holding no table, page or
// dictionary.
func (sc *scanScratch) put() {
	sc.batch(nil, nil, 0)
	scratchPool.Put(sc)
}

// Len returns the number of selected tuples.
func (b *Batch) Len() int { return len(b.sel) }

// RowID returns the global row id of the i'th selected tuple.
func (b *Batch) RowID(i int) int64 { return int64(b.base + b.sel[i]) }

// Value returns column ci of the i'th selected tuple, decoding lazily.
func (b *Batch) Value(ci, i int) types.Value {
	code, null := b.page(ci).Get(b.sel[i])
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

// encPredicates is a predicate list translated to code space.
type encPredicates []encPred

// encPred is one conjunct in code space, with the dictionary snapshot its
// residual ranges are rechecked through, taken when it was translated: the
// scan's pinned epoch holds no code the snapshot lacks.
type encPred struct {
	encoding.Predicate
	dom []types.Value
}

// Scan is the table's one scan: it streams the batches of tuples
// satisfying the conjunction of preds to fn, applying data skipping over
// the synopsis (§II.B.4) and SWAR evaluation over compressed codes
// (§II.B.6). It reads the snapshot's pinned epoch only: concurrent
// INSERT, bulk load, UPDATE, DELETE and TRUNCATE are invisible to it, and
// writing the table from inside fn is allowed (it affects later epochs,
// not this scan).
//
// The scan is morsel-driven (§II.B.7 strides × machine cores): every
// stride, the tail included, is a morsel on a shared queue, and
// min(dop, strides) workers pull morsels, skip and select independently
// and deliver their batches to fn. With one worker — dop ≤ 1, or a table
// of one stride — fn runs on the calling goroutine as worker 0 and the
// batches arrive in row-id order. Otherwise fn is invoked concurrently:
// worker (0 ≤ worker < dop) identifies the caller so callers can keep
// per-worker state without locking, one worker never runs fn
// concurrently with itself, and batches arrive in ascending stride order
// within a worker but in no particular order across workers. Every Batch
// is confined to the worker that delivered it and is valid only during
// the callback: the worker delivers its next stride through the same
// batch.
//
// bound, when not nil, is read once a morsel by every worker: a value it
// has not seen is translated to code space like a conjunct of preds and
// joins the conjunction from that morsel on, so skipping and selection
// both apply it, and a value that no code can satisfy ends the scan.
//
// fn returning false stops the scan; other workers stop at their next
// morsel boundary. ss, when not nil, receives each worker's stride
// visits, synopsis skips and delivered rows in that worker's ScanShard
// with plain increments — Scan returns only after every worker has.
// Storage failures in any worker, including page-load panics raised by
// lazy materialization inside fn, abort the scan and are returned.
func (s *Snapshot) Scan(preds []Pred, bound *Bound, dop int, ss *telemetry.ScanStats, fn func(worker int, b *Batch) bool) error {
	t, st := s.t, s.state()
	if st.rows == 0 {
		return nil
	}
	if err := t.checkPreds(preds); err != nil {
		return err
	}
	if bound != nil {
		if err := t.checkPreds([]Pred{{Col: bound.Col}}); err != nil {
			return err
		}
		if !s.Bounds(bound) {
			bound = nil
		}
	}
	trans, none := st.translatePreds(preds)
	if none {
		return nil // a false conjunct kills the whole scan
	}

	r := &scanRun{t: t, st: st, preds: preds, trans: trans, bound: bound, ss: ss, fn: fn, morsels: st.strides()}
	if dop = min(dop, r.morsels); dop <= 1 {
		r.work(0)
		return r.err
	}
	var wg sync.WaitGroup
	for w := range dop {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(w)
		}()
	}
	wg.Wait()
	return r.err
}

// scanRun is one Scan's shared morsel queue and outcome.
type scanRun struct {
	t       *Table
	st      *tableState
	preds   []Pred
	trans   encPredicates
	bound   *Bound
	ss      *telemetry.ScanStats
	fn      func(worker int, b *Batch) bool
	morsels int

	next    atomic.Int64 // queue head: the next morsel to take
	stop    atomic.Bool
	errOnce sync.Once
	err     error // the first worker's error
}

// work runs one worker to the end of the queue, a stop or an error; the
// first error stops every worker and becomes the scan's.
func (r *scanRun) work(worker int) {
	if err := r.drain(worker); err != nil {
		r.errOnce.Do(func() { r.err = err })
		r.stop.Store(true)
	}
}

// drain takes morsels in queue order, skips or selects each and delivers
// what it selected.
func (r *scanRun) drain(worker int) (err error) {
	defer recoverScanPanic(&err)
	sh := r.ss.Shard(worker)
	var sc *scanScratch // taken at the first stride not skipped
	defer func() {
		if sc != nil {
			sc.put()
		}
	}()
	view := boundView{preds: r.preds, trans: r.trans}
	for !r.stop.Load() {
		m := int(r.next.Add(1)) - 1
		if m >= r.morsels {
			return nil
		}
		if r.bound != nil && view.stale(r.bound) && !view.refresh(r) {
			r.stop.Store(true) // no row of the table is within the bound
			return nil
		}
		if r.st.skipStride(m, view.preds, view.trans) {
			r.t.stats.stridesSkipped.Add(1)
			sh.Skip()
			continue
		}
		if sc == nil {
			sc = scratchPool.Get().(*scanScratch)
		}
		b, err := r.st.visit(r.t, m, view.preds, view.trans, sh, sc)
		if err != nil {
			return err
		}
		if b != nil && !r.fn(worker, b) {
			r.stop.Store(true)
		}
	}
	return nil
}

// boundView is one worker's translation of its scan's bound: the value it
// last read, and the scan's conjunction with that value's conjunct last
// once there is one.
type boundView struct {
	seen  *types.Value
	preds []Pred
	trans encPredicates
}

// stale reports whether the bound holds a value the worker has not
// translated: one atomic load a morsel.
//
//dashdb:hotpath
func (v *boundView) stale(b *Bound) bool { return b.val.Load() != v.seen }

// refresh translates the bound's current value through the column's
// encoder into the worker's conjunction, once per value the worker sees.
// It reports false when no code can satisfy the value.
func (v *boundView) refresh(r *scanRun) bool {
	v.seen = r.bound.val.Load()
	p := Pred{Col: r.bound.Col, Op: r.bound.Op, Val: *v.seen}
	tp := encPred{Predicate: r.st.cols[p.Col].enc.Translate(p.Op, p.Val)}
	if tp.None {
		return false
	}
	if len(tp.Residual) > 0 {
		// A dictionary's extension codes are not in value order: they are
		// kept whole, not decoded a row at a time to recheck. The bound
		// need only keep every row within it.
		tp.Ranges, tp.Residual = append(slices.Clip(tp.Ranges), tp.Residual...), nil
	}
	if n := len(r.preds); len(v.preds) > n {
		v.preds[n], v.trans[n] = p, tp
	} else {
		v.preds = append(slices.Clip(r.preds), p)
		v.trans = append(slices.Clip(r.trans), tp)
	}
	return true
}

// Bounds reports whether Scan applies b in this snapshot: not an OpLE
// bound on a column that holds a NULL, which would drop the NULLs that
// sort first ascending.
func (s *Snapshot) Bounds(b *Bound) bool {
	return b != nil && b.Col >= 0 && b.Col < len(s.t.schema) && (b.Op != encoding.OpLE || !s.state().holdsNull(b.Col))
}

// holdsNull reports whether column ci holds a NULL in this epoch, deleted
// rows included.
func (st *tableState) holdsNull(ci int) bool {
	for s := range st.strides() {
		if st.cols[ci].entry(s).NullCnt > 0 {
			return true
		}
	}
	return false
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

// translatePreds translates predicates to code space once per scan.
// none is true when some conjunct can never match (empty result).
func (st *tableState) translatePreds(preds []Pred) (encPredicates, bool) {
	trans := make(encPredicates, len(preds))
	for i, p := range preds {
		enc := st.cols[p.Col].enc
		if trans[i].Predicate = enc.Translate(p.Op, p.Val); trans[i].None {
			return nil, true
		}
		if d, ok := enc.(*encoding.Dict); ok && len(trans[i].Residual) > 0 {
			trans[i].dom = d.Snapshot()
		}
	}
	return trans, false
}

// skipStride applies data skipping: the stride, the tail as any other, can
// be skipped when any conjunct is unsatisfiable in its synopsis span.
func (st *tableState) skipStride(s int, preds []Pred, trans encPredicates) bool {
	for i, p := range preds {
		if !synopsis.MayMatch(trans[i].Predicate, st.cols[p.Col].entry(s)) {
			return true
		}
	}
	return false
}

// visit selects from stride s for Scan, which has already found that the
// synopsis cannot skip it: the conjunction in code space, into sc. It
// counts the visit and the delivered rows into t's counters and sh, and
// returns sc's batch, or nil when nothing matched.
func (st *tableState) visit(t *Table, s int, preds []Pred, trans encPredicates, sh *telemetry.ScanShard, sc *scanScratch) (*Batch, error) {
	t.stats.stridesVisited.Add(1)
	sh.Visit()
	b := sc.batch(t, st, s)
	var err error
	if b.sel, err = b.selectStride(preds, trans, sc); err != nil || b.Len() == 0 {
		return nil, err
	}
	sh.Rows(b.Len())
	return b, nil
}

// selectStride evaluates the conjunction over a stride, sealed or the
// tail, with the SWAR kernels over its packed pages, returning the
// selected offsets with tombstones cleared a word at a time. The bitmaps
// are as long as the stride's rows, so a conjunct that selects every
// position selects the tail's rows and no more. A conjunct its synopsis
// entry shows to hold for every row is passed over without reading its
// page. The bitmaps and the offsets are sc's.
//
//dashdb:hotpath
func (b *Batch) selectStride(preds []Pred, translated encPredicates, sc *scanScratch) ([]int, error) {
	n := b.st.strideRows(b.stride)
	sel, match := sc.sel, sc.match
	sel.Resize(n)
	match.Resize(n)
	sc.cand.Resize(n)
	sel.SetAll()
	for i, p := range preds {
		c := &b.st.cols[p.Col]
		e := c.entry(b.stride)
		if e.NullCnt == 0 && spans(translated[i].Predicate, e) {
			continue // every row matches: no page to read
		}
		pg, ok := b.pages[p.Col]
		if !ok {
			var err error
			if pg, err = b.t.pageOf(b.st, p.Col, b.stride); err != nil {
				return nil, err
			}
			b.pages[p.Col] = pg
			b.t.stats.pagesRead.Add(1)
		}
		match.Reset()
		applyPredicate(pg, e, translated[i], p, match, sc.cand)
		if nulls := pg.Nulls(); nulls != nil {
			match.AndNot(nulls) // comparison predicates never match NULL
		}
		sel.And(match)
		if !sel.Any() {
			return nil, nil
		}
	}
	b.t.stats.rowsScanned.Add(uint64(n))
	sel.AndNotAt(b.st.deleted, b.base) // a stride base is word-aligned
	offs := sc.offs[:0]
	sel.ForEach(func(off int) { offs = append(offs, off) })
	return offs, nil
}

// spans reports whether translated conjunct tp matches every non-NULL
// code of a stride whose synopsis entry is e: it matches every code, or
// one exact range holds the stride's span [MinCode, MaxCode].
func spans(tp encoding.Predicate, e synopsis.Entry) bool {
	if tp.All {
		return true
	}
	for _, r := range tp.Ranges {
		if r.Lo <= e.MinCode && r.Hi >= e.MaxCode {
			return true
		}
	}
	return false
}

// applyPredicate ORs matching positions into match: SWAR range kernels for
// exact ranges, and for residual ranges a recheck of each candidate's
// value in tp's dictionary snapshot, the candidates gathered in cand, a
// stride-long scratch bitmap. A conjunct that spans the stride in its
// synopsis entry e selects every position with no pass over the page's
// words.
//
//dashdb:hotpath
func applyPredicate(pg *page.Page, e synopsis.Entry, tp encPred, p Pred, match, cand *bitpack.Bitmap) {
	if spans(tp.Predicate, e) {
		match.SetAll()
		return
	}
	for _, r := range tp.Ranges {
		pg.SelectRange(r.Lo, r.Hi, match)
	}
	for _, r := range tp.Residual {
		cand.Reset()
		pg.SelectRange(r.Lo, r.Hi, cand)
		cand.ForEach(func(off int) {
			if code, null := pg.Get(off); !null && p.Op.Eval(tp.dom[code], p.Val) {
				match.Set(off)
			}
		})
	}
}

// ScanNaive is the decode-then-evaluate ablation (DESIGN.md §6): it
// visits every stride (no data skipping), the tail included, decodes
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
		n := st.strideRows(strideIdx)
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
		code, null := b.page(p.Col).Get(off)
		if null || !p.Op.Eval(b.st.cols[p.Col].enc.Decode(code), p.Val) {
			return false
		}
	}
	return true
}
