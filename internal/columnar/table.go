// Package columnar implements the column-organized table of the BLU-style
// engine: the paper's seven architectural techniques meet here. Values are
// reduced to codes by the encoding layer (§II.B.1–2), stored column-wise
// in bit-packed pages of 1,024-tuple strides (§II.B.3), summarized by a
// per-stride synopsis for data skipping (§II.B.4), cached by the buffer
// pool (§II.B.5), and scanned with word-parallel SWAR predicate kernels
// (§II.B.6) a stride at a time (§II.B.7).
//
// A reader pins an epoch with Table.Snapshot and reads it through
// Snapshot.Scan, the one scan (Snapshot.ScanNaive is the
// decode-then-evaluate ablation). A writer appends with Append, the one
// append: batches, whose columns Conform makes typed lanes, all in one
// epoch or none (BulkAppend is the same append, counted as a bulk flush).
// Callers that hold rows at a public edge go through Lanes, the one
// rows→lanes adapter (InsertBatch, LanesOf, the public Bulk loader).
// Change deletes and adds rows in one step (UPDATE and DELETE), and
// Truncate empties the table. A failed write changes nothing.
//
// An append works a column at a time. One of a stride or more spreads its
// columns over min(dop, columns) workers (Config.Dop, the engine's query
// parallelism): each analyzes its column's encoder on a first load, then
// encodes the column's lane a stride chunk at a time and seals each stride
// it fills. Frame fitting and rebuilds stay serial, before any column is
// encoded: a rebuild takes a page generation and queues page deletes,
// which the columns share. An append shorter than a stride, and any table
// at dop 1, runs on the writer's goroutine.
//
// Concurrency model (DESIGN.md §13): the table is split into a
// writer-private build side and immutable published epochs. All mutation
// runs under the writer mutex, accumulates in private buffers, and ends by
// publishing a fresh immutable tableState through an epoch manager —
// one atomic pointer swap, one per write. Readers pin an epoch and scan
// it without any lock on the table: pages are immutable, the open
// stride's tail page included (an append packs a new one, and a published
// epoch keeps the one it was published with), tombstones are
// copy-on-write, and page reclamation after TRUNCATE or an encoder
// rebuild is deferred until every epoch that could reach the old pages
// has drained.
package columnar

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"dashdb/internal/bitpack"
	"dashdb/internal/bufferpool"
	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/snapshot"
	"dashdb/internal/synopsis"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// PageStore persists sealed pages; the clustered filesystem implements it
// for MPP shards, and an in-memory store backs standalone tables.
type PageStore interface {
	WritePage(id page.ID, data []byte) error
	ReadPage(id page.ID) ([]byte, error)
	// DeletePage removes one page; deleting an absent page is not an
	// error. Epoch cleanups use it to reclaim superseded page
	// generations precisely, without touching pages the live epoch still
	// references.
	DeletePage(id page.ID) error
	DeletePages(table uint32) error
}

// memStore is the default in-process PageStore.
type memStore struct {
	mu    sync.RWMutex
	pages map[page.ID][]byte
}

// NewMemStore returns an in-memory PageStore.
func NewMemStore() PageStore {
	return &memStore{pages: make(map[page.ID][]byte)}
}

func (m *memStore) WritePage(id page.ID, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages[id] = data
	return nil
}

func (m *memStore) ReadPage(id page.ID) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.pages[id]
	if !ok {
		return nil, fmt.Errorf("columnar: page %v not found", id)
	}
	return data, nil
}

func (m *memStore) DeletePage(id page.ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.pages, id)
	return nil
}

func (m *memStore) DeletePages(table uint32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id := range m.pages {
		if id.Table == table {
			delete(m.pages, id)
		}
	}
	return nil
}

// Stats counts scan-level activity for the experiments.
type Stats struct {
	StridesVisited uint64
	StridesSkipped uint64
	PagesRead      uint64
	RowsScanned    uint64
	Rebuilds       uint64 // column re-encodes: a frame of reference that could not be extended
}

// statCounters is the lock-free backing store: scans run concurrently
// with writers, so counters must be atomic.
type statCounters struct {
	stridesVisited atomic.Uint64
	stridesSkipped atomic.Uint64
	pagesRead      atomic.Uint64
	rowsScanned    atomic.Uint64
	rebuilds       atomic.Uint64
}

// bulkCounters tracks BulkAppend flush activity for MON_SNAPSHOTS.
type bulkCounters struct {
	flushes atomic.Uint64
	rows    atomic.Uint64
	bytes   atomic.Uint64
}

// Config tunes a table's storage environment.
type Config struct {
	// Pool caches decoded pages; when nil a private unbounded-ish pool
	// with an LRU policy is created.
	Pool *bufferpool.Pool
	// Store persists sealed pages; when nil an in-memory store is used.
	Store PageStore
	// AnalyzeSample is the number of leading rows used to choose column
	// encodings when the table is bulk loaded (0 = default).
	AnalyzeSample int
	// Dop is how many columns an append of a stride or more analyzes,
	// encodes and seals at once: the engine's query parallelism (0 = 1).
	Dop int
}

const defaultAnalyzeSample = 8192

// genShift positions a column's page generation in the high bits of the
// page ID's Stride field: a rebuild or TRUNCATE writes its pages under a
// fresh generation, so new and old pages coexist under distinct IDs while
// drained epochs still reference the old ones. 24 bits remain for the
// stride ordinal (~17 billion rows per table).
const genShift = 24

// column holds one column's writer-side state: the encoder, synopsis,
// current page generation and the open stride. The open stride (the tail)
// rests packed like a sealed one: a page made by page.Pack, with its own
// synopsis entry, nil while the stride holds no row. A page never changes,
// so a published epoch keeps the tail it was published with: an append
// unpacks the tail into its worker's scratch, adds its rows there and
// packs the new tail once at its end (appendColumnLocked).
type column struct {
	enc     encoding.Encoder
	syn     synopsis.Column
	gen     uint32 // current page generation (0 for never-rebuilt columns)
	tail    *page.Page
	tailSyn synopsis.Entry
}

// setTail makes codes and nulls, the rows of the open stride whose page
// would be id, the column's tail: none when they hold no row.
func (c *column) setTail(id page.ID, codes []uint64, nulls []bool) {
	if len(codes) == 0 {
		c.tail, c.tailSyn = nil, synopsis.Entry{}
		return
	}
	c.tail = page.Pack(id, codes, nulls)
	c.tailSyn = synopsis.Summarize(codes, func(i int) bool { return nulls[i] })
}

// strideOffsets is every offset of a stride in order: the selection that
// unpacks a whole page.
var strideOffsets = func() (offs [page.StrideSize]int) {
	for i := range offs {
		offs[i] = i
	}
	return offs
}()

// unpack writes the cells of pg (nil: none) from the front of codes and
// nulls, which have room for them, and returns them; a NULL cell's code is
// the page's base.
func unpack(pg *page.Page, codes []uint64, nulls []bool) ([]uint64, []bool) {
	if pg == nil {
		return codes[:0], nulls[:0]
	}
	n := pg.Rows()
	codes, _ = pg.Gather(strideOffsets[:n], codes[:0])
	laneNulls(pg.Nulls(), 0, nulls[:n])
	return codes, nulls[:n]
}

// appendScratch is one append worker's room, reused for every column and
// chunk it encodes: the open stride's codes and NULL flags as they are
// built, and a chunk of boxed values for a dictionary with no typed
// kernel.
type appendScratch struct {
	vals  [page.StrideSize]types.Value
	codes [page.StrideSize]uint64
	nulls [page.StrideSize]bool
}

// Table is a column-organized table.
type Table struct {
	id     uint32
	name   string
	schema types.Schema

	// mu serializes writers. Readers never take it: they pin an epoch.
	mu       sync.Mutex
	cols     []*column
	rows     int // total rows ever appended (including deleted)
	live     int
	deleted  *bitpack.Bitmap  // copy-on-write; shared with published epochs
	rawBytes int              // naive row-format bytes, for compression accounting
	genSeq   uint32           // allocator for page generations
	pending  []func()         // cleanups to attach to the next publish
	scratch  []*appendScratch // one for each append worker

	epochs *snapshot.Manager[*tableState]

	pool  *bufferpool.Pool
	store PageStore
	stats statCounters
	bulk  bulkCounters

	analyzeSample int
	dop           int
}

// NewTable creates an empty columnar table with the given unique id.
func NewTable(id uint32, name string, schema types.Schema, cfg Config) *Table {
	pool := cfg.Pool
	if pool == nil {
		pool = bufferpool.New(1<<30, bufferpool.NewLRU())
	}
	store := cfg.Store
	if store == nil {
		store = NewMemStore()
	}
	sample := cfg.AnalyzeSample
	if sample == 0 {
		sample = defaultAnalyzeSample
	}
	t := &Table{
		id:            id,
		name:          name,
		schema:        schema,
		pool:          pool,
		store:         store,
		deleted:       bitpack.NewBitmap(0),
		analyzeSample: sample,
		dop:           max(cfg.Dop, 1),
	}
	for range schema {
		t.cols = append(t.cols, &column{})
	}
	t.epochs = snapshot.NewManager(t.buildState())
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() types.Schema { return t.schema }

// Stats returns a snapshot of scan counters.
func (t *Table) Stats() Stats {
	return Stats{
		StridesVisited: t.stats.stridesVisited.Load(),
		StridesSkipped: t.stats.stridesSkipped.Load(),
		PagesRead:      t.stats.pagesRead.Load(),
		RowsScanned:    t.stats.rowsScanned.Load(),
		Rebuilds:       t.stats.rebuilds.Load(),
	}
}

// ResetStats zeroes scan counters between experiment phases.
func (t *Table) ResetStats() {
	t.stats.stridesVisited.Store(0)
	t.stats.stridesSkipped.Store(0)
	t.stats.pagesRead.Store(0)
	t.stats.rowsScanned.Store(0)
	t.stats.rebuilds.Store(0)
}

// sealedStrides returns how many full strides the writer has sealed.
func (t *Table) sealedStrides() int { return t.rows / page.StrideSize }

// buildState snapshots the writer state into an immutable tableState.
// Caller holds mu (or is the constructor, before the table is shared).
func (t *Table) buildState() *tableState {
	st := &tableState{
		schema:   t.schema,
		rows:     t.rows,
		live:     t.live,
		deleted:  t.deleted,
		rawBytes: t.rawBytes,
		cols:     make([]colView, len(t.cols)),
	}
	for ci, c := range t.cols {
		entries := c.syn.Entries()
		st.cols[ci] = colView{
			enc:     c.enc,
			gen:     c.gen,
			syn:     entries[:len(entries):len(entries)],
			sketch:  c.syn.SketchCopy(),
			tail:    c.tail,
			tailSyn: c.tailSyn,
		}
	}
	return st
}

// publishLocked publishes the writer state as a new epoch, attaching any
// pending resource cleanups to the epoch being superseded. Caller holds
// mu.
func (t *Table) publishLocked() {
	cleanups := t.pending
	t.pending = nil
	t.epochs.Publish(t.buildState(), cleanups...)
}

// nextGenLocked allocates a fresh page generation. Generations occupy 8
// bits of the page ID; the sequence wraps at 255, which collides only if
// pages from 255 generations ago are still awaiting drain — in practice
// rebuilds are rare (counted in Stats.Rebuilds) and epochs drain per
// statement.
func (t *Table) nextGenLocked() uint32 {
	t.genSeq++
	g := t.genSeq & 0xFF
	if g == 0 {
		t.genSeq++
		g = t.genSeq & 0xFF
	}
	return g
}

// InsertBatch appends rows: the rows→lanes adapter (LanesOf) in front of
// Append, for callers that hold rows (library loaders, tests).
func (t *Table) InsertBatch(rows []types.Row) error {
	b, err := LanesOf(t.schema, rows)
	if err == nil {
		_, err = t.Append(b)
	}
	return err
}

// Append is the table's one append: it appends the live rows of bs, in
// order, as typed lanes (Conform, before the writer lock is taken), and
// returns how many. The first write chooses every column's encoding (the
// LOAD-time "compression optimized globally per column" of §II.B.1). All
// the rows become visible in one epoch, or, when a value is refused or the
// append fails, none of them.
func (t *Table) Append(bs ...*vec.Batch) (int, error) {
	return t.append(bs, false)
}

// BulkAppend is Append for the bulk-load flush path, additionally counted
// in the table's bulk-flush statistics (MON_SNAPSHOTS). It returns the
// number of rows appended.
func (t *Table) BulkAppend(b *vec.Batch) (int, error) {
	return t.append([]*vec.Batch{b}, true)
}

func (t *Table) append(bs []*vec.Batch, bulk bool) (int, error) {
	b, err := Conform(t.schema, bs...)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	before, n := t.rawBytes, b.N
	if _, err := t.writeLocked(b, nil); err != nil {
		return 0, err
	}
	if bulk {
		t.bulk.flushes.Add(1)
		t.bulk.rows.Add(uint64(n))
		t.bulk.bytes.Add(uint64(t.rawBytes - before))
	}
	return n, nil
}

// Change is the table's one read-modify-write (UPDATE and DELETE): match
// picks the row ids to delete and the rows to add, and Change makes both
// visible in one published epoch, so a reader sees the table before the
// change or after it, never between. It holds the writer lock from match
// to publish, so match reads the latest epoch and changes to one table
// run one after another: a row one change replaced is gone before the
// next change's match runs. add's batches, whose columns match the
// schema's by position, are conformed as Append's are before anything
// changes; a refused add, an error from match or a failed append changes
// nothing. Change returns how many rows del removed.
//
// match runs under the writer lock: it may scan any table, this one's
// snapshot included, but it must not write this table (Append,
// BulkAppend, Change or Truncate would deadlock). Compile predicates and
// expressions before calling Change, so the lock covers only the match.
func (t *Table) Change(match func(*Snapshot) (del []int64, add []*vec.Batch, err error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := t.Snapshot()
	del, add, err := match(snap)
	snap.Release()
	if err != nil {
		return 0, err
	}
	b, err := Conform(t.schema, add...)
	if err != nil {
		return 0, err
	}
	return t.writeLocked(b, del)
}

// writeLocked appends b, tombstones del and publishes both as one epoch,
// returning how many rows del removed. A failed append publishes nothing
// and puts back the writer state (a dictionary keeps the values it added,
// which no row holds). Caller holds mu.
func (t *Table) writeLocked(b *vec.Batch, del []int64) (int, error) {
	rows, live, raw, deleted, pending := t.rows, t.live, t.rawBytes, t.deleted, len(t.pending)
	cols := make([]column, len(t.cols))
	for ci, c := range t.cols {
		cols[ci] = *c
	}
	if err := t.appendLocked(b); err != nil {
		t.rows, t.live, t.rawBytes, t.deleted, t.pending = rows, live, raw, deleted, t.pending[:pending]
		for ci, c := range t.cols {
			*c = cols[ci]
		}
		return 0, err
	}
	gone := t.tombstoneLocked(del)
	t.publishLocked()
	return gone, nil
}

// tombstoneLocked sets tombstones for the given row ids on a private copy
// of the bitmap (copy-on-write: published epochs keep the old bitmap) and
// returns how many were live. Caller holds mu and publishes after.
func (t *Table) tombstoneLocked(rids []int64) int {
	if len(rids) == 0 {
		return 0
	}
	nb := t.deleted.Clone()
	n := 0
	for _, rid := range rids {
		if rid < 0 || int(rid) >= t.rows {
			continue
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

// Conform is the live rows of bs, in order, as one batch of schema's typed
// lanes, or the first refused value's error. A lone batch with no
// selection lends its lanes of their columns' kinds; any other column is
// copied into a new lane: a lane, a constant or codes of the column's kind
// by a typed loop (codes through their dictionary snapshot), anything else
// a value at a time through Schema.Check. NOT NULL is
// checked on every lane.
func Conform(schema types.Schema, bs ...*vec.Batch) (*vec.Batch, error) {
	var live []*vec.Batch
	n := 0
	for _, b := range bs {
		if b.Rows() == 0 {
			continue
		}
		if err := schema.CheckWidth(b.NumCols()); err != nil {
			return nil, err
		}
		live, n = append(live, b), n+b.Rows()
	}
	if n == 0 {
		return vec.NewBatch(schema, nil, 0), nil
	}
	lanes := make([]*vec.Vector, len(schema))
	for j, col := range schema {
		if b := live[0]; len(live) == 1 && b.Sel == nil && isLane(b.Col(j), col.Kind, b.N) {
			lanes[j] = b.Col(j)
		} else {
			lanes[j] = vec.New(col.Kind, n)
			at := 0
			for _, b := range live {
				v, idx := b.Col(j), b.Idx()
				if v.Kind == col.Kind && v.Any == nil { // a lane or codes: no value to check
					copyLane(lanes[j], v, idx, at)
					at += len(idx)
					continue
				}
				for _, i := range idx {
					x, err := schema.Check(j, v.Get(i))
					if err != nil {
						return nil, err
					}
					lanes[j].Set(at, x)
					at++
				}
			}
		}
		if v := lanes[j]; !col.Nullable && v.Nulls != nil && v.Nulls.Any() {
			_, err := schema.Check(j, types.Null)
			return nil, err
		}
	}
	return vec.NewBatch(schema, lanes, n), nil
}

// copyLane copies positions idx of v, a typed lane, constant or code
// vector of dst's kind, to dst from row at: a payload a slice at a time,
// codes through the dictionary snapshot the vector holds, a NULL as a zero
// payload and its bit, as Vector.Set leaves one.
func copyLane(dst, v *vec.Vector, idx []int, at int) {
	switch {
	case v.Encoded():
		dom := v.Dom()
		for r, i := range idx {
			if v.Nulls == nil || !v.Nulls.Get(i) {
				dst.Set(at+r, dom[v.Codes[i]])
			}
		}
	case dst.I64 != nil:
		copyPayload(dst.I64[at:], v.I64, v, idx)
	case dst.F64 != nil:
		copyPayload(dst.F64[at:], v.F64, v, idx)
	case dst.Str != nil:
		copyPayload(dst.Str[at:], v.Str, v, idx)
	}
	if v.Nulls != nil {
		for r, i := range idx {
			if v.Nulls.Get(v.Ix(i)) {
				dst.SetNull(at + r)
			}
		}
	}
}

// copyPayload sets dst[r] to src at position idx[r] of v, or to zero where
// that position is NULL.
func copyPayload[T any](dst, src []T, v *vec.Vector, idx []int) {
	var zero T
	for r, i := range idx {
		if i = v.Ix(i); v.Nulls != nil && v.Nulls.Get(i) {
			dst[r] = zero
		} else {
			dst[r] = src[i]
		}
	}
}

// isLane reports whether v is a plain typed lane of kind holding n rows.
func isLane(v *vec.Vector, kind types.Kind, n int) bool {
	return v.Kind == kind && !v.Const && !v.Encoded() && v.Any == nil && v.Len() == n
}

// appendLocked appends the rows of b, a batch of conformed lanes, a
// column at a time. Columns without an encoder get one analyzed from
// their lanes; then every column's encoder is fitted to its whole lane,
// serially (the only domain work that can fail, and a rebuild takes a
// page generation and queues page deletes, which the columns share; it
// runs before any column is encoded, so columns never go out of step).
// Each lane is then encoded onto its column, as many rows per step as the
// open stride has room for, sealing every stride it fills. Analysis and
// encoding touch one column each, so eachColumnLocked spreads them over
// the table's dop. Caller holds mu; writeLocked publishes after.
func (t *Table) appendLocked(b *vec.Batch) error {
	n := b.N
	if n == 0 {
		return nil
	}
	if slices.ContainsFunc(t.cols, func(c *column) bool { return c.enc == nil }) {
		if err := t.eachColumnLocked(n, func(ci int, _ *appendScratch) error {
			t.analyzeLocked(ci, b.Col(ci), n)
			return nil
		}); err != nil {
			return err
		}
	}
	for ci := range t.cols {
		if err := t.fitDomainLocked(ci, b.Col(ci)); err != nil {
			return err
		}
	}
	t.growDeletedLocked(t.rows + n)
	raw := make([]int, len(t.cols))
	err := t.eachColumnLocked(n, func(ci int, w *appendScratch) error {
		raw[ci] = laneRawBytes(b.Col(ci))
		return t.appendColumnLocked(ci, b.Col(ci), n, w)
	})
	for _, r := range raw {
		t.rawBytes += r
	}
	t.rows += n
	t.live += n
	return err
}

// eachColumnLocked runs fn once for every column and returns the error of
// the lowest column that failed. An append of n rows shorter than a
// stride, or a table at dop 1, runs on the caller's goroutine; otherwise
// min(dop, columns) workers take columns in turn. fn gets its worker's own
// scratch, and must touch no state but its column's. Caller holds mu.
func (t *Table) eachColumnLocked(n int, fn func(ci int, w *appendScratch) error) error {
	workers := min(t.dop, len(t.cols))
	if n < page.StrideSize {
		workers = 1
	}
	for len(t.scratch) < workers {
		t.scratch = append(t.scratch, new(appendScratch))
	}
	if workers == 1 {
		for ci := range t.cols {
			if err := fn(ci, t.scratch[0]); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(t.cols))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := int(next.Add(1)) - 1; ci < len(t.cols); ci = int(next.Add(1)) - 1 {
				errs[ci] = fn(ci, t.scratch[w])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// appendColumnLocked encodes the n rows of the lane v onto column ci from
// the table's row count on: the tail is unpacked into w, the lane is
// encoded after it a stride chunk at a time, and each stride it fills is
// sealed (its page written and its synopsis entry recorded). What stays
// open is packed into the column's new tail once, at the end. Caller holds
// mu; t.rows advances after every column is done.
func (t *Table) appendColumnLocked(ci int, v *vec.Vector, n int, w *appendScratch) error {
	c, s := t.cols[ci], t.sealedStrides()
	codes, nulls := unpack(c.tail, w.codes[:], w.nulls[:])
	for off := 0; off < n; {
		k := min(page.StrideSize-len(codes), n-off)
		codes, nulls = c.appendLane(v, off, k, codes, nulls, w.vals[:k])
		if off += k; len(codes) < page.StrideSize {
			break
		}
		if err := t.writeStrideLocked(ci, s, codes, nulls); err != nil {
			return err
		}
		codes, nulls, s = codes[:0], nulls[:0], s+1
	}
	c.setTail(t.pageID(ci, s), codes, nulls)
	return nil
}

// analyzeLocked chooses an encoder for column ci, when it has none, from
// the n rows of the lane v about to be loaded. A dictionary is built from
// a leading sample of the lane; a frame of reference spans the whole lane,
// because its extremes, found in one pass, join the sample. The sample is
// read as the lane's typed payload: only a dictionary's distinct values
// are boxed.
func (t *Table) analyzeLocked(ci int, v *vec.Vector, n int) {
	c, kind := t.cols[ci], t.schema[ci].Kind
	if c.enc != nil {
		return
	}
	m := min(n, t.analyzeSample)
	var s encoding.Sample
	switch kind {
	case types.KindFloat:
		lo, hi := floatSpan(v.F64, v.Nulls)
		s.F64 = present(v.F64[:m], v.Nulls)
		if lo <= hi {
			s.F64 = append(s.F64, lo, hi)
		}
	case types.KindString:
		s.Str = present(v.Str[:m], v.Nulls)
	default:
		s.I64 = present(v.I64[:m], v.Nulls)
		if lo, hi := intSpan(v.I64, v.Nulls); lo <= hi && kind != types.KindBool {
			s.I64 = append(s.I64, lo, hi)
		}
	}
	c.enc = encoding.ChooseEncoderOf(kind, s)
}

// present returns the values of vals that nulls (nil: none) does not set,
// in a new slice with room for two more.
func present[T any](vals []T, nulls *bitpack.Bitmap) []T {
	out := make([]T, 0, len(vals)+2)
	for i, x := range vals {
		if nulls == nil || !nulls.Get(i) {
			out = append(out, x)
		}
	}
	return out
}

// extremes returns the smallest and largest non-NULL values of the lane v
// when its kind can take a frame of reference.
func extremes(v *vec.Vector, kind types.Kind) (lo, hi types.Value, ok bool) {
	var mk func(int64) types.Value
	switch kind {
	case types.KindFloat:
		l, h := floatSpan(v.F64, v.Nulls)
		return types.NewFloat(l), types.NewFloat(h), l <= h
	case types.KindInt:
		mk = types.NewInt
	case types.KindDate:
		mk = types.NewDate
	case types.KindTimestamp:
		mk = types.NewTimestamp
	default:
		return lo, hi, false
	}
	l, h := intSpan(v.I64, v.Nulls)
	return mk(l), mk(h), l <= h
}

// ensureEncodersLocked gives un-analyzed columns growable dictionaries, so
// a table saved before its first load still persists an encoder per column.
func (t *Table) ensureEncodersLocked() {
	for ci, c := range t.cols {
		if c.enc == nil {
			c.enc = encoding.NewDict(t.schema[ci].Kind)
		}
	}
}

// fitDomainLocked makes column ci's encoder able to encode every value of
// the lane v. A dictionary takes any value. A frame of reference that the
// values overflow only upward is extended in place: same base, so
// existing codes, pages, synopsis entries and the page generation stay
// valid. Anything else — a value below the base, a float not exact at the
// column's scale, a span past 32 bits — rebuilds the column, once for the
// whole batch.
func (t *Table) fitDomainLocked(ci int, v *vec.Vector) error {
	c := t.cols[ci]
	switch e := c.enc.(type) {
	case *encoding.IntFOR:
		if ext, ok := e.Extend(intSpan(v.I64, v.Nulls)); ok {
			c.enc = ext
			return nil
		}
	case *encoding.FloatFOR:
		if lo, hi, exact := scaledSpan(e, v.F64, v.Nulls); exact {
			if ext, ok := e.Extend(lo, hi); ok {
				c.enc = ext
				return nil
			}
		}
	case *encoding.Dict:
		// Chosen while the column held only NULLs: choose again once
		// values a frame of reference could take arrive.
		if e.Cardinality() > 0 {
			return nil
		}
		if _, _, ok := extremes(v, t.schema[ci].Kind); !ok {
			return nil
		}
	default:
		return nil
	}
	return t.rebuildColumnLocked(ci, v)
}

// intSpan returns the smallest and largest of vals, the slots set in nulls
// (nil: none) skipped; lo > hi when every value is NULL.
//
//dashdb:hotpath
func intSpan(vals []int64, nulls *bitpack.Bitmap) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for i, x := range vals {
		if nulls == nil || !nulls.Get(i) {
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	return lo, hi
}

// floatSpan is intSpan over a DOUBLE lane; a NaN makes both ends NaN.
//
//dashdb:hotpath
func floatSpan(vals []float64, nulls *bitpack.Bitmap) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, f := range vals {
		if nulls == nil || !nulls.Get(i) {
			lo, hi = min(lo, f), max(hi, f)
		}
	}
	return lo, hi
}

// scaledSpan is intSpan over e's fixed-point values; exact is false when
// some value is not exact at e's scale.
//
//dashdb:hotpath
func scaledSpan(e *encoding.FloatFOR, vals []float64, nulls *bitpack.Bitmap) (lo, hi int64, exact bool) {
	lo, hi = math.MaxInt64, math.MinInt64
	for i, f := range vals {
		if nulls != nil && nulls.Get(i) {
			continue
		}
		s, ok := e.Scaled(f)
		if !ok {
			return lo, hi, false
		}
		lo, hi = min(lo, s), max(hi, s)
	}
	return lo, hi, true
}

// laneRawBytes is the lane's size in the naive row format the compression
// ratio counts: 8 bytes a number or NULL, 4 plus its length a string.
//
//dashdb:hotpath
func laneRawBytes(v *vec.Vector) int {
	if v.Str == nil {
		return 8 * v.Len()
	}
	sz := 0
	for i, s := range v.Str {
		if v.Nulls != nil && v.Nulls.Get(i) {
			sz += 8
		} else {
			sz += 4 + len(s)
		}
	}
	return sz
}

// appendLane encodes rows [off, off+k) of the lane v after the open
// stride's codes and NULL flags, which have room for them, and returns
// both; only the codes and NULL flags are kept. A frame of reference
// encodes the typed lane itself, and so does a string dictionary; any
// other dictionary takes the values boxed into vals, k of them. Each takes
// one lock for the run.
func (c *column) appendLane(v *vec.Vector, off, k int, codes []uint64, nulls []bool, vals []types.Value) ([]uint64, []bool) {
	n, m := len(codes), len(codes)+k
	codes, nulls = codes[:m], nulls[:m]
	cs, ns := codes[n:], nulls[n:]
	laneNulls(v.Nulls, off, ns)
	switch e := c.enc.(type) {
	case *encoding.IntFOR:
		e.EncodeInts(v.I64[off:off+k], ns, cs)
	case *encoding.FloatFOR:
		e.EncodeFloats(v.F64[off:off+k], ns, cs)
	default:
		if d, ok := e.(*encoding.Dict); ok && v.Str != nil {
			d.EncodeStrings(v.Str[off:off+k], ns, cs)
			break
		}
		for i := range vals {
			vals[i] = v.Get(off + i)
		}
		c.enc.EncodeAll(vals, cs)
	}
	return codes, nulls
}

// laneNulls sets nulls[i] to bit off+i of the lane's NULL bitmap (nil:
// none).
//
//dashdb:hotpath
func laneNulls(bm *bitpack.Bitmap, off int, nulls []bool) {
	for i := range nulls {
		nulls[i] = bm != nil && bm.Get(off+i)
	}
}

// growDeletedLocked extends the tombstone bitmap to cover n rows. The
// grown bitmap is a fresh copy, so published epochs keep their shorter
// view untouched.
func (t *Table) growDeletedLocked(n int) {
	if t.deleted.Len() < n {
		nb := bitpack.NewBitmap(((n / page.StrideSize) + 1) * page.StrideSize)
		t.deleted.ForEach(func(i int) { nb.Set(i) })
		t.deleted = nb
	}
}

// writeStrideLocked packs column ci's codes for stride s into a page
// (seal-time repack: the page packs each code's offset from the stride's
// smallest code at the narrowest width that fits them, so strides of hot
// or clustered values pack at very narrow widths), writes it under the
// column's current generation and records the stride's synopsis entry. A
// NULL's code is 0.
func (t *Table) writeStrideLocked(ci, s int, codes []uint64, nulls []bool) error {
	c := t.cols[ci]
	pg := page.Pack(t.pageID(ci, s), codes, nulls)
	isNull := func(i int) bool { return nulls[i] }
	c.syn.Set(s, synopsis.Summarize(codes, isNull))
	c.syn.Observe(codes, isNull)
	if err := t.store.WritePage(pg.ID, pg.Marshal()); err != nil {
		return fmt.Errorf("columnar: seal %v: %w", pg.ID, err)
	}
	return nil
}

// pageIDFor composes a page ID from a column's generation and stride
// ordinal.
func pageIDFor(table uint32, ci int, gen uint32, stride int) page.ID {
	return page.ID{Table: table, Column: uint16(ci), Stride: gen<<genShift | uint32(stride)}
}

// pageID returns the ID for column ci's stride under its current
// generation. Caller holds mu.
func (t *Table) pageID(ci, stride int) page.ID {
	return pageIDFor(t.id, ci, t.cols[ci].gen, stride)
}

// pageOf returns column ci's page for stride s of st: the tail of an open
// stride, which is st's own and never in the buffer pool (the page the
// stride seals to takes its ID), or a sealed page through the pool.
func (t *Table) pageOf(st *tableState, ci, s int) (*page.Page, error) {
	c := &st.cols[ci]
	if s == st.sealedStrides() {
		return c.tail, nil
	}
	return t.loadPageGen(ci, c.gen, s)
}

// loadPageGen fetches a sealed page of a specific generation through the
// buffer pool. Generation-qualified IDs are what let pinned epochs keep
// reading superseded pages while the writer rebuilds under a new
// generation. A scan calls it once per column per stride (the batch keeps
// the page), so the pool's locks and its error on a failed read are paid
// per page, off the per-row loops of the kernels that reach it.
//
//dashdb:coldpath runs once per column per stride, through the buffer pool's lookup and miss path
func (t *Table) loadPageGen(ci int, gen uint32, stride int) (*page.Page, error) {
	id := pageIDFor(t.id, ci, gen, stride)
	return t.pool.Get(id, func(id page.ID) (*page.Page, error) {
		data, err := t.store.ReadPage(id)
		if err != nil {
			return nil, err
		}
		return page.Unmarshal(data)
	})
}

// rebuildColumnLocked re-encodes column ci when the lane v holds values
// its frame of reference cannot take by extension. The new encoder is
// chosen over every value of the column plus the lane's, so one rebuild
// covers the whole batch. Sealed strides are rewritten under a fresh generation; the
// old generation's pages are reclaimed once every epoch that references
// them has drained. Counted in Stats.Rebuilds.
func (t *Table) rebuildColumnLocked(ci int, v *vec.Vector) error {
	t.stats.rebuilds.Add(1)
	c := t.cols[ci]
	kind := t.schema[ci].Kind
	oldGen := c.gen
	// Every value of the column, sealed strides then the tail, decoded
	// through the encoder being replaced; tombstoned rows are included
	// (codes must stay positionally aligned).
	sealed := t.sealedStrides()
	vals := make([]types.Value, 0, t.rows+v.Len())
	for s := 0; s*page.StrideSize < t.rows; s++ {
		pg := c.tail
		if s < sealed {
			var err error
			if pg, err = t.loadPageGen(ci, oldGen, s); err != nil {
				return err
			}
		}
		for i := 0; i < pg.Rows(); i++ {
			code, null := pg.Get(i)
			vals = appendDecoded(vals, c.enc, kind, code, null)
		}
	}
	sample := vals
	for i := 0; i < v.Len(); i++ {
		sample = append(sample, v.Get(i))
	}
	c.enc = encoding.ChooseEncoder(kind, sample)
	// Fresh synopsis: resetting in place would tear the entry slices
	// published epochs hold.
	c.syn = synopsis.Column{}
	c.gen = t.nextGenLocked()

	codes := make([]uint64, page.StrideSize)
	nulls := make([]bool, page.StrideSize)
	for s := 0; s*page.StrideSize < t.rows; s++ {
		run := vals[s*page.StrideSize : min((s+1)*page.StrideSize, t.rows)]
		cs, ns := codes[:len(run)], nulls[:len(run)]
		for i, v := range run {
			ns[i] = v.IsNull()
		}
		c.enc.EncodeAll(run, cs)
		if s == sealed {
			c.setTail(t.pageID(ci, s), cs, ns)
		} else if err := t.writeStrideLocked(ci, s, cs, ns); err != nil {
			return err
		}
	}
	t.deferPageDelete(ci, oldGen, sealed)
	return nil
}

// appendDecoded appends the value of code under enc to vals, or a NULL of
// kind.
func appendDecoded(vals []types.Value, enc encoding.Encoder, kind types.Kind, code uint64, null bool) []types.Value {
	if null {
		return append(vals, types.NullOf(kind))
	}
	return append(vals, enc.Decode(code))
}

// deferPageDelete queues deletion of one column generation's sealed pages
// for the next publish; the cleanup runs after all older epochs drain.
func (t *Table) deferPageDelete(ci int, gen uint32, strides int) {
	if strides == 0 {
		return
	}
	table, store, pool := t.id, t.store, t.pool
	t.pending = append(t.pending, func() {
		for s := 0; s < strides; s++ {
			id := pageIDFor(table, ci, gen, s)
			pool.Evict(id)
			if err := store.DeletePage(id); err != nil {
				return // best effort: orphaned pages cost space, not correctness
			}
		}
	})
}

// Truncate removes all rows, publishing an emptied epoch. In-flight
// readers drain on the prior epoch — its pages are deleted only after the
// last of them releases its pin.
func (t *Table) Truncate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sealed := t.sealedStrides()
	for ci, c := range t.cols {
		t.deferPageDelete(ci, c.gen, sealed)
		*c = column{gen: t.nextGenLocked()}
	}
	t.rows, t.live = 0, 0
	t.rawBytes = 0
	t.deleted = bitpack.NewBitmap(0)
	t.publishLocked()
	return nil
}

// Drop releases the table's storage. The table id is never reused, so the
// deferred cleanup can wipe every page under the id wholesale.
func (t *Table) Drop() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.cols {
		*c = column{}
	}
	t.rows, t.live = 0, 0
	t.rawBytes = 0
	t.deleted = bitpack.NewBitmap(0)
	table, store, pool := t.id, t.store, t.pool
	t.pending = append(t.pending, func() {
		pool.Invalidate(table)
		_ = store.DeletePages(table) //dashdb:nolint droppederr epoch-drain cleanup has no caller to surface to; leaked pages are re-deleted on the next Drop
	})
	t.publishLocked()
	return nil
}

// ColumnCompression is one column's entry in the compression report,
// surfaced by the MON_COMPRESSION monitoring view.
type ColumnCompression struct {
	Name        string
	Encoding    string // encoder kind, "" before analysis
	Cardinality int    // distinct codes (dictionary encoders only)
	WidthBits   uint   // bits per code for the current domain
	DictBytes   int    // encoder auxiliary storage
}

// ColumnCompressionReport returns per-column encoder statistics for the
// current epoch.
func (t *Table) ColumnCompressionReport() []ColumnCompression {
	st := t.epochs.Current().State()
	out := make([]ColumnCompression, len(st.cols))
	for ci := range st.cols {
		c := &st.cols[ci]
		cc := ColumnCompression{Name: t.schema[ci].Name}
		if c.enc != nil {
			cc.Encoding = c.enc.Kind().String()
			cc.DictBytes = c.enc.MemSize()
			if d, ok := c.enc.(*encoding.Dict); ok {
				cc.Cardinality = d.Cardinality()
				cc.WidthBits = d.Width()
			} else if w, ok := c.enc.(interface{ Width() uint }); ok {
				cc.WidthBits = w.Width()
			}
		}
		out[ci] = cc
	}
	return out
}

// CompressionReport describes the table's storage efficiency (experiment
// F-B): compressed bytes include pages, dictionaries and the synopsis.
type CompressionReport struct {
	RawBytes        int
	PageBytes       int
	DictBytes       int
	SynopsisBytes   int
	CompressedBytes int
	Ratio           float64
	Columns         []ColumnPages // per column, in schema order
}

// ColumnPages is one column's share of a compression report: the bytes of
// its pages, the sealed ones and the tail, which sum over the columns to
// PageBytes, the exceptions its pages patch, and how many of those pages
// are line pages (page.Page.Sorted).
type ColumnPages struct {
	PageBytes    int
	PatchedCodes int
	SortedPages  int
}

// Compression computes the table's compression report over a pinned
// snapshot.
func (t *Table) Compression() CompressionReport {
	snap := t.Snapshot()
	defer snap.Release()
	st := snap.state()
	var r CompressionReport
	r.RawBytes = st.rawBytes
	r.Columns = make([]ColumnPages, len(st.cols))
	for ci := range st.cols {
		c, cp := &st.cols[ci], &r.Columns[ci]
		for s := 0; s < st.strides(); s++ {
			if pg, err := t.pageOf(st, ci, s); err == nil {
				cp.PageBytes += pg.MemSize()
				cp.PatchedCodes += pg.Patched()
				if pg.Sorted() {
					cp.SortedPages++
				}
			}
		}
		r.PageBytes += cp.PageBytes
		if c.enc != nil {
			r.DictBytes += c.enc.MemSize()
		}
		entries := len(c.syn)
		if c.tail != nil {
			entries++
		}
		r.SynopsisBytes += entries*24 + 24 + 64 // entries + header + sketch
	}
	r.CompressedBytes = r.PageBytes + r.DictBytes + r.SynopsisBytes
	if r.CompressedBytes > 0 {
		r.Ratio = float64(r.RawBytes) / float64(r.CompressedBytes)
	}
	return r
}
