// Package columnar implements the column-organized table of the BLU-style
// engine: the paper's seven architectural techniques meet here. Values are
// reduced to codes by the encoding layer (§II.B.1–2), stored column-wise
// in bit-packed pages of 1,024-tuple strides (§II.B.3), summarized by a
// per-stride synopsis for data skipping (§II.B.4), cached by the buffer
// pool (§II.B.5), and scanned with word-parallel SWAR predicate kernels
// (§II.B.6) a stride at a time (§II.B.7).
//
// Concurrency model (DESIGN.md §13): the table is split into a
// writer-private build side and immutable published epochs. All mutation
// runs under the writer mutex, accumulates in private buffers, and ends by
// publishing a fresh immutable tableState through an epoch manager —
// one atomic pointer swap. Readers pin an epoch and scan it without any
// lock on the table: sealed pages are immutable, the open tail is
// copy-on-seal (published epochs hold capacity-clamped views the writer
// never writes into), tombstones are copy-on-write, and page reclamation
// after TRUNCATE or an encoder rebuild is deferred until every epoch that
// could reach the old pages has drained.
package columnar

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dashdb/internal/bitpack"
	"dashdb/internal/bufferpool"
	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/snapshot"
	"dashdb/internal/synopsis"
	"dashdb/internal/types"
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
}

const defaultAnalyzeSample = 8192

// genShift positions a column's page generation in the high bits of the
// page ID's Stride field: a rebuild or TRUNCATE writes its pages under a
// fresh generation, so new and old pages coexist under distinct IDs while
// drained epochs still reference the old ones. 24 bits remain for the
// stride ordinal (~17 billion rows per table).
const genShift = 24

// column holds one column's writer-side state: the encoder, synopsis,
// current page generation and the open stride. The open stride is what a
// seal packs, not yet bit-packed: one code per row (0 for a NULL) and the
// rows' NULL flags; no value is kept beside its code. The open buffers
// are copy-on-seal: they always have exactly page.StrideSize capacity, the
// writer appends in place (published epochs hold length-and-capacity
// clamped views below every index the writer touches), and sealing
// allocates fresh buffers so drained epochs keep the old backing arrays.
type column struct {
	enc       encoding.Encoder
	syn       synopsis.Column
	gen       uint32 // current page generation (0 for never-rebuilt columns)
	openCodes []uint64
	openNulls []bool
}

// newOpenBuffers gives c fresh open-stride arrays so previously published
// epochs keep the old backing.
func (c *column) newOpenBuffers() {
	c.openCodes = make([]uint64, 0, page.StrideSize)
	c.openNulls = make([]bool, 0, page.StrideSize)
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
	deleted  *bitpack.Bitmap // copy-on-write; shared with published epochs
	rawBytes int             // naive row-format bytes, for compression accounting
	genSeq   uint32          // allocator for page generations
	pending  []func()        // cleanups to attach to the next publish
	// scratch holds one column of the chunk being appended while it is
	// encoded; it is reused for every column and chunk.
	scratch []types.Value

	epochs *snapshot.Manager[*tableState]

	pool  *bufferpool.Pool
	store PageStore
	stats statCounters
	bulk  bulkCounters

	analyzeSample int
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
	}
	for range schema {
		c := &column{}
		c.newOpenBuffers()
		t.cols = append(t.cols, c)
	}
	t.epochs = snapshot.NewManager(t.buildState())
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() types.Schema { return t.schema }

// Rows returns the number of live rows in the current epoch. It takes no
// lock: the epoch state is immutable, so a racing writer can only make
// the answer momentarily stale, never torn.
func (t *Table) Rows() int {
	return t.epochs.Current().State().live
}

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

// openLen returns how many rows sit in the writer's open stride.
func (t *Table) openLen() int { return t.rows % page.StrideSize }

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
		n := len(c.openCodes)
		st.cols[ci] = colView{
			enc:       c.enc,
			gen:       c.gen,
			syn:       entries[:len(entries):len(entries)],
			sketch:    c.syn.SketchCopy(),
			openCodes: c.openCodes[:n:n],
			openNulls: c.openNulls[:n:n],
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

// InsertBatch bulk-loads rows; the first batch triggers encoding analysis
// (the LOAD-time "compression optimized globally per column" of §II.B.1).
// The whole batch becomes visible in one epoch: concurrent readers observe
// either none of it or all of it.
func (t *Table) InsertBatch(rows []types.Row) error {
	checked, err := t.validateAll(rows)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.publishLocked()
	return t.appendRowsLocked(checked)
}

// BulkAppend is the bulk-load flush path: semantically InsertBatch, but
// additionally counted in the table's bulk-flush statistics
// (MON_SNAPSHOTS). It returns the number of rows appended.
func (t *Table) BulkAppend(rows []types.Row) (int, error) {
	checked, err := t.validateAll(rows)
	if err != nil {
		return 0, err
	}
	return t.BulkAppendValidated(checked)
}

// BulkAppendValidated is BulkAppend for rows that already are the output
// of Schema().Validate: a dashdb.Bulk loader validates and copies each row
// at its Add, so its flush stores those rows as they are instead of
// validating and copying every one a second time.
func (t *Table) BulkAppendValidated(rows []types.Row) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.publishLocked()
	before := t.rawBytes
	if err := t.appendRowsLocked(rows); err != nil {
		return 0, err
	}
	t.bulk.flushes.Add(1)
	t.bulk.rows.Add(uint64(len(rows)))
	t.bulk.bytes.Add(uint64(t.rawBytes - before))
	return len(rows), nil
}

// validateAll schema-checks every row up front, so a batch that fails
// validation mutates nothing.
func (t *Table) validateAll(rows []types.Row) ([]types.Row, error) {
	checked := make([]types.Row, len(rows))
	for i, r := range rows {
		c, err := t.schema.Validate(r)
		if err != nil {
			return nil, err
		}
		checked[i] = c
	}
	return checked, nil
}

// appendRowsLocked appends validated rows. Columns without an encoder get
// one analyzed from the batch; then every column's encoder is fitted to
// the whole batch (the only domain work that can fail, and it runs before
// any column is touched, so columns never go out of step). The rows are
// then encoded a column at a time, as many per step as the open stride
// has room for. Caller holds mu and publishes after.
func (t *Table) appendRowsLocked(rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	t.analyzeLocked(rows)
	for ci := range t.cols {
		if err := t.fitDomainLocked(ci, rows); err != nil {
			return err
		}
	}
	t.growDeletedLocked(t.rows + len(rows))
	if t.scratch == nil {
		t.scratch = make([]types.Value, page.StrideSize)
	}
	for len(rows) > 0 {
		chunk := rows[:min(page.StrideSize-t.openLen(), len(rows))]
		for ci, c := range t.cols {
			t.rawBytes += c.appendOpen(chunk, ci, t.scratch)
		}
		t.rows += len(chunk)
		t.live += len(chunk)
		if t.openLen() == 0 { // stride just filled
			if err := t.sealStrideLocked(t.sealedStrides() - 1); err != nil {
				return err
			}
		}
		rows = rows[len(chunk):]
	}
	return nil
}

// analyzeLocked chooses an encoder for every column that has none from
// the batch about to be loaded. A dictionary is built from a leading
// sample; a frame of reference spans the whole batch, because the batch's
// extremes, found in one pass, join the sample.
func (t *Table) analyzeLocked(rows []types.Row) {
	n := min(len(rows), t.analyzeSample)
	for ci, c := range t.cols {
		if c.enc != nil {
			continue
		}
		kind := t.schema[ci].Kind
		sample := make([]types.Value, n, n+2)
		for i, r := range rows[:n] {
			sample[i] = r[ci]
		}
		if lo, hi, ok := extremes(rows, ci, kind); ok {
			sample = append(sample, lo, hi)
		}
		c.enc = encoding.ChooseEncoder(kind, sample)
	}
}

// extremes returns the smallest and largest non-NULL values of column ci
// in rows when its kind can take a frame of reference.
func extremes(rows []types.Row, ci int, kind types.Kind) (lo, hi types.Value, ok bool) {
	var mk func(int64) types.Value
	switch kind {
	case types.KindFloat:
		l, h := floatSpan(rows, ci)
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
	l, h := intSpan(rows, ci)
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
// column ci in rows. A dictionary takes any value. A frame of reference
// that the values overflow only upward is extended in place: same base,
// so existing codes, pages, synopsis entries and the page generation stay
// valid. Anything else — a value below the base, a float not exact at the
// column's scale, a span past 32 bits — rebuilds the column, once for the
// whole batch.
func (t *Table) fitDomainLocked(ci int, rows []types.Row) error {
	c := t.cols[ci]
	switch e := c.enc.(type) {
	case *encoding.IntFOR:
		if ext, ok := e.Extend(intSpan(rows, ci)); ok {
			c.enc = ext
			return nil
		}
	case *encoding.FloatFOR:
		if lo, hi, exact := scaledSpan(e, rows, ci); exact {
			if ext, ok := e.Extend(lo, hi); ok {
				c.enc = ext
				return nil
			}
		}
	default:
		return nil
	}
	return t.rebuildColumnLocked(ci, rows)
}

// intSpan returns the smallest and largest raw value of column ci in rows,
// NULLs skipped; lo > hi when every value is NULL.
//
//dashdb:hotpath
func intSpan(rows []types.Row, ci int) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, r := range rows {
		if v := r[ci]; !v.IsNull() {
			lo, hi = min(lo, v.Int()), max(hi, v.Int())
		}
	}
	return lo, hi
}

// floatSpan is intSpan over a DOUBLE column; a NaN makes both ends NaN.
//
//dashdb:hotpath
func floatSpan(rows []types.Row, ci int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		if v := r[ci]; !v.IsNull() {
			lo, hi = min(lo, v.Float()), max(hi, v.Float())
		}
	}
	return lo, hi
}

// scaledSpan is intSpan over e's fixed-point values; exact is false when
// some value is not exact at e's scale.
//
//dashdb:hotpath
func scaledSpan(e *encoding.FloatFOR, rows []types.Row, ci int) (lo, hi int64, exact bool) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, r := range rows {
		v := r[ci]
		if v.IsNull() {
			continue
		}
		s, ok := e.Scaled(v.Float())
		if !ok {
			return lo, hi, false
		}
		lo, hi = min(lo, s), max(hi, s)
	}
	return lo, hi, true
}

// appendOpen encodes column ci of rows, which fit in the open stride,
// onto the open buffers — one gather loop into scratch and one encode
// loop (a dictionary locks once for the run) — and returns the values'
// raw bytes. Only the codes and NULL flags are kept. The buffers'
// capacity is exactly StrideSize, so the writes land past every published
// epoch's clamped view and never reallocate mid-stride.
func (c *column) appendOpen(rows []types.Row, ci int, scratch []types.Value) int {
	n, m := len(c.openCodes), len(c.openCodes)+len(rows)
	c.openCodes, c.openNulls = c.openCodes[:m], c.openNulls[:m]
	vals := scratch[:len(rows)]
	gatherColumn(rows, ci, vals, c.openNulls[n:])
	c.enc.EncodeAll(vals, c.openCodes[n:])
	return encoding.EstimateRawBytes(vals)
}

// gatherColumn copies column ci of rows into vals and its NULL flags into
// nulls.
//
//dashdb:hotpath
func gatherColumn(rows []types.Row, ci int, vals []types.Value, nulls []bool) {
	vals, nulls = vals[:len(rows)], nulls[:len(rows)]
	for i, r := range rows {
		v := r[ci]
		vals[i] = v
		nulls[i] = v.IsNull()
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

// sealStrideLocked packs every column's open buffers for stride s into
// pages, writes them to the store, records the synopsis entries, and
// hands each column fresh open buffers (published epochs keep the sealed
// buffers' backing arrays).
func (t *Table) sealStrideLocked(s int) error {
	for ci, c := range t.cols {
		if err := t.writeStrideLocked(ci, s, c.openCodes, c.openNulls); err != nil {
			return err
		}
		c.newOpenBuffers()
	}
	return nil
}

// writeStrideLocked packs column ci's codes for stride s into a page at
// the narrowest width that fits them (seal-time repack: this is where
// frequency encoding pays — strides of hot values pack at very narrow
// widths), writes it under the column's current generation and records
// the stride's synopsis entry. A NULL's code is 0.
func (t *Table) writeStrideLocked(ci, s int, codes []uint64, nulls []bool) error {
	c := t.cols[ci]
	maxCode := uint64(0)
	for _, code := range codes {
		maxCode = max(maxCode, code)
	}
	pg := page.New(t.pageID(ci, s), bitpack.WidthFor(maxCode))
	pg.Codes.AppendAll(codes)
	for i, null := range nulls {
		if null {
			pg.Nulls.Set(i)
		}
	}
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

// rebuildColumnLocked re-encodes column ci when rows hold values its frame
// of reference cannot take by extension. The new encoder is chosen over
// every value of the column plus the batch's, so one rebuild covers the
// whole batch. Sealed strides are rewritten under a fresh generation; the
// old generation's pages are reclaimed once every epoch that references
// them has drained. Counted in Stats.Rebuilds.
func (t *Table) rebuildColumnLocked(ci int, rows []types.Row) error {
	t.stats.rebuilds.Add(1)
	c := t.cols[ci]
	kind := t.schema[ci].Kind
	oldGen := c.gen
	// Every value of the column, sealed strides then the open one,
	// decoded through the encoder being replaced; tombstoned rows are
	// included (codes must stay positionally aligned).
	sealed := t.sealedStrides()
	vals := make([]types.Value, 0, t.rows+len(rows))
	for s := 0; s < sealed; s++ {
		pg, err := t.loadPageGen(ci, oldGen, s)
		if err != nil {
			return err
		}
		for i := 0; i < pg.Rows(); i++ {
			vals = appendDecoded(vals, c.enc, kind, pg.Codes.Get(i), pg.Nulls.Get(i))
		}
	}
	for i, code := range c.openCodes {
		vals = appendDecoded(vals, c.enc, kind, code, c.openNulls[i])
	}
	sample := vals
	for _, r := range rows {
		sample = append(sample, r[ci])
	}
	c.enc = encoding.ChooseEncoder(kind, sample)
	// Fresh synopsis: resetting in place would tear the entry slices
	// published epochs hold.
	c.syn = synopsis.Column{}
	c.gen = t.nextGenLocked()

	codes := make([]uint64, page.StrideSize)
	nulls := make([]bool, page.StrideSize)
	for s := 0; s < sealed; s++ {
		run := vals[s*page.StrideSize : (s+1)*page.StrideSize]
		for i, v := range run {
			nulls[i] = v.IsNull()
		}
		c.enc.EncodeAll(run, codes)
		if err := t.writeStrideLocked(ci, s, codes, nulls); err != nil {
			return err
		}
	}
	// The open stride gets a fresh code buffer; its NULL flags are
	// unchanged by a re-encode, so that array stays shared with published
	// epochs.
	open := make([]uint64, len(c.openCodes), page.StrideSize)
	c.enc.EncodeAll(vals[sealed*page.StrideSize:], open)
	c.openCodes = open
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
		c.newOpenBuffers()
		c.syn = synopsis.Column{}
		c.enc = nil
		c.gen = t.nextGenLocked()
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
		c.newOpenBuffers()
		c.syn = synopsis.Column{}
		c.enc = nil
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

// ColumnDict returns column ci's dictionary in the current epoch when the
// column is eligible for compressed (code-space) execution, or nil.
// Eligibility requires an analyzed frequency-dictionary encoder on a
// non-float column: float dictionaries are excluded centrally here because
// NaN keys break the value↔code bijection the executor's code-keyed joins
// and group-bys rely on (NaN != NaN, so NaN rows can occupy several
// codes). Compiled plans that must agree with their scan should prefer
// Snapshot.ColumnDict on the pinned snapshot.
func (t *Table) ColumnDict(ci int) *encoding.Dict {
	return t.epochs.Current().State().columnDict(ci)
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
}

// Compression computes the table's compression report over a pinned
// snapshot.
func (t *Table) Compression() CompressionReport {
	snap := t.Snapshot()
	defer snap.Release()
	st := snap.state()
	var r CompressionReport
	r.RawBytes = st.rawBytes
	sealed := st.sealedStrides()
	for ci := range st.cols {
		c := &st.cols[ci]
		for s := 0; s < sealed; s++ {
			if pg, err := t.loadPageGen(ci, c.gen, s); err == nil {
				r.PageBytes += pg.MemSize()
			}
		}
		r.PageBytes += len(c.openCodes) * 8 // open stride unpacked
		if c.enc != nil {
			r.DictBytes += c.enc.MemSize()
		}
		r.SynopsisBytes += len(c.syn)*24 + 24 + 64 // entries + header + sketch
	}
	r.CompressedBytes = r.PageBytes + r.DictBytes + r.SynopsisBytes
	if r.CompressedBytes > 0 {
		r.Ratio = float64(r.RawBytes) / float64(r.CompressedBytes)
	}
	return r
}
