package columnar

import (
	"sync"

	"dashdb/internal/bitpack"
	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/snapshot"
	"dashdb/internal/synopsis"
	"dashdb/internal/types"
)

// colView is one column's immutable view inside an epoch: the encoder at
// publish time (dictionaries are append-only and internally locked, so
// sharing one across epochs is safe; frame-of-reference encoders are
// immutable and replaced wholesale on rebuild), the page generation its
// sealed strides were written under, a capacity-clamped view of their
// synopsis entries, a value copy of the distinct-count sketch, and the
// open stride's tail page and entry (no tail when it holds no row).
type colView struct {
	enc     encoding.Encoder
	gen     uint32
	syn     []synopsis.Entry
	sketch  synopsis.Sketch
	tail    *page.Page
	tailSyn synopsis.Entry
}

// entry returns the synopsis entry of stride s: a sealed stride's, or the
// tail's.
func (c *colView) entry(s int) synopsis.Entry {
	if s == len(c.syn) {
		return c.tailSyn
	}
	return c.syn[s]
}

// tableState is one published epoch's worth of table state. Everything
// reachable from it is immutable — except the planner-statistics cache,
// which is lazily filled under its own lock (a cache over immutable data
// needs no versioning: it can never go stale within its state).
type tableState struct {
	schema   types.Schema
	cols     []colView
	rows     int // total rows appended (including deleted)
	live     int
	deleted  *bitpack.Bitmap // copy-on-write: never mutated once published
	rawBytes int

	statsMu    sync.Mutex
	statsCache map[int]ColumnStats
}

// sealedStrides returns how many full strides this epoch covers.
func (st *tableState) sealedStrides() int { return st.rows / page.StrideSize }

// strideRows returns how many rows stride s of this epoch holds.
func (st *tableState) strideRows(s int) int {
	return min(st.rows-s*page.StrideSize, page.StrideSize)
}

// strides returns how many strides a scan of this epoch visits: the
// sealed ones, then the open stride when it holds rows. The open stride's
// index is sealedStrides().
func (st *tableState) strides() int { return (st.rows + page.StrideSize - 1) / page.StrideSize }

// Snapshot is a pinned, immutable view of a table: one epoch held for the
// lifetime of a query. All scan entry points on Snapshot read only the
// pinned state — concurrent writers publish new epochs without ever
// touching it. Callers must Release exactly once; holding a snapshot
// indefinitely holds back page reclamation (visible as "behind" in
// MON_SNAPSHOTS).
type Snapshot struct {
	t *Table
	e *snapshot.Epoch[*tableState]
}

// Snapshot pins the table's current epoch.
func (t *Table) Snapshot() *Snapshot {
	return &Snapshot{t: t, e: t.epochs.Pin()}
}

// Release drops the snapshot's pin. The snapshot must not be used after.
func (s *Snapshot) Release() { s.e.Release() }

// state returns the pinned epoch's payload.
func (s *Snapshot) state() *tableState { return s.e.State() }

// Rows returns the snapshot's live row count — stable for the snapshot's
// lifetime no matter how many writers commit meanwhile.
func (s *Snapshot) Rows() int { return s.state().live }

// ColumnDict returns column ci's dictionary as pinned by this snapshot
// when the column is eligible for compressed (code-space) execution, or
// nil. Eligibility requires an analyzed frequency-dictionary encoder on a
// non-float column: float dictionaries are excluded centrally here
// because NaN keys break the value↔code bijection the executor's
// code-keyed joins and group-bys rely on (NaN != NaN, so NaN rows can
// occupy several codes).
func (s *Snapshot) ColumnDict(ci int) *encoding.Dict {
	st := s.state()
	if ci < 0 || ci >= len(st.cols) || st.schema[ci].Kind == types.KindFloat {
		return nil
	}
	d, _ := st.cols[ci].enc.(*encoding.Dict)
	return d
}

// SnapshotSet pins at most one snapshot per table and releases them all
// at once. The session layer threads one through each statement so every
// table reference inside the statement — scan, plan statistics, DML
// source — resolves against one consistent epoch, and so self-referencing
// statements (INSERT INTO t SELECT FROM t) read the pre-statement state.
type SnapshotSet struct {
	mu    sync.Mutex
	snaps map[*Table]*Snapshot
}

// NewSnapshotSet returns an empty set.
func NewSnapshotSet() *SnapshotSet {
	return &SnapshotSet{snaps: make(map[*Table]*Snapshot)}
}

// Get returns the set's snapshot of t, pinning one on first use. Safe for
// concurrent use (parallel operators may resolve their snapshot late).
func (ss *SnapshotSet) Get(t *Table) *Snapshot {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if s, ok := ss.snaps[t]; ok {
		return s
	}
	s := t.Snapshot()
	ss.snaps[t] = s
	return s
}

// ReleaseAll releases every pinned snapshot and empties the set.
func (ss *SnapshotSet) ReleaseAll() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for t, s := range ss.snaps {
		s.Release()
		delete(ss.snaps, t)
	}
}

// SnapshotInfo is the table's epoch and bulk-ingest telemetry
// (MON_SNAPSHOTS). It reads the current epoch unpinned, so a racing
// writer can make it momentarily stale, never torn: a reader whose
// answer must agree with a scan pins a Snapshot instead.
type SnapshotInfo struct {
	// Epoch is the current epoch's sequence number.
	Epoch uint64
	// Rows is the live row count of the current epoch.
	Rows int
	// PinnedReaders counts reader pins across current and superseded
	// epochs.
	PinnedReaders int64
	// Behind counts superseded epochs still pinned by old readers,
	// holding back resource reclamation.
	Behind int
	// Drained counts epochs fully retired since the table was created.
	Drained uint64
	// BulkFlushes / BulkRows / BulkBytes count BulkAppend activity.
	BulkFlushes uint64
	BulkRows    uint64
	BulkBytes   uint64
}

// SnapshotInfo reports the table's epoch counters.
func (t *Table) SnapshotInfo() SnapshotInfo {
	info := t.epochs.Info()
	return SnapshotInfo{
		Epoch:         info.Seq,
		Rows:          t.epochs.Current().State().live,
		PinnedReaders: info.PinnedReaders,
		Behind:        info.Behind,
		Drained:       info.Drained,
		BulkFlushes:   t.bulk.flushes.Load(),
		BulkRows:      t.bulk.rows.Load(),
		BulkBytes:     t.bulk.bytes.Load(),
	}
}
