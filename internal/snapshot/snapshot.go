// Package snapshot provides epoch-based snapshot isolation: a publisher
// swaps immutable state versions (epochs) behind a single atomic pointer,
// readers pin the current epoch for the lifetime of a query and observe a
// frozen view with no locks on the read path, and resources owned by a
// superseded epoch are reclaimed only after it — and every epoch before
// it — has fully drained.
//
// The protocol (DESIGN.md §13):
//
//   - Writers prepare a fully formed immutable state S and call Publish.
//     The swap is one atomic pointer store; there is never a moment when
//     readers can observe a half-built state.
//   - Readers call Pin, which returns the current epoch with its
//     reference count raised. Everything reachable from Epoch.State is
//     immutable for the epoch's lifetime; the reader drops the pin with
//     Release when the query finishes.
//   - Publish may attach cleanup functions. They are attached to the
//     epoch being superseded (the last epoch that references the doomed
//     resources) and run only once that epoch and all older epochs have
//     drained — epochs retire strictly in order, so a cleanup never runs
//     while any earlier snapshot could still reach the resource.
//
// The reference count starts at 1: the publisher's own reference, dropped
// when the epoch is superseded. A pin therefore can only observe a count
// of zero on an epoch that is both superseded and drained, in which case
// Pin retries against the new current epoch — readers can never resurrect
// a retired epoch whose cleanups may already be running.
package snapshot

import (
	"sync"
	"sync/atomic"
)

// Epoch is one published immutable state version.
type Epoch[S any] struct {
	seq   uint64
	state S
	pins  atomic.Int64
	mgr   *Manager[S]
	// cleanups run when this epoch and all older epochs have drained.
	// Written under mgr.mu while the epoch is current; read by advance
	// under mgr.mu after it is superseded.
	cleanups []func()
}

// State returns the epoch's immutable payload.
func (e *Epoch[S]) State() S { return e.state }

// tryPin raises the reference count unless the epoch has already drained
// (count zero). The CAS loop makes "increment if nonzero" atomic: a
// drained epoch stays drained.
func (e *Epoch[S]) tryPin() bool {
	for {
		p := e.pins.Load()
		if p <= 0 {
			return false
		}
		if e.pins.CompareAndSwap(p, p+1) {
			return true
		}
	}
}

// Release drops one pin. When the last pin of a superseded epoch drops,
// the manager advances the drain frontier and runs any cleanups whose
// epochs are now fully unreachable. Each Pin must be matched by exactly
// one Release.
func (e *Epoch[S]) Release() {
	if e.pins.Add(-1) == 0 {
		e.mgr.advance()
	}
}

// Manager publishes epochs for one protected object (one columnar table,
// say). The zero value is not usable; construct with NewManager.
type Manager[S any] struct {
	cur atomic.Pointer[Epoch[S]]

	mu      sync.Mutex // guards seq, queue, cleanups attachment
	seq     uint64
	queue   []*Epoch[S] // superseded epochs awaiting drain, oldest first
	drained atomic.Uint64
}

// NewManager creates a manager whose current epoch holds initial.
func NewManager[S any](initial S) *Manager[S] {
	m := &Manager[S]{seq: 1}
	e := &Epoch[S]{seq: 1, state: initial, mgr: m}
	e.pins.Store(1) // publisher reference
	m.cur.Store(e)
	return m
}

// Pin returns the current epoch with its reference count raised. The
// caller must Release it exactly once. Pin never blocks and never fails:
// if the loaded epoch drained between the load and the pin (a publish
// raced in and every reader left), it retries against the new current
// epoch.
func (m *Manager[S]) Pin() *Epoch[S] {
	for {
		e := m.cur.Load()
		if e.tryPin() {
			return e
		}
	}
}

// Current returns the current epoch without pinning it. The returned
// state is safe to read (it is immutable), but the epoch may be
// superseded at any moment — use Pin when the view must stay stable
// across multiple reads. Intended for monitoring and point lookups.
func (m *Manager[S]) Current() *Epoch[S] { return m.cur.Load() }

// Publish installs state as the new current epoch and returns it. The
// optional cleanups are attached to the epoch being superseded and run
// once it and every older epoch have drained — use them to free
// resources (storage pages, files) that the new state no longer
// references but pinned readers still might.
//
// Publishers are expected to be serialized externally (the table's writer
// mutex); Publish is nevertheless safe to call concurrently.
func (m *Manager[S]) Publish(state S, cleanups ...func()) *Epoch[S] {
	m.mu.Lock()
	m.seq++
	e := &Epoch[S]{seq: m.seq, state: state, mgr: m}
	e.pins.Store(1)
	old := m.cur.Swap(e)
	old.cleanups = append(old.cleanups, cleanups...)
	m.queue = append(m.queue, old)
	m.mu.Unlock()
	// Drop the publisher's reference on the superseded epoch; if no
	// reader holds it, this advances the drain frontier immediately.
	old.Release()
	return e
}

// advance pops fully drained epochs off the head of the retire queue, in
// publication order, and runs their cleanups outside the lock. An epoch
// deeper in the queue with zero pins must still wait: an older epoch may
// be pinned, and its readers may reach resources the younger epoch's
// cleanups would free.
func (m *Manager[S]) advance() {
	var run []func()
	m.mu.Lock()
	for len(m.queue) > 0 && m.queue[0].pins.Load() == 0 {
		run = append(run, m.queue[0].cleanups...)
		m.queue[0].cleanups = nil
		m.queue = m.queue[1:]
		m.drained.Add(1)
	}
	m.mu.Unlock()
	for _, f := range run {
		f()
	}
}

// Info is a point-in-time monitoring snapshot of the manager.
type Info struct {
	// Seq is the current epoch's sequence number.
	Seq uint64
	// PinnedReaders counts reader pins across the current and all
	// superseded epochs (the publisher's own reference is excluded).
	PinnedReaders int64
	// Behind counts superseded epochs still awaiting drain: old readers
	// holding back resource reclamation.
	Behind int
	// Drained counts epochs fully retired since the manager was created.
	Drained uint64
}

// Info reports the manager's monitoring counters (MON_SNAPSHOTS).
func (m *Manager[S]) Info() Info {
	m.mu.Lock()
	cur := m.cur.Load()
	info := Info{
		Seq:     cur.seq,
		Behind:  len(m.queue),
		Drained: m.drained.Load(),
	}
	if p := cur.pins.Load() - 1; p > 0 { // exclude the publisher reference
		info.PinnedReaders += p
	}
	for _, e := range m.queue {
		if p := e.pins.Load(); p > 0 {
			info.PinnedReaders += p
		}
	}
	m.mu.Unlock()
	return info
}
