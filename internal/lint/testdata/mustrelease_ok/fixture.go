//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package release is the negative mustrelease fixture: every acquire is
// released on all paths, deferred, or escapes into a new owner.
package release

import "errors"

// Epoch is the pinned-epoch stand-in.
type Epoch struct{}

// Release unpins.
func (e *Epoch) Release() {}

// Rows reads through the pin.
func (e *Epoch) Rows() int { return 0 }

// Manager hands out pins.
type Manager struct{}

// Pin acquires an epoch pin.
func (m *Manager) Pin() *Epoch { return &Epoch{} }

// Spill is the spill-file stand-in.
type Spill struct{}

// Write appends.
func (f *Spill) Write(p []byte) (int, error) { return len(p), nil }

// Close releases the file.
func (f *Spill) Close() error { return nil }

// Reservation is the heap-grant stand-in.
type Reservation struct{}

// NewSpillFile opens a governed temp file.
func (r *Reservation) NewSpillFile(label string) (*Spill, error) { return &Spill{}, nil }

// Close returns the grant.
func (r *Reservation) Close() {}

// Governor hands out reservations.
type Governor struct{}

// Acquire grants a reservation.
func (g *Governor) Acquire(heap int) *Reservation { return &Reservation{} }

// holder owns a reservation transferred into it.
type holder struct {
	res *Reservation
}

var errBoom = errors.New("boom")

// deferredRelease is the canonical pattern: defer right after acquiring.
func deferredRelease(m *Manager) int {
	e := m.Pin()
	defer e.Release()
	return e.Rows()
}

// releasedOnAllPaths releases explicitly on both branches.
func releasedOnAllPaths(m *Manager, fast bool) int {
	e := m.Pin()
	if fast {
		n := e.Rows()
		e.Release()
		return n
	}
	e.Release()
	return 0
}

// errPathIsNil propagates the acquire's own error: on that path the
// file is nil and owes nothing.
func errPathIsNil(r *Reservation, rows [][]byte) error {
	f, err := r.NewSpillFile("run")
	if err != nil {
		return err
	}
	defer f.Close()
	for _, row := range rows {
		if _, err := f.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// ownershipReturn transfers the obligation to the caller.
func ownershipReturn(g *Governor) *Reservation {
	res := g.Acquire(0)
	return res
}

// ownershipStore transfers the obligation to the struct.
func ownershipStore(g *Governor, h *holder) {
	res := g.Acquire(0)
	h.res = res
}

// deferredClosureRelease releases from inside a deferred closure.
func deferredClosureRelease(m *Manager) int {
	e := m.Pin()
	defer func() { e.Release() }()
	return e.Rows()
}

// panicPathExempt aborts the frame deliberately; panic paths owe no
// release (the process is going down or a recover owns cleanup).
func panicPathExempt(m *Manager, ok bool) {
	e := m.Pin()
	if !ok {
		panic("fixture: invariant broken")
	}
	e.Release()
}

// Conn is the pooled-connection stand-in (shardrpc.Pool.Get/Conn.Release).
type Conn struct{}

// Release returns the connection to the pool.
func (c *Conn) Release() {}

// Fail marks it broken (an allowed receiver use; Release still closes).
func (c *Conn) Fail() {}

// Pool hands out connections.
type Pool struct{}

// Get acquires a connection.
func (p *Pool) Get(addr string) (*Conn, error) { return &Conn{}, nil }

// connDoIdiom is the Pool.Do shape: release after the callback on every
// path, including the failure mark.
func connDoIdiom(p *Pool, fn func(*Conn) error) error {
	c, err := p.Get("addr")
	if err != nil {
		return err
	}
	if err := fn(c); err != nil {
		c.Fail()
		c.Release()
		return err
	}
	c.Release()
	return nil
}

// connDeferred is the simple shape: defer right after acquiring.
func connDeferred(p *Pool) error {
	c, err := p.Get("addr")
	if err != nil {
		return err
	}
	defer c.Release()
	return nil
}
