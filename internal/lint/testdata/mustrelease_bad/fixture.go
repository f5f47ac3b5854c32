//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package release exercises the mustrelease analyzer: protocol-acquired
// values that can reach function exit unreleased on some path. The types
// are local stand-ins for snapshot.Manager / mem.Governor /
// mem.Reservation (fixtures are stdlib-only); the analyzer matches them
// by receiver type name + method name under the fixture/ path prefix.
package release

import "errors"

// Epoch is the pinned-epoch stand-in.
type Epoch struct{}

// Release unpins.
func (e *Epoch) Release() {}

// Rows reads through the pin (an allowed receiver use).
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

var errBoom = errors.New("boom")

// leakOnEarlyReturn releases on the happy path only: the error path
// returns with the pin still held.
func leakOnEarlyReturn(m *Manager, fail bool) error {
	e := m.Pin() //lint:expect mustrelease
	if fail {
		return errBoom
	}
	e.Release()
	return nil
}

// discardPin drops the pin on the floor.
func discardPin(m *Manager) {
	m.Pin() //lint:expect mustrelease
}

// discardSpill binds only the error, never the file.
func discardSpill(r *Reservation) error {
	_, err := r.NewSpillFile("run") //lint:expect mustrelease
	return err
}

// leakOneBranch closes the reservation only when work happened.
func leakOneBranch(g *Governor, n int) {
	res := g.Acquire(0) //lint:expect mustrelease
	if n > 0 {
		res.Close()
	}
}

// leakInLoop closes the file on the happy path but not when a write
// fails mid-run — the orphaned temp file survives until engine shutdown.
func leakInLoop(r *Reservation, rows [][]byte) error {
	f, err := r.NewSpillFile("run") //lint:expect mustrelease
	if err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := f.Write(row); err != nil {
			return err
		}
	}
	return f.Close()
}

// Conn is the pooled-connection stand-in (shardrpc.Pool.Get/Conn.Release).
type Conn struct{}

// Release returns the connection to the pool.
func (c *Conn) Release() {}

// Fail marks it broken without returning it.
func (c *Conn) Fail() {}

// Pool hands out connections.
type Pool struct{}

// Get acquires a connection.
func (p *Pool) Get(addr string) (*Conn, error) { return &Conn{}, nil }

// leakConnOnError marks the connection broken on the failure path but
// never releases it — the socket leaks until process exit.
func leakConnOnError(p *Pool, fail bool) error {
	c, err := p.Get("addr") //lint:expect mustrelease
	if err != nil {
		return err
	}
	if fail {
		c.Fail()
		return errBoom
	}
	c.Release()
	return nil
}
