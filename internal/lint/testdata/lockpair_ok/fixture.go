//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package lockok is the negative lockpair fixture: every acquisition is
// released on all paths with matching flavor, via defer, explicit
// unlocks on each branch, deferred closures, or a deliberate panic.
package lockok

import "sync"

type counter struct {
	mu sync.RWMutex
	n  int
}

// deferUnlock is the canonical pattern: defer discharges the obligation
// on every exit path.
func (c *counter) deferUnlock() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

// readPath pairs RLock with RUnlock.
func (c *counter) readPath() int {
	c.mu.RLock()
	n := c.n
	c.mu.RUnlock()
	return n
}

// bothBranches unlocks explicitly on each path to return.
func (c *counter) bothBranches(add bool) int {
	c.mu.Lock()
	if add {
		c.n++
		c.mu.Unlock()
		return c.n
	}
	c.mu.Unlock()
	return 0
}

// deferredClosure unlocks from inside a deferred closure, which runs on
// every exit path just like a direct defer.
func (c *counter) deferredClosure() {
	c.mu.Lock()
	defer func() { c.mu.Unlock() }()
	c.n++
}

// panicPathExempt abandons the frame deliberately; paths ending in
// panic owe no unlock.
func (c *counter) panicPathExempt(ok bool) {
	c.mu.Lock()
	if !ok {
		panic("lockok: invariant broken")
	}
	c.n++
	c.mu.Unlock()
}

// closureScope locks inside a function literal: the closure is its own
// scope (often a goroutine body) and must not charge the enclosing
// function.
func (c *counter) closureScope() func() {
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n++
	}
}

// loopLocked acquires and releases once per iteration.
func (c *counter) loopLocked(xs []int) {
	for range xs {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
}
