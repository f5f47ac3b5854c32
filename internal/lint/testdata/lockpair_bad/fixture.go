//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package lockbad exercises the lockpair analyzer: lock paths that leak
// the lock on an early return, mismatch acquisition/release flavors, or
// double-lock the same mutex along one path.
package lockbad

import (
	"errors"
	"sync"
)

type store struct {
	mu   sync.RWMutex
	vals map[string]int
}

var errMissing = errors.New("missing")

// leakOnError returns early with the write lock still held: every later
// caller of store deadlocks.
func leakOnError(s *store, key string, v int) error {
	s.mu.Lock() //lint:expect lockpair
	if s.vals == nil {
		return errMissing
	}
	s.vals[key] = v
	s.mu.Unlock()
	return nil
}

// flavorMismatchRead read-locks but write-unlocks, corrupting the
// RWMutex reader count.
func flavorMismatchRead(s *store, key string) int {
	s.mu.RLock()
	v := s.vals[key]
	s.mu.Unlock() //lint:expect lockpair
	return v
}

// flavorMismatchWrite write-locks but read-unlocks, which panics at
// runtime.
func flavorMismatchWrite(s *store, key string, v int) {
	s.mu.Lock()
	s.vals[key] = v
	s.mu.RUnlock() //lint:expect lockpair
}

// doubleLock re-locks what it already holds: self-deadlock.
func doubleLock(s *store, key string, v int) {
	s.mu.Lock()
	s.mu.Lock() //lint:expect lockpair
	s.vals[key] = v
	s.mu.Unlock()
}

var (
	mu   sync.Mutex
	hits int
)

// leakOneBranch unlocks only on the branch that did work.
func leakOneBranch(n int) {
	mu.Lock() //lint:expect lockpair
	if n > 0 {
		hits += n
		mu.Unlock()
	}
}
