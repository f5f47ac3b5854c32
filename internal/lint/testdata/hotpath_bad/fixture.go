//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package kernels exercises the hotpath analyzer on the kernels' own
// bodies: annotated functions must stay free of timers, formatters,
// reflection and locks.
package kernels

import (
	"fmt"
	"sync"
	"time"
)

// sumStride is a per-stride kernel.
//
//dashdb:hotpath
func sumStride(vals []int64) (int64, time.Duration) {
	start := time.Now() //lint:expect hotpath
	var s int64
	for _, v := range vals {
		s += v
	}
	return s, time.Since(start) //lint:expect hotpath
}

// decodeRow formats per row — the classic profile killer.
//
//dashdb:hotpath
func decodeRow(ids []int64) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, fmt.Sprintf("row-%d", id)) //lint:expect hotpath
	}
	return out
}

// counter is shared by every caller of countLocked.
type counter struct {
	mu sync.Mutex
	n  int
}

// countLocked takes a mutex in the kernel itself, once per element.
//
//dashdb:hotpath
func countLocked(c *counter, xs []int) {
	for range xs {
		c.mu.Lock() //lint:expect hotpath
		c.n++
		c.mu.Unlock()
	}
}
