//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package counters is the negative atomicalign fixture: 64-bit counters
// first in their struct, explicitly padded, or using the self-aligning
// atomic wrapper types.
package counters

import "sync/atomic"

// aligned leads with its 64-bit fields, so every offset is 0 mod 8.
type aligned struct {
	hits  int64
	total uint64
	ready int32
}

// padded re-aligns a later counter with explicit padding.
type padded struct {
	ready int32
	_     int32
	hits  int64
}

// wrapped relies on atomic.Int64's own alignment guarantee.
type wrapped struct {
	ready int32
	hits  atomic.Int64
}

func bump(a *aligned, p *padded, w *wrapped) int64 {
	atomic.AddInt64(&a.hits, 1)
	atomic.AddUint64(&a.total, 1)
	atomic.AddInt64(&p.hits, 1)
	w.hits.Add(1)
	var local int64
	atomic.AddInt64(&local, 1)
	return atomic.LoadInt64(&a.hits) + w.hits.Load() + local
}
