//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package counters exercises the atomicalign analyzer: 64-bit atomics on
// fields that 32-bit targets cannot align.
package counters

import "sync/atomic"

// skewed puts a 4-byte field before the 64-bit counter: on GOARCH=386 the
// counter lands at offset 4 and atomic ops on it fault.
type skewed struct {
	ready int32
	hits  int64
	total uint64
}

type nested struct {
	tag  int32
	mode int32
	// inner starts at offset 8, so inner.hits (offset 4 within skewed)
	// lands at 12 — misaligned.
	inner skewed
}

func bump(s *skewed, n *nested) int64 {
	atomic.AddInt64(&s.hits, 1)         //lint:expect atomicalign
	atomic.AddUint64(&s.total, 1)       //lint:expect atomicalign
	atomic.StoreInt64(&n.inner.hits, 0) //lint:expect atomicalign
	return atomic.LoadInt64(&s.hits)    //lint:expect atomicalign
}
