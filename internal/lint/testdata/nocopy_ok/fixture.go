//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package shards is the negative nocopy fixture: construction, pointer
// access, and by-index iteration never duplicate a shard.
package shards

// Shard is one worker's padded counter block.
//
//dashdb:nocopy
type Shard struct {
	Visited int64
	_       [56]byte
}

// Plain is not annotated, so by-value use is fine.
type Plain struct{ N int64 }

func newShards(dop int) []Shard {
	return make([]Shard, dop)
}

func shard(shards []Shard, w int) *Shard {
	return &shards[w]
}

func sum(shards []Shard) int64 {
	var n int64
	for i := range shards {
		n += shards[i].Visited
	}
	return n
}

func construct() *Shard {
	return &Shard{}
}

func plainCopies(p Plain) Plain {
	q := p
	return q
}
