//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package shards exercises the nocopy analyzer: padded counter shards
// copied by value fork their counters.
package shards

// Shard is one worker's padded counter block.
//
//dashdb:nocopy
type Shard struct {
	Visited int64
	_       [56]byte
}

func sumByValue(sh Shard) int64 { //lint:expect nocopy
	return sh.Visited
}

func leak(shards []Shard) int64 {
	var n int64
	for _, sh := range shards { //lint:expect nocopy
		n += sh.Visited
	}
	first := shards[0] //lint:expect nocopy
	n += first.Visited
	p := &shards[1]
	snapshot := *p //lint:expect nocopy
	n += snapshot.Visited
	n += sumByValue(shards[0]) //lint:expect nocopy
	return n
}
