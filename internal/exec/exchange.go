package exec

import (
	"fmt"

	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// Shuffle exchange: the MPP repartitioning boundary (paper §II.E; Hespe
// et al.'s cluster OLAP model in PAPERS.md). A ShuffleWriterOp drains
// its child and routes every row to one of N partitions by the hash of
// its key columns; a ShuffleSource is the receiving edge, yielding the
// rows delivered for one partition.
//
// The exec package defines only the operators and the transport
// interfaces. The network transport (length-prefixed frames over TCP)
// lives in internal/shardrpc, which imports core and therefore exec —
// the interfaces here keep the dependency pointing one way.

// ShuffleSink receives the writer's partitioned batches. Send may be
// called concurrently for different partitions by different writer
// instances but a single ShuffleWriterOp calls it sequentially. Flush
// signals that this sender will produce no more rows for any partition
// (the transport forwards it as a per-sender EOF so readers can count
// senders down).
type ShuffleSink interface {
	Send(part int, rows []types.Row) error
	Flush() error
}

// ShuffleSource yields the rows delivered to one partition. Recv blocks
// until a batch arrives and returns (nil, nil) once every sender has
// flushed.
type ShuffleSource interface {
	Recv() ([]types.Row, error)
}

// HashPartition returns the partition for a row's key columns. Single
// keys use Value.Hash directly so the shuffle placement matches the
// cluster's insert routing (hash(distkey) mod nShards) and co-located
// data re-shuffles to the shard it already lives on; composite keys mix
// with an FNV-1a fold. Rows with any NULL key go to partition 0: NULL
// never equals anything, so any fixed home keeps joins correct while
// staying deterministic.
func HashPartition(row types.Row, keys []int, parts int) int {
	if parts <= 1 {
		return 0
	}
	for _, k := range keys {
		if row[k].IsNull() {
			return 0
		}
	}
	var h uint64
	if len(keys) == 1 {
		h = row[keys[0]].Hash()
	} else {
		h = 1469598103934665603 // FNV-64 offset basis
		for _, k := range keys {
			h ^= row[k].Hash()
			h *= 1099511628211
		}
	}
	return int(h % uint64(parts))
}

// ShuffleWriterOp drains Child, partitions rows by the hash of Keys
// across Parts peers, and hands batches to the Sink. It produces no
// rows itself: the first Next call does all the work and returns end of
// stream (the fragment's "output" travels through the transport).
type ShuffleWriterOp struct {
	Child Operator
	Keys  []int
	Parts int
	Sink  ShuffleSink

	Sent int64 // rows routed, for ANALYZE

	opened bool
	done   bool
}

// Schema implements Operator; the writer emits no rows.
func (s *ShuffleWriterOp) Schema() types.Schema { return nil }

// Open implements Operator.
func (s *ShuffleWriterOp) Open() error {
	if s.Parts <= 0 {
		return fmt.Errorf("exec: shuffle writer with %d partitions", s.Parts)
	}
	if err := s.Child.Open(); err != nil {
		return err
	}
	s.opened = true
	return nil
}

// Next implements Operator: drains the child, routing every row, then
// flushes the sink and ends the stream.
func (s *ShuffleWriterOp) Next() (*vec.Batch, error) {
	if s.done {
		return nil, nil
	}
	s.done = true
	buckets := make([][]types.Row, s.Parts)
	var in []types.Row // the rows of one child batch
	for {
		vb, err := s.Child.Next()
		if err != nil {
			return nil, err
		}
		if vb == nil {
			break
		}
		in = vb.AppendRows(in[:0])
		for _, r := range in {
			p := HashPartition(r, s.Keys, s.Parts)
			buckets[p] = append(buckets[p], r)
			if len(buckets[p]) >= ChunkSize {
				if err := s.Sink.Send(p, buckets[p]); err != nil {
					return nil, err
				}
				s.Sent += int64(len(buckets[p]))
				buckets[p] = nil
			}
		}
	}
	for p, rows := range buckets {
		if len(rows) == 0 {
			continue
		}
		if err := s.Sink.Send(p, rows); err != nil {
			return nil, err
		}
		s.Sent += int64(len(rows))
	}
	if err := s.Sink.Flush(); err != nil {
		return nil, err
	}
	return nil, nil
}

// Close implements Operator.
func (s *ShuffleWriterOp) Close() error {
	if !s.opened {
		return nil
	}
	s.opened = false
	return s.Child.Close()
}
