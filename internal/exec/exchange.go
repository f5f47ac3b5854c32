package exec

import (
	"fmt"

	"dashdb/internal/vec"
)

// Shuffle exchange: the MPP repartitioning boundary (paper §II.E; Hespe
// et al.'s cluster OLAP model in PAPERS.md). A ShuffleWriter takes a
// statement's batches and routes every live row to one of N partitions by
// the hash of its key columns, as a view of the batch under a selection
// vector — no row is boxed or copied.
//
// The exec package defines only the writer and the sink it writes to. The
// network transport (length-prefixed frames over TCP) and the receiving
// edge live in internal/shardrpc, which imports core and therefore exec —
// the interface here keeps the dependency pointing one way.

// ShuffleSink receives the writer's partitioned batches. Send may be
// called concurrently for different partitions by different writer
// instances but a single ShuffleWriter calls it sequentially; it may keep
// the batches. Flush signals that this sender will produce no more rows
// for any partition (the transport forwards it as a per-sender EOF so
// readers can count senders down).
type ShuffleSink interface {
	Send(part int, batches []*vec.Batch) error
	Flush() error
}

// Partition returns the partition of the row at batch position i of the
// key vectors. Single keys use the value's Hash directly so the shuffle
// placement matches the cluster's insert routing (hash(distkey) mod
// nShards) and co-located data re-shuffles to the shard it already lives
// on; composite keys mix with an FNV-1a fold. A NULL key hashes like any
// value (types.NullHash), so a row lands where the insert routing would
// put it; NULL never joins, so any deterministic home is correct.
// Vector.Hash reads a typed lane without boxing and equals Value.Hash, so
// this is the partition of the boxed row too.
//
//dashdb:hotpath
func Partition(keys []*vec.Vector, i, parts int) int {
	if parts <= 1 {
		return 0
	}
	var h uint64
	if len(keys) == 1 {
		h = keys[0].Hash(i)
	} else {
		h = 1469598103934665603 // FNV-64 offset basis
		for _, v := range keys {
			h ^= v.Hash(i)
			h *= 1099511628211
		}
	}
	return int(h % uint64(parts))
}

// ShuffleWriter partitions a stream of batches by the hash of Keys across
// Parts peers and hands each partition's share to the Sink once it holds
// ChunkSize rows; Flush sends the rest and ends the stream.
type ShuffleWriter struct {
	Keys  []int
	Parts int
	Sink  ShuffleSink

	Sent int64 // rows routed, for ANALYZE

	pending [][]*vec.Batch // per partition, views not yet sent
	rows    []int          // live rows of pending[p]
}

// Write routes the live rows of b. Its column vectors are materialized
// here, so the views that reach readers running at once share them
// without writing to them. The views are held past the call, so b is
// disowned.
func (w *ShuffleWriter) Write(b *vec.Batch) error {
	if w.Parts <= 0 {
		return fmt.Errorf("exec: shuffle writer with %d partitions", w.Parts)
	}
	if w.pending == nil {
		w.pending, w.rows = make([][]*vec.Batch, w.Parts), make([]int, w.Parts)
	}
	b.Disown()
	b.Decode()
	keys := make([]*vec.Vector, len(w.Keys))
	for k, c := range w.Keys {
		keys[k] = b.Col(c)
	}
	sels := make([][]int, w.Parts)
	for _, i := range b.Idx() {
		p := Partition(keys, i, w.Parts)
		sels[p] = append(sels[p], i)
	}
	for p, sel := range sels {
		if len(sel) == 0 {
			continue
		}
		w.pending[p] = append(w.pending[p], b.WithSel(sel))
		if w.rows[p] += len(sel); w.rows[p] >= ChunkSize {
			if err := w.send(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *ShuffleWriter) send(p int) error {
	if err := w.Sink.Send(p, w.pending[p]); err != nil {
		return err
	}
	w.Sent += int64(w.rows[p])
	w.pending[p], w.rows[p] = nil, 0
	return nil
}

// Flush sends every partition's remaining rows and flushes the sink.
func (w *ShuffleWriter) Flush() error {
	for p := range w.pending {
		if w.rows[p] > 0 {
			if err := w.send(p); err != nil {
				return err
			}
		}
	}
	return w.Sink.Flush()
}
