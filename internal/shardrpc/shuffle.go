package shardrpc

import (
	"fmt"
	"sync"
	"time"

	"dashdb/internal/exec"
	"dashdb/internal/types"
)

// Shuffle transport. Each server owns a ShuffleRouter holding one inbox
// per (query, stage, partition). Sending shards deliver row batches
// with FrameShuffleData and announce completion with FrameShuffleEOF;
// an inbox is drained once it has seen one EOF from every sender. The
// router is created before any fragment runs, so batches that arrive
// before the consuming join fragment starts simply queue in the inbox.

// DefaultShuffleWait bounds how long a reader waits for the next batch
// before concluding a peer died mid-shuffle (the failover path then
// re-plans against the surviving membership).
const DefaultShuffleWait = 30 * time.Second

type inboxKey struct {
	query uint64
	stage int
	part  int
}

type inbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	batches [][]types.Row
	eofs    int
	senders int // 0 until the consumer declares the expected count
	armed   bool
	err     error
}

func newInbox() *inbox {
	in := &inbox{}
	in.cond = sync.NewCond(&in.mu)
	return in
}

// ShuffleRouter owns every inbox on one server.
type ShuffleRouter struct {
	Wait time.Duration // max Recv wait; DefaultShuffleWait if 0

	mu      sync.Mutex
	inboxes map[inboxKey]*inbox
}

// NewShuffleRouter returns an empty router.
func NewShuffleRouter() *ShuffleRouter {
	return &ShuffleRouter{Wait: DefaultShuffleWait, inboxes: make(map[inboxKey]*inbox)}
}

func (r *ShuffleRouter) inbox(k inboxKey) *inbox {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.inboxes[k]
	if !ok {
		in = newInbox()
		r.inboxes[k] = in
	}
	return in
}

// Deliver queues one batch for a partition (called by the server on
// FrameShuffleData and by the loopback sink).
func (r *ShuffleRouter) Deliver(query uint64, stage, part int, rows []types.Row) {
	in := r.inbox(inboxKey{query, stage, part})
	in.mu.Lock()
	in.batches = append(in.batches, rows)
	in.mu.Unlock()
	in.cond.Broadcast()
}

// EOF records one sender's completion for a partition.
func (r *ShuffleRouter) EOF(query uint64, stage, part int) {
	in := r.inbox(inboxKey{query, stage, part})
	in.mu.Lock()
	in.eofs++
	in.mu.Unlock()
	in.cond.Broadcast()
}

// Source returns the exec.ShuffleSource for one partition, declaring
// how many senders must EOF before the stream ends.
func (r *ShuffleRouter) Source(query uint64, stage, part, senders int) exec.ShuffleSource {
	in := r.inbox(inboxKey{query, stage, part})
	in.mu.Lock()
	in.senders = senders
	in.armed = true
	in.mu.Unlock()
	in.cond.Broadcast()
	return &inboxSource{in: in, wait: r.waitFor()}
}

func (r *ShuffleRouter) waitFor() time.Duration {
	if r.Wait > 0 {
		return r.Wait
	}
	return DefaultShuffleWait
}

// Drop discards a query's inboxes after its fragments finish.
func (r *ShuffleRouter) Drop(query uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.inboxes {
		if k.query == query {
			delete(r.inboxes, k)
		}
	}
}

// InboxCount reports how many inboxes the router currently holds
// (leak checks: abandoned queries must not accumulate state).
//
//dashdb:nolint deadcode cross-package test hook: mpp's shuffle tests check a server's inboxes drain
func (r *ShuffleRouter) InboxCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.inboxes)
}

// DropPart discards one partition's inboxes (all stages) once its
// consuming fragment finished; other partitions of the same query may
// still be draining on this server.
func (r *ShuffleRouter) DropPart(query uint64, part int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.inboxes {
		if k.query == query && k.part == part {
			delete(r.inboxes, k)
		}
	}
}

type inboxSource struct {
	in   *inbox
	wait time.Duration
}

// Recv implements exec.ShuffleSource.
func (s *inboxSource) Recv() ([]types.Row, error) {
	in := s.in
	deadline := time.Now().Add(s.wait)
	// The timer callback must hold in.mu before broadcasting: a bare
	// Broadcast can fire between the reader's deadline check and its
	// cond.Wait, and with a dead peer (the very case the timeout exists
	// for) no later Deliver/EOF would ever wake the reader again.
	timer := time.AfterFunc(s.wait, func() {
		in.mu.Lock()
		defer in.mu.Unlock()
		in.cond.Broadcast()
	})
	defer timer.Stop()
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if in.err != nil {
			return nil, in.err
		}
		if len(in.batches) > 0 {
			rows := in.batches[0]
			in.batches = in.batches[1:]
			return rows, nil
		}
		if in.armed && in.eofs >= in.senders {
			return nil, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shardrpc: shuffle read timed out after %v (%d/%d senders done)", s.wait, in.eofs, in.senders)
		}
		in.cond.Wait()
	}
}

// netSink is the sending half: an exec.ShuffleSink that routes each
// partition's batches to its owner, short-circuiting partitions this
// server owns straight into the local router.
type netSink struct {
	pool   *Pool
	router *ShuffleRouter
	self   string // this server's address, for loopback detection
	query  uint64
	stage  int
	sender int
	parts  []PartLoc
}

// NewNetSink builds the sink a fragment writes its shuffle output to.
func NewNetSink(pool *Pool, router *ShuffleRouter, self string, query uint64, stage, sender int, parts []PartLoc) exec.ShuffleSink {
	return &netSink{pool: pool, router: router, self: self, query: query, stage: stage, sender: sender, parts: parts}
}

func (s *netSink) local(p int) bool {
	return s.parts[p].Addr == "" || s.parts[p].Addr == s.self
}

// Send implements exec.ShuffleSink.
func (s *netSink) Send(part int, rows []types.Row) error {
	if part < 0 || part >= len(s.parts) {
		return fmt.Errorf("shardrpc: shuffle partition %d of %d", part, len(s.parts))
	}
	if s.local(part) {
		s.router.Deliver(s.query, s.stage, part, rows)
		return nil
	}
	return s.pool.SendShuffle(s.parts[part].Addr, shuffleHdr{Query: s.query, Stage: s.stage, Part: part, Sender: s.sender}, rows)
}

// Flush implements exec.ShuffleSink: one EOF per partition.
func (s *netSink) Flush() error {
	for p := range s.parts {
		if s.local(p) {
			s.router.EOF(s.query, s.stage, p)
			continue
		}
		if err := s.pool.SendShuffle(s.parts[p].Addr, shuffleHdr{Query: s.query, Stage: s.stage, Part: p, Sender: s.sender}, nil); err != nil {
			return err
		}
	}
	return nil
}
