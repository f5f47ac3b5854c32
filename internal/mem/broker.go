// Package mem is the runtime memory governor: the piece of the paper's
// automatic-configuration story (§II.A) that makes the engine actually run
// inside the heaps the configuration derived. deploy.AutoConfigure sizes a
// sort heap and a hash heap from detected RAM; this package turns those
// numbers into enforced budgets. A Broker tracks per-heap usage, hands out
// Reservations to blocking operators (sort, hash join, grouped
// aggregation), and counts pressure; when a Grow is denied the operator
// spills a bounded run to disk through a SpillFile and releases the memory
// instead of OOMing the process — graceful degradation in the style of
// Shark's memory manager (PAPERS.md) rather than failure.
//
// Everything is nil-safe: a nil Broker, Governor or Reservation grants
// everything, so an operator has one code path — the governed one — and a
// library user who never configures a governor runs that same path with no
// Grow ever denied and nothing spilled.
package mem

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Heap names one governed memory pool.
type Heap uint8

const (
	// SortHeap budgets ORDER BY run buffering (SORTHEAP).
	SortHeap Heap = iota
	// HashHeap budgets hash-join builds and grouped aggregation partials
	// (HASHHEAP).
	HashHeap

	numHeaps = 2
)

// String returns the configuration-surface name of the heap.
func (h Heap) String() string {
	switch h {
	case SortHeap:
		return "SORTHEAP"
	case HashHeap:
		return "HASHHEAP"
	default:
		return fmt.Sprintf("Heap(%d)", uint8(h))
	}
}

// heapState is one pool's live accounting. All counters are atomic: morsel
// workers of a parallel aggregation grow one shared reservation
// concurrently.
type heapState struct {
	budget  atomic.Int64 // re-set by SetBudgets when an MPP shard is re-associated
	used    atomic.Int64
	peak    atomic.Int64
	grants  atomic.Int64 // successful Grow calls
	denials atomic.Int64 // Grow calls that forced a spill
	spills  atomic.Int64 // spill runs written
	spillB  atomic.Int64 // bytes written to spill files
}

// Broker owns the engine's governed heaps and the spill directory. One
// broker serves one engine; every session's operators reserve from it, so
// concurrent heavy queries share the configured budgets instead of each
// assuming it owns the machine.
type Broker struct {
	heaps [numHeaps]heapState

	active atomic.Int64 // open reservations

	spillDir spillDir
}

// NewBroker creates a broker with the given heap budgets in bytes. Budgets
// <= 0 select a conservative 64 MiB default (the entry-level laptop share
// of the paper's 8 GB minimum). The spill directory is created lazily on
// first spill; pass "" to place it under the OS temp dir.
func NewBroker(sortBytes, hashBytes int64, dir string) *Broker {
	b := &Broker{}
	b.SetBudgets(sortBytes, hashBytes)
	b.spillDir.parent = dir
	return b
}

// SetBudgets re-sizes both heaps of a live broker (same defaults as
// NewBroker). Open reservations keep what they hold; a shrunk budget is
// felt at their next Grow, which is denied and makes the operator spill.
func (b *Broker) SetBudgets(sortBytes, hashBytes int64) {
	const defaultHeap = 64 << 20
	if sortBytes <= 0 {
		sortBytes = defaultHeap
	}
	if hashBytes <= 0 {
		hashBytes = defaultHeap
	}
	b.heaps[SortHeap].budget.Store(sortBytes)
	b.heaps[HashHeap].budget.Store(hashBytes)
}

// Budget returns a heap's configured budget in bytes.
func (b *Broker) Budget(h Heap) int64 {
	if b == nil {
		return 0
	}
	return b.heaps[h].budget.Load()
}

// InUse returns a heap's currently reserved bytes.
func (b *Broker) InUse(h Heap) int64 {
	if b == nil {
		return 0
	}
	return b.heaps[h].used.Load()
}

// Pressure returns the worst heap's used/budget fraction. It can exceed
// 1.0 transiently: MustGrow over-grants to guarantee operator progress
// when a single row exceeds the remaining budget.
func (b *Broker) Pressure() float64 {
	if b == nil {
		return 0
	}
	worst := 0.0
	for h := range b.heaps {
		hs := &b.heaps[h]
		budget := hs.budget.Load()
		if budget <= 0 {
			continue
		}
		if p := float64(hs.used.Load()) / float64(budget); p > worst {
			worst = p
		}
	}
	return worst
}

// Exhausted reports whether any heap is fully reserved. The workload
// manager consults it at admission: a query arriving while reservations
// are exhausted queues until running operators spill or finish, rather
// than piling more pressure on a saturated engine.
func (b *Broker) Exhausted() bool {
	if b == nil {
		return false
	}
	for h := range b.heaps {
		hs := &b.heaps[h]
		if budget := hs.budget.Load(); budget > 0 && hs.used.Load() >= budget {
			return true
		}
	}
	return false
}

// SpillDir returns the broker's spill directory, creating it on first use.
func (b *Broker) SpillDir() (string, error) {
	if b == nil {
		return "", fmt.Errorf("mem: nil broker has no spill directory")
	}
	return b.spillDir.ensure()
}

// Close removes the broker's spill directory (and any files a crashed
// operator left behind). Idempotent.
func (b *Broker) Close() error {
	if b == nil {
		return nil
	}
	return b.spillDir.remove()
}

// HeapStat is one heap's counter snapshot (the MON_MEMORY row).
type HeapStat struct {
	Heap        Heap
	BudgetBytes int64
	UsedBytes   int64
	PeakBytes   int64
	Grants      int64
	Denials     int64
	SpillRuns   int64
	SpillBytes  int64
}

// Stats snapshots every heap plus the active reservation count.
func (b *Broker) Stats() (heaps []HeapStat, activeReservations int64) {
	if b == nil {
		return nil, 0
	}
	out := make([]HeapStat, numHeaps)
	for h := range b.heaps {
		hs := &b.heaps[h]
		out[h] = HeapStat{
			Heap:        Heap(h),
			BudgetBytes: hs.budget.Load(),
			UsedBytes:   hs.used.Load(),
			PeakBytes:   hs.peak.Load(),
			Grants:      hs.grants.Load(),
			Denials:     hs.denials.Load(),
			SpillRuns:   hs.spills.Load(),
			SpillBytes:  hs.spillB.Load(),
		}
	}
	return out, b.active.Load()
}

// Reserve opens a reservation against heap h. limit caps this
// reservation's total grant (the per-session SET SORTHEAP/HASHHEAP
// override); limit <= 0 means "up to the heap budget". Reserve never
// blocks and never fails — memory is only taken by Grow.
func (b *Broker) Reserve(h Heap, limit int64) *Reservation {
	if b == nil {
		return nil
	}
	if budget := b.heaps[h].budget.Load(); limit <= 0 || limit > budget {
		limit = budget
	}
	b.active.Add(1)
	return &Reservation{b: b, heap: h, limit: limit}
}

// Reservation is one operator's claim on a heap. Grow/Shrink adjust the
// claim; NoteSpill records a run written to disk; Close returns
// everything. Methods are safe for concurrent use (parallel aggregation
// workers share one reservation) and nil-safe (a nil reservation grants
// everything, so an operator never branches on having one).
type Reservation struct {
	b     *Broker
	heap  Heap
	limit int64

	used   atomic.Int64
	spills atomic.Int64
	spillB atomic.Int64
	closed atomic.Bool
}

// Grow asks for n more bytes. False means the heap (or this reservation's
// session limit) is exhausted: the operator must spill and Shrink before
// continuing. A nil reservation always grants.
func (r *Reservation) Grow(n int64) bool {
	if r == nil {
		return true
	}
	hs := &r.b.heaps[r.heap]
	for {
		cur := r.used.Load()
		if cur+n > r.limit {
			hs.denials.Add(1)
			return false
		}
		if !r.used.CompareAndSwap(cur, cur+n) {
			continue
		}
		break
	}
	u := hs.used.Add(n)
	if u > hs.budget.Load() {
		// Heap-level exhaustion: another reservation got there first.
		// Roll back and report denial.
		hs.used.Add(-n)
		r.used.Add(-n)
		hs.denials.Add(1)
		return false
	}
	updatePeak(&hs.peak, u)
	hs.grants.Add(1)
	return true
}

// MustGrow takes n bytes even past the budget. Operators call it only
// after a spill has emptied their buffers and a single item still does
// not fit (a row larger than the remaining heap): over-granting is the
// only alternative to failing the query, which is exactly what the
// governor exists to prevent. The overage shows up as Pressure() > 1.
func (r *Reservation) MustGrow(n int64) {
	if r == nil {
		return
	}
	hs := &r.b.heaps[r.heap]
	r.used.Add(n)
	updatePeak(&hs.peak, hs.used.Add(n))
	hs.grants.Add(1)
}

// Shrink returns n bytes to the heap (an operator released a buffer,
// typically after spilling it).
func (r *Reservation) Shrink(n int64) {
	if r == nil || n <= 0 {
		return
	}
	// Clamp to what this reservation actually holds so a double release
	// can never corrupt the heap counter.
	for {
		cur := r.used.Load()
		give := n
		if give > cur {
			give = cur
		}
		if give <= 0 {
			return
		}
		if r.used.CompareAndSwap(cur, cur-give) {
			r.b.heaps[r.heap].used.Add(-give)
			return
		}
	}
}

// Used returns this reservation's live grant.
func (r *Reservation) Used() int64 {
	if r == nil {
		return 0
	}
	return r.used.Load()
}

// NoteSpill records one spill run of n bytes on the reservation and its
// broker. Counters survive Close so EXPLAIN ANALYZE can report them after
// the plan has been drained and released.
func (r *Reservation) NoteSpill(n int64) {
	if r == nil {
		return
	}
	r.spills.Add(1)
	r.spillB.Add(n)
	hs := &r.b.heaps[r.heap]
	hs.spills.Add(1)
	hs.spillB.Add(n)
}

// SpillRuns returns the number of runs this reservation spilled.
func (r *Reservation) SpillRuns() int64 {
	if r == nil {
		return 0
	}
	return r.spills.Load()
}

// SpillBytes returns the bytes this reservation spilled.
func (r *Reservation) SpillBytes() int64 {
	if r == nil {
		return 0
	}
	return r.spillB.Load()
}

// NewSpillFile creates a spill file in the broker's spill directory.
func (r *Reservation) NewSpillFile(label string) (*SpillFile, error) {
	if r == nil {
		return nil, fmt.Errorf("mem: spill without a reservation")
	}
	dir, err := r.b.SpillDir()
	if err != nil {
		return nil, err
	}
	return newSpillFile(dir, label)
}

// Close releases the whole grant back to the heap. Idempotent; spill
// counters remain readable.
func (r *Reservation) Close() {
	if r == nil || !r.closed.CompareAndSwap(false, true) {
		return
	}
	if u := r.used.Swap(0); u > 0 {
		r.b.heaps[r.heap].used.Add(-u)
	}
	r.b.active.Add(-1)
}

func updatePeak(peak *atomic.Int64, v int64) {
	for {
		p := peak.Load()
		if v <= p || peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Governor bundles what a session hands the compiler: the engine broker,
// the session's per-operator heap caps (SET SORTHEAP / SET HASHHEAP), and
// nothing else — operators acquire their reservation at Open and release
// it at Close. A nil Governor (library users, tests) hands out nil
// reservations: the same operator code, never denied, never spilling.
type Governor struct {
	Broker *Broker
	// SortLimit / HashLimit cap each operator's reservation in bytes;
	// 0 = the full heap budget.
	SortLimit int64
	HashLimit int64
}

// Acquire opens a reservation on heap h with the session's limit applied.
// Nil-safe: a nil governor (or nil broker) returns a nil reservation,
// which grants everything.
func (g *Governor) Acquire(h Heap) *Reservation {
	if g == nil || g.Broker == nil {
		return nil
	}
	limit := int64(0)
	switch h {
	case SortHeap:
		limit = g.SortLimit
	case HashHeap:
		limit = g.HashLimit
	}
	return g.Broker.Reserve(h, limit)
}

// ParseBytes parses a human byte size: a plain integer is bytes; suffixes
// K/KB, M/MB, G/GB scale by 2^10/2^20/2^30 (case-insensitive, optional
// whitespace). The SET SORTHEAP statement and the DASHDB_SORTHEAP /
// DASHDB_HASHHEAP environment knobs share this syntax.
func ParseBytes(s string) (int64, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "KB"):
		mult, t = 1<<10, t[:len(t)-2]
	case strings.HasSuffix(t, "MB"):
		mult, t = 1<<20, t[:len(t)-2]
	case strings.HasSuffix(t, "GB"):
		mult, t = 1<<30, t[:len(t)-2]
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, t[:len(t)-1]
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, t[:len(t)-1]
	case strings.HasSuffix(t, "G"):
		mult, t = 1<<30, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("mem: invalid byte size %q", s)
	}
	return n * mult, nil
}
