package bufferpool

import (
	"fmt"
	"sync"

	"dashdb/internal/page"
)

// Stats counts pool activity; all counters are cumulative.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	BytesIn   uint64 // bytes loaded on misses
}

// HitRatio returns hits / (hits+misses), or 0 before any access.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Loader fetches a page on a cache miss (from the clustered filesystem or
// by re-materializing from the table's open stride).
type Loader func(id page.ID) (*page.Page, error)

// Pool is a byte-budgeted page cache with a pluggable replacement policy.
// It is safe for concurrent use.
type Pool struct {
	mu       sync.Mutex
	capacity int
	used     int
	frames   map[page.ID]*page.Page
	policy   Policy
	stats    Stats
}

// New creates a pool with the given byte capacity and policy. A capacity
// of 0 disables caching entirely (every access is a miss), which is useful
// for isolating raw scan cost in experiments.
func New(capacity int, policy Policy) *Pool {
	return &Pool{
		capacity: capacity,
		frames:   make(map[page.ID]*page.Page),
		policy:   policy,
	}
}

// Capacity returns the pool's byte budget.
func (p *Pool) Capacity() int { return p.capacity }

// Resize changes the byte budget, evicting immediately if shrinking. The
// elasticity path uses this when shards are re-associated and per-shard
// RAM is recomputed (paper §II.E).
func (p *Pool) Resize(capacity int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capacity = capacity
	p.evictToFitLocked(0)
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats zeroes the counters (between experiment phases).
func (p *Pool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
}

// Get returns the page, loading it through the loader on a miss and
// caching it subject to the byte budget.
func (p *Pool) Get(id page.ID, load Loader) (*page.Page, error) {
	p.mu.Lock()
	if pg, ok := p.frames[id]; ok {
		p.stats.Hits++
		p.policy.Access(id)
		p.mu.Unlock()
		return pg, nil
	}
	p.stats.Misses++
	p.mu.Unlock()

	// Load outside the lock: concurrent misses may duplicate work but
	// never corrupt state; the second admit finds the frame present.
	pg, err := load(id)
	if err != nil {
		return nil, fmt.Errorf("bufferpool: load %v: %w", id, err)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.BytesIn += uint64(pg.MemSize())
	if _, ok := p.frames[id]; ok {
		return p.frames[id], nil
	}
	size := pg.MemSize()
	if size > p.capacity {
		// Page larger than the whole pool: serve uncached.
		return pg, nil
	}
	p.evictToFitLocked(size)
	p.frames[id] = pg
	p.used += size
	p.policy.Admit(id)
	return pg, nil
}

// Len returns the number of cached pages.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// UsedBytes returns current cache occupancy.
func (p *Pool) UsedBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Evict drops one cached page (page-generation reclamation: superseded
// generations are removed precisely, without disturbing the live
// generation's cache residency).
func (p *Pool) Evict(id page.ID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pg, ok := p.frames[id]; ok {
		p.used -= pg.MemSize()
		delete(p.frames, id)
		p.policy.Forget(id)
	}
}

// Invalidate drops any cached pages of the given table (DROP/TRUNCATE).
func (p *Pool) Invalidate(table uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, pg := range p.frames {
		if id.Table == table {
			p.used -= pg.MemSize()
			delete(p.frames, id)
			p.policy.Forget(id)
		}
	}
}

// evictToFitLocked evicts victims until need bytes fit the budget.
func (p *Pool) evictToFitLocked(need int) {
	for p.used+need > p.capacity && p.policy.Len() > 0 {
		victim := p.policy.Victim()
		if pg, ok := p.frames[victim]; ok {
			p.used -= pg.MemSize()
			delete(p.frames, victim)
			p.stats.Evictions++
		}
	}
}

// OptimalHits replays an access trace under Belady's MIN policy with the
// given capacity in pages (all pages assumed equal size) and returns the
// number of hits — the unreachable upper bound the probabilistic policy is
// measured against in experiment F-E.
func OptimalHits(trace []page.ID, capacityPages int) int {
	// Precompute next-use positions.
	next := make([]int, len(trace))
	lastSeen := make(map[page.ID]int)
	for i := len(trace) - 1; i >= 0; i-- {
		if j, ok := lastSeen[trace[i]]; ok {
			next[i] = j
		} else {
			next[i] = 1 << 60
		}
		lastSeen[trace[i]] = i
	}
	cache := make(map[page.ID]int) // id -> next use position
	hits := 0
	for i, id := range trace {
		if _, ok := cache[id]; ok {
			hits++
			cache[id] = next[i]
			continue
		}
		if len(cache) >= capacityPages {
			// Evict the page used farthest in the future.
			var victim page.ID
			far := -1
			for cid, nu := range cache {
				if nu > far {
					far, victim = nu, cid
				}
			}
			delete(cache, victim)
		}
		cache[id] = next[i]
	}
	return hits
}
