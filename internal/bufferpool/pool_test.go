package bufferpool

import (
	"testing"

	"dashdb/internal/page"
)

// makePage builds a page of roughly the given payload size in bytes.
// cached reports whether the page is in the pool's frames.
func cached(p *Pool, id page.ID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.frames[id]
	return ok
}

func makePage(id page.ID, payloadBytes int) *page.Page {
	p := page.New(id, 15) // 16-bit cells → 4 codes/word → 2 bytes/code
	n := payloadBytes / 2
	if n > page.StrideSize {
		n = page.StrideSize
	}
	for i := 0; i < n; i++ {
		p.Codes.Append(uint64(i % 1000))
	}
	return p
}

func pid(i int) page.ID { return page.ID{Table: 1, Column: 0, Stride: uint32(i)} }

func loaderFor(t *testing.T, size int) Loader {
	return func(id page.ID) (*page.Page, error) {
		return makePage(id, size), nil
	}
}

func TestPoolHitMiss(t *testing.T) {
	pool := New(1<<20, NewLRU())
	ld := loaderFor(t, 512)
	if _, err := pool.Get(pid(1), ld); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(pid(1), ld); err != nil {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.HitRatio() != 0.5 {
		t.Fatalf("hit ratio %f", s.HitRatio())
	}
}

func TestPoolEviction(t *testing.T) {
	one := makePage(pid(0), 512).MemSize()
	pool := New(3*one, NewLRU())
	ld := loaderFor(t, 512)
	for i := 0; i < 5; i++ {
		if _, err := pool.Get(pid(i), ld); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Len() > 3 {
		t.Fatalf("pool holds %d pages, budget 3", pool.Len())
	}
	if pool.UsedBytes() > pool.Capacity() {
		t.Fatalf("used %d > capacity %d", pool.UsedBytes(), pool.Capacity())
	}
	// LRU: pages 2,3,4 should remain.
	if cached(pool, pid(0)) || cached(pool, pid(1)) {
		t.Error("LRU should have evicted oldest pages")
	}
	if !cached(pool, pid(4)) {
		t.Error("most recent page must be cached")
	}
}

func TestPoolOversizedPageServedUncached(t *testing.T) {
	pool := New(100, NewLRU())
	pg, err := pool.Get(pid(1), loaderFor(t, 4096))
	if err != nil || pg == nil {
		t.Fatal(err)
	}
	if pool.Len() != 0 {
		t.Error("oversized page must not be cached")
	}
}

func TestPoolInvalidate(t *testing.T) {
	pool := New(1<<20, NewLRU())
	ld := loaderFor(t, 512)
	for i := 0; i < 4; i++ {
		pool.Get(page.ID{Table: 1, Stride: uint32(i)}, ld)
		pool.Get(page.ID{Table: 2, Stride: uint32(i)}, ld)
	}
	pool.Invalidate(1)
	if pool.Len() != 4 {
		t.Fatalf("after invalidate: %d pages", pool.Len())
	}
	if cached(pool, page.ID{Table: 1, Stride: 0}) {
		t.Error("table 1 pages must be gone")
	}
}

func TestPoolResizeEvicts(t *testing.T) {
	one := makePage(pid(0), 512).MemSize()
	pool := New(10*one, NewProbabilistic(1))
	ld := loaderFor(t, 512)
	for i := 0; i < 10; i++ {
		pool.Get(pid(i), ld)
	}
	pool.Resize(2 * one)
	if pool.UsedBytes() > 2*one {
		t.Fatalf("resize did not evict: used=%d", pool.UsedBytes())
	}
}

// cyclicScanHits replays r rounds of a cyclic scan over n pages through a
// pool holding c pages and returns the hit ratio.
func cyclicScanHits(t *testing.T, policy Policy, nPages, cPages, rounds int) float64 {
	t.Helper()
	one := makePage(pid(0), 512).MemSize()
	pool := New(cPages*one, policy)
	ld := loaderFor(t, 512)
	// Warm-up round, not measured.
	for i := 0; i < nPages; i++ {
		pool.Get(pid(i), ld)
	}
	pool.ResetStats()
	for r := 0; r < rounds; r++ {
		for i := 0; i < nPages; i++ {
			pool.Get(pid(i), ld)
		}
	}
	return pool.Stats().HitRatio()
}

// TestScanResistance reproduces the shape of experiment F-E: on a cyclic
// scan larger than the cache, LRU's hit ratio collapses to ~0 while the
// probabilistic policy retains a stable subset, approaching the
// theoretical cache/data bound that Belady's MIN achieves.
func TestScanResistance(t *testing.T) {
	const nPages, cPages, rounds = 100, 50, 8
	lru := cyclicScanHits(t, NewLRU(), nPages, cPages, rounds)
	prob := cyclicScanHits(t, NewProbabilistic(42), nPages, cPages, rounds)
	if lru > 0.01 {
		t.Errorf("LRU on cyclic scan should get ~0 hits, got %.3f", lru)
	}
	if prob < 0.25 {
		t.Errorf("probabilistic policy should retain a stable subset, got %.3f", prob)
	}
	// Optimal for this trace:
	var trace []page.ID
	for r := 0; r < rounds; r++ {
		for i := 0; i < nPages; i++ {
			trace = append(trace, pid(i))
		}
	}
	opt := float64(OptimalHits(trace, cPages)) / float64(len(trace))
	if prob > opt+0.01 {
		t.Errorf("probabilistic %.3f exceeds optimal %.3f — instrumentation bug", prob, opt)
	}
	t.Logf("cyclic scan hit ratios: LRU=%.3f PROB=%.3f OPT=%.3f", lru, prob, opt)
}

func TestOptimalHitsSmall(t *testing.T) {
	trace := []page.ID{pid(1), pid(2), pid(3), pid(1), pid(2), pid(3)}
	// Capacity 2, MIN: misses 1,2,3 then hit? MIN keeps pages used soonest.
	// Accesses: 1m 2m 3m(evict page used farthest) ...
	got := OptimalHits(trace, 2)
	if got != 2 {
		t.Errorf("OptimalHits=%d want 2", got)
	}
	if OptimalHits(trace, 3) != 3 {
		t.Error("capacity 3 must hit all repeats")
	}
}

func TestCardinalPolicyBehaviours(t *testing.T) {
	for _, pol := range []Policy{NewLRU(), NewClock(), NewProbabilistic(7)} {
		t.Run(pol.Name(), func(t *testing.T) {
			for i := 0; i < 5; i++ {
				pol.Admit(pid(i))
			}
			if pol.Len() != 5 {
				t.Fatalf("len %d", pol.Len())
			}
			pol.Access(pid(0))
			seen := map[page.ID]bool{}
			for i := 0; i < 5; i++ {
				v := pol.Victim()
				if seen[v] {
					t.Fatalf("victim %v returned twice", v)
				}
				seen[v] = true
			}
			if pol.Len() != 0 {
				t.Fatalf("len after draining: %d", pol.Len())
			}
		})
	}
}

func TestPolicyForget(t *testing.T) {
	for _, pol := range []Policy{NewLRU(), NewClock(), NewProbabilistic(7)} {
		pol.Admit(pid(1))
		pol.Admit(pid(2))
		pol.Forget(pid(1))
		if pol.Len() != 1 {
			t.Errorf("%s: Forget failed", pol.Name())
		}
		if v := pol.Victim(); v != pid(2) {
			t.Errorf("%s: victim %v", pol.Name(), v)
		}
		// Forgetting an unknown id is a no-op.
		pol.Forget(pid(99))
	}
}

func TestClockSecondChance(t *testing.T) {
	c := NewClock()
	c.Admit(pid(1))
	c.Admit(pid(2))
	// Both referenced; first victim pass clears bits, second evicts pid(1).
	if v := c.Victim(); v != pid(1) {
		t.Errorf("victim %v want first-admitted", v)
	}
}

func TestPoolConcurrentAccess(t *testing.T) {
	pool := New(1<<20, NewProbabilistic(3))
	ld := loaderFor(t, 256)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				pool.Get(pid(i%20), ld)
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	s := pool.Stats()
	if s.Hits+s.Misses != 8*200 {
		t.Fatalf("lost accesses: %+v", s)
	}
}

func BenchmarkPoolGetHit(b *testing.B) {
	pool := New(1<<24, NewProbabilistic(1))
	ld := func(id page.ID) (*page.Page, error) { return makePage(id, 2048), nil }
	for i := 0; i < 64; i++ {
		pool.Get(pid(i), ld)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Get(pid(i%64), ld)
	}
}

// TestConcurrentStats hammers one pool from many goroutines and checks the
// counters add up exactly: every Get is either a hit or a miss, and under
// -race this validates the stat accounting against concurrent eviction.
func TestConcurrentStats(t *testing.T) {
	one := makePage(pid(0), 512).MemSize()
	pool := New(8*one, NewLRU()) // small enough to force eviction churn
	ld := loaderFor(t, 512)
	const goroutines, gets = 8, 500
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < gets; i++ {
				if _, err := pool.Get(pid((g*7+i)%32), ld); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	s := pool.Stats()
	if s.Hits+s.Misses != goroutines*gets {
		t.Fatalf("hits %d + misses %d != %d gets", s.Hits, s.Misses, goroutines*gets)
	}
	if s.Misses < 32 {
		t.Fatalf("misses %d, want at least one per distinct page", s.Misses)
	}
	if s.Evictions == 0 {
		t.Fatal("expected eviction churn with 8-page budget over 32 pages")
	}
	if pool.UsedBytes() > pool.Capacity() {
		t.Fatalf("used %d over capacity %d", pool.UsedBytes(), pool.Capacity())
	}
}
