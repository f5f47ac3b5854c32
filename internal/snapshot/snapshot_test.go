package snapshot

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPinSeesPublishedState(t *testing.T) {
	m := NewManager(10)
	e := m.Pin()
	if e.State() != 10 || e.seq != 1 {
		t.Fatalf("initial epoch = (%d, seq %d), want (10, 1)", e.State(), e.seq)
	}
	m.Publish(20)
	// The pinned epoch keeps its state; a fresh pin sees the new one.
	if e.State() != 10 {
		t.Fatalf("pinned epoch mutated: %d", e.State())
	}
	e2 := m.Pin()
	if e2.State() != 20 || e2.seq != 2 {
		t.Fatalf("after publish = (%d, seq %d), want (20, 2)", e2.State(), e2.seq)
	}
	e.Release()
	e2.Release()
}

func TestCleanupWaitsForDrain(t *testing.T) {
	m := NewManager(1)
	reader := m.Pin()

	var cleaned atomic.Bool
	m.Publish(2, func() { cleaned.Store(true) })
	if cleaned.Load() {
		t.Fatal("cleanup ran while the superseded epoch was pinned")
	}
	if got := m.Info(); got.Behind != 1 || got.PinnedReaders != 1 {
		t.Fatalf("Info = %+v, want Behind=1 PinnedReaders=1", got)
	}
	reader.Release()
	if !cleaned.Load() {
		t.Fatal("cleanup did not run after the last pin dropped")
	}
	if got := m.Info(); got.Behind != 0 || got.Drained != 1 {
		t.Fatalf("Info after drain = %+v, want Behind=0 Drained=1", got)
	}
}

func TestCleanupRunsImmediatelyWithoutReaders(t *testing.T) {
	m := NewManager(1)
	ran := false
	m.Publish(2, func() { ran = true })
	if !ran {
		t.Fatal("cleanup deferred although nothing was pinned")
	}
}

// TestDrainOrder pins an OLD epoch and verifies that a YOUNGER superseded
// epoch's cleanup still waits: epochs retire strictly in publication
// order, because readers of the old epoch may reach resources the young
// epoch's cleanup would free.
func TestDrainOrder(t *testing.T) {
	m := NewManager(1)
	oldReader := m.Pin() // pins epoch 1

	var order []int
	m.Publish(2, func() { order = append(order, 1) })
	young := m.Pin() // pins epoch 2
	m.Publish(3, func() { order = append(order, 2) })
	young.Release() // epoch 2 drained, but epoch 1 still pinned
	if len(order) != 0 {
		t.Fatalf("cleanups ran out of order: %v", order)
	}
	oldReader.Release()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("cleanup order = %v, want [1 2]", order)
	}
}

func TestReleaseIsExact(t *testing.T) {
	m := NewManager(1)
	a := m.Pin()
	b := m.Pin()
	var cleaned atomic.Bool
	m.Publish(2, func() { cleaned.Store(true) })
	a.Release()
	if cleaned.Load() {
		t.Fatal("cleanup ran with one pin outstanding")
	}
	b.Release()
	if !cleaned.Load() {
		t.Fatal("cleanup missing after final release")
	}
}

// TestConcurrentPinPublish hammers Pin/Release against Publish under the
// race detector: every reader must observe a fully formed state, every
// cleanup must run exactly once, and the retire queue must fully drain.
func TestConcurrentPinPublish(t *testing.T) {
	type state struct{ a, b int } // invariant: b == 2*a
	m := NewManager(&state{1, 2})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := m.Pin()
				s := e.State()
				if s.b != 2*s.a {
					t.Errorf("torn state: %+v", *s)
					e.Release()
					return
				}
				e.Release()
			}
		}()
	}
	var cleanups atomic.Int64
	const publishes = 2000
	for i := 2; i < publishes+2; i++ {
		m.Publish(&state{i, 2 * i}, func() { cleanups.Add(1) })
	}
	close(stop)
	wg.Wait()
	// All readers have released; the queue must drain completely.
	if got := m.Info(); got.Behind != 0 || got.PinnedReaders != 0 {
		t.Fatalf("Info after quiesce = %+v, want fully drained", got)
	}
	if n := cleanups.Load(); n != publishes {
		t.Fatalf("cleanups ran %d times, want %d", n, publishes)
	}
}
