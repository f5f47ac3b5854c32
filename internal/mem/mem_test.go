package mem

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// inUse returns a heap's currently reserved bytes.
func inUse(b *Broker, h Heap) int64 { return b.heaps[h].used.Load() }

func TestBrokerGrowDenyRelease(t *testing.T) {
	b := NewBroker(1000, 1000, "")
	defer b.Close()
	r := b.Reserve(SortHeap, 0)
	if !r.Grow(600) {
		t.Fatal("first grow within budget denied")
	}
	if r.Grow(600) {
		t.Fatal("grow past budget granted")
	}
	if got := inUse(b, SortHeap); got != 600 {
		t.Fatalf("InUse = %d, want 600 (denied grow must roll back)", got)
	}
	r.Shrink(200)
	if !r.Grow(600) {
		t.Fatal("grow after shrink denied")
	}
	r.Close()
	if got := inUse(b, SortHeap); got != 0 {
		t.Fatalf("InUse after Close = %d, want 0", got)
	}
	r.Close() // idempotent
	if got := inUse(b, SortHeap); got != 0 {
		t.Fatalf("InUse after double Close = %d, want 0", got)
	}
}

func TestReservationLimitBelowBudget(t *testing.T) {
	b := NewBroker(1000, 1000, "")
	defer b.Close()
	r := b.Reserve(HashHeap, 100)
	if r.Grow(101) {
		t.Fatal("grow past reservation limit granted")
	}
	if !r.Grow(100) {
		t.Fatal("grow within limit denied")
	}
	r.Close()
}

func TestMustGrowOvercommits(t *testing.T) {
	b := NewBroker(100, 100, "")
	defer b.Close()
	r := b.Reserve(SortHeap, 0)
	r.MustGrow(500)
	if used, budget := inUse(b, SortHeap), b.Budget(SortHeap); used <= budget {
		t.Fatalf("sort heap holds %d of %d bytes, want more after overcommit", used, budget)
	}
	if !b.Exhausted() {
		t.Fatal("Exhausted = false after overcommit")
	}
	r.Close()
	if b.Exhausted() {
		t.Fatal("Exhausted = true after release")
	}
}

func TestBrokerConcurrent(t *testing.T) {
	b := NewBroker(1<<20, 1<<20, "")
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := b.Reserve(SortHeap, 0)
			defer r.Close()
			for j := 0; j < 1000; j++ {
				if r.Grow(512) {
					r.Shrink(512)
				}
			}
		}()
	}
	wg.Wait()
	if got := inUse(b, SortHeap); got != 0 {
		t.Fatalf("InUse after concurrent churn = %d, want 0", got)
	}
}

func TestNilSafety(t *testing.T) {
	var g *Governor
	r := g.Acquire(SortHeap)
	if r != nil {
		t.Fatal("nil governor must hand out nil reservations")
	}
	if !r.Grow(1 << 40) {
		t.Fatal("nil reservation must grant everything")
	}
	r.MustGrow(1)
	r.Shrink(1)
	r.NoteSpill(1)
	if r.Used() != 0 || r.SpillRuns() != 0 || r.SpillBytes() != 0 {
		t.Fatal("nil reservation counters must read zero")
	}
	r.Close()
	g2 := &Governor{} // governor without a broker behaves the same
	if r2 := g2.Acquire(HashHeap); r2 != nil {
		t.Fatal("brokerless governor must hand out nil reservations")
	}
}

func TestSpillFileRoundTrip(t *testing.T) {
	b := NewBroker(0, 0, t.TempDir())
	defer b.Close()
	r := b.Reserve(SortHeap, 0)
	defer r.Close()
	f, err := r.NewSpillFile("sort")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("dashdb"), 10000)
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(payload)) {
		t.Fatalf("Size = %d, want %d", f.Size(), len(payload))
	}
	if err := f.Rewind(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round-trip mismatch")
	}
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write after Rewind must fail")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal("double Close must be a no-op, got", err)
	}
}

func TestSpillDirLifecycle(t *testing.T) {
	parent := t.TempDir()
	b := NewBroker(0, 0, parent)
	r := b.Reserve(HashHeap, 0)
	f, err := r.NewSpillFile("join")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("spill")); err != nil {
		t.Fatal(err)
	}
	dir, err := b.SpillDir()
	if err != nil {
		t.Fatal(err)
	}
	if n := countSpillFiles(t, dir); n != 1 {
		t.Fatalf("open spill files = %d, want 1", n)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n := countSpillFiles(t, dir); n != 0 {
		t.Fatalf("spill files after file Close = %d, want 0", n)
	}
	r.Close()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(parent); err != nil || len(entries) != 0 {
		t.Fatalf("parent not empty after broker Close: %v %v", entries, err)
	}
}

func TestSweepRemovesLeftovers(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"dashdb-sort-1.spill", "dashdb-join-2.spill"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, "keep.dat")
	if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := Sweep(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Sweep removed %d, want 2", n)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatal("Sweep must not touch non-spill files:", err)
	}
	// Reusing a caller-owned dir sweeps leftovers at first use.
	if err := os.WriteFile(filepath.Join(dir, "stale.spill"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	b := NewBroker(0, 0, dir)
	if _, err := b.SpillDir(); err != nil {
		t.Fatal(err)
	}
	if n := countSpillFiles(t, dir); n != 0 {
		t.Fatalf("stale spill files after reuse = %d, want 0", n)
	}
	b.Close()
}

func countSpillFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == SpillSuffix {
			n++
		}
	}
	return n
}

func TestStatsAndSpillCounters(t *testing.T) {
	b := NewBroker(1000, 2000, "")
	defer b.Close()
	r := b.Reserve(SortHeap, 0)
	r.MustGrow(400)
	r.NoteSpill(1234)
	r.NoteSpill(766)
	if r.SpillRuns() != 2 || r.SpillBytes() != 2000 {
		t.Fatalf("reservation spill counters = %d/%d", r.SpillRuns(), r.SpillBytes())
	}
	r.Close()
	// Counters must survive reservation Close so EXPLAIN ANALYZE can read
	// them after the operator released its memory.
	if r.SpillRuns() != 2 || r.SpillBytes() != 2000 {
		t.Fatal("spill counters lost on Close")
	}
	stats, active := b.Stats()
	if active != 0 {
		t.Fatalf("active = %d, want 0", active)
	}
	var sort HeapStat
	for _, s := range stats {
		if s.Heap == SortHeap {
			sort = s
		}
	}
	if sort.BudgetBytes != 1000 || sort.PeakBytes != 400 || sort.SpillRuns != 2 || sort.SpillBytes != 2000 {
		t.Fatalf("sort heap stats = %+v", sort)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"1024", 1024, false},
		{"1KB", 1 << 10, false},
		{"64kb", 64 << 10, false},
		{"1MB", 1 << 20, false},
		{"2G", 2 << 30, false},
		{"10m", 10 << 20, false},
		{" 8 MB ", 8 << 20, false},
		{"", 0, true},
		{"-1", 0, true},
		{"lots", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseBytes(%q): want error, got %d", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}
