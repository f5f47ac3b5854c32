package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestOpStatsObserve(t *testing.T) {
	var s OpStats
	for _, rows := range []int{100, 24, -1} { // -1 = EOS: time only
		s.Enter()
		time.Sleep(time.Millisecond)
		s.Exit(rows)
	}
	if s.Rows() != 124 {
		t.Fatalf("rows %d", s.Rows())
	}
	if s.Batches() != 2 {
		t.Fatalf("batches %d", s.Batches())
	}
	if s.Wall() < 3*time.Millisecond {
		t.Fatalf("wall %v", s.Wall())
	}
}

// TestOpStatsEnterExitIsElapsed pins the several-workers contract:
// overlapping calls charge the span with a call in flight once, so wall
// time never exceeds what elapsed (a per-call sum would be about twice it).
func TestOpStatsEnterExitIsElapsed(t *testing.T) {
	var s OpStats
	start := time.Now()
	s.Enter()
	s.Enter()
	time.Sleep(5 * time.Millisecond)
	s.Exit(10)
	s.Exit(-1)
	elapsed := time.Since(start)
	if w := s.Wall(); w < 5*time.Millisecond || w > elapsed {
		t.Fatalf("wall %v, want the overlap counted once: within [5ms, %v]", w, elapsed)
	}
	if s.Rows() != 10 || s.Batches() != 1 {
		t.Fatalf("rows %d batches %d", s.Rows(), s.Batches())
	}
	// A later, disjoint call adds its own span.
	before := s.Wall()
	s.Enter()
	time.Sleep(time.Millisecond)
	s.Exit(1)
	if s.Wall() < before+time.Millisecond {
		t.Fatalf("disjoint call not charged: %v after %v", s.Wall(), before)
	}
}

func TestOpStatsNilSafe(t *testing.T) {
	var s *OpStats
	s.AddWall(time.Second)
	s.Enter()
	s.Exit(5)
	if s.Rows() != 0 || s.Batches() != 0 || s.Wall() != 0 {
		t.Fatal("nil OpStats must read as zero")
	}
}

func TestScanStatsSharding(t *testing.T) {
	ss := NewScanStats(4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := ss.Shard(w)
			for i := 0; i < 100; i++ {
				sh.Visit()
				sh.Rows(10)
			}
			for i := 0; i < 50; i++ {
				sh.Skip()
			}
		}(w)
	}
	wg.Wait()
	if got := ss.StridesVisited(); got != 400 {
		t.Fatalf("visited %d", got)
	}
	if got := ss.StridesSkipped(); got != 200 {
		t.Fatalf("skipped %d", got)
	}
	if got := ss.RowsScanned(); got != 4000 {
		t.Fatalf("rows %d", got)
	}
	if r := ss.SkipRatio(); r < 0.33 || r > 0.34 {
		t.Fatalf("skip ratio %f", r)
	}
}

// TestScanShardFillsOneCacheLine pins a shard at one 64-byte line: the
// zero-size noCopy field takes no space only while it comes first.
func TestScanShardFillsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(ScanShard{}); got != 64 {
		t.Fatalf("ScanShard is %d bytes, want 64", got)
	}
}

func TestScanStatsNilAndOutOfRange(t *testing.T) {
	var ss *ScanStats
	ss.Shard(0).Visit() // nil shard: no-op
	if ss.StridesVisited() != 0 || ss.SkipRatio() != 0 {
		t.Fatal("nil ScanStats must read as zero")
	}
	real := NewScanStats(2)
	real.Shard(7).Visit() // out of range folds into shard 0
	if real.StridesVisited() != 1 {
		t.Fatal("out-of-range worker must fold into shard 0")
	}
}

func TestRegistryRingWraparound(t *testing.T) {
	r := NewRegistry(4)
	for i := 1; i <= 10; i++ {
		r.Record(QueryRecord{ID: r.NextID(), SQL: fmt.Sprintf("q%d", i), Status: "ok"})
	}
	h := r.History()
	if len(h) != 4 {
		t.Fatalf("history len %d, want ring cap 4", len(h))
	}
	for i, q := range h {
		want := fmt.Sprintf("q%d", i+7) // oldest retained is q7
		if q.SQL != want {
			t.Fatalf("slot %d = %s, want %s", i, q.SQL, want)
		}
	}
	if tot := r.Totals(); tot.Queries != 10 {
		t.Fatalf("total queries %d", tot.Queries)
	}
}

func TestRegistryCounters(t *testing.T) {
	r := NewRegistry(8)
	r.Record(QueryRecord{ID: 1, Status: "ok", Rows: 5})
	r.Record(QueryRecord{ID: 2, Status: "error", Err: "boom"})
	r.Record(QueryRecord{ID: 3, Status: "ok", Slow: true, Rows: 2})
	tot := r.Totals()
	if tot.Queries != 3 || tot.Failed != 1 || tot.Slow != 1 || tot.RowsOut != 7 {
		t.Fatalf("%+v", tot)
	}
}

func TestSlowThreshold(t *testing.T) {
	r := NewRegistry(1)
	if r.SlowThreshold() != DefaultSlowThreshold {
		t.Fatalf("default threshold %v", r.SlowThreshold())
	}
	r.SetSlowThreshold(0)
	if r.SlowThreshold() != 0 {
		t.Fatal("threshold must update")
	}
}

func TestMergeShardRecords(t *testing.T) {
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	recs := []QueryRecord{
		{
			ID: 1, Start: base, Elapsed: 10 * time.Millisecond, Rows: 3, Dop: 2, Status: "ok",
			Ops: []OpRecord{
				{Seq: 0, Name: "GROUP BY", Rows: 3, Batches: 1, Wall: 8 * time.Millisecond},
				{Seq: 1, Name: "SCAN", Rows: 100, HasScan: true, StridesVisited: 5, StridesSkipped: 5},
			},
		},
		{
			ID: 2, Start: base.Add(-time.Millisecond), Elapsed: 25 * time.Millisecond, Rows: 4, Dop: 4, Status: "ok",
			Ops: []OpRecord{
				{Seq: 0, Name: "GROUP BY", Rows: 4, Batches: 1, Wall: 20 * time.Millisecond},
				{Seq: 1, Name: "SCAN", Rows: 200, HasScan: true, StridesVisited: 7, StridesSkipped: 3},
			},
		},
	}
	m := MergeShardRecords(recs, len(recs))
	if m.Shards != 2 {
		t.Fatalf("shards %d", m.Shards)
	}
	if m.Elapsed != 25*time.Millisecond {
		t.Fatalf("elapsed must be the max across shards, got %v", m.Elapsed)
	}
	if !m.Start.Equal(base.Add(-time.Millisecond)) {
		t.Fatalf("start must be the earliest shard start, got %v", m.Start)
	}
	if m.Rows != 7 || m.Dop != 4 {
		t.Fatalf("rows=%d dop=%d", m.Rows, m.Dop)
	}
	if m.Ops[0].Rows != 7 || m.Ops[0].Wall != 20*time.Millisecond {
		t.Fatalf("op0 %+v", m.Ops[0])
	}
	if m.Ops[1].Rows != 300 || m.Ops[1].StridesVisited != 12 || m.Ops[1].StridesSkipped != 8 {
		t.Fatalf("op1 %+v", m.Ops[1])
	}
	if r := m.Ops[1].SkipRatio(); r != 0.4 {
		t.Fatalf("merged skip ratio %f", r)
	}
}

func TestMergeShardRecordsErrorPropagates(t *testing.T) {
	m := MergeShardRecords([]QueryRecord{
		{ID: 1, Status: "ok"},
		{ID: 2, Status: "error", Err: "shard 1 died"},
	}, 2)
	if m.Status != "error" || m.Err != "shard 1 died" {
		t.Fatalf("%+v", m)
	}
}

func TestMergeShardRecordsMissingShardDegrades(t *testing.T) {
	// A 4-shard scatter where only 3 records arrived: the merge must say
	// so, not present the 3-shard sum as the query's cost.
	recs := []QueryRecord{
		{ID: 1, Status: "ok", Rows: 10, Elapsed: 5 * time.Millisecond},
		{ID: 2, Status: "ok", Rows: 20, Elapsed: 9 * time.Millisecond},
		{ID: 3, Status: "ok", Rows: 30, Elapsed: 2 * time.Millisecond},
	}
	m := MergeShardRecords(recs, 4)
	if m.Status != "degraded" {
		t.Fatalf("status %q, want degraded", m.Status)
	}
	if m.Err != "1 of 4 shard records missing" {
		t.Fatalf("err %q", m.Err)
	}
	if m.Shards != 3 || m.Rows != 60 {
		t.Fatalf("shards=%d rows=%d", m.Shards, m.Rows)
	}
	// A shard-reported error outranks the degradation marker.
	recs[1].Status, recs[1].Err = "error", "conn reset"
	m = MergeShardRecords(recs, 4)
	if m.Status != "error" || m.Err != "conn reset" {
		t.Fatalf("%+v", m)
	}
	// All records missing still degrades instead of returning a zero
	// "ok" record.
	m = MergeShardRecords(nil, 4)
	if m.Status != "degraded" || m.Err != "4 of 4 shard records missing" {
		t.Fatalf("%+v", m)
	}
}

func TestMergeShardRecordsSkewedElapsed(t *testing.T) {
	// Gather-path timing: shards run concurrently, so one straggler
	// defines the query's elapsed time; summing would overstate it, and
	// taking the first record's value would understate it.
	recs := []QueryRecord{
		{ID: 1, Status: "ok", Elapsed: 2 * time.Millisecond, Dop: 8,
			Ops: []OpRecord{{Name: "SCAN", Wall: 2 * time.Millisecond, Rows: 100}}},
		{ID: 2, Status: "ok", Elapsed: 900 * time.Millisecond, Dop: 2,
			Ops: []OpRecord{{Name: "SCAN", Wall: 880 * time.Millisecond, Rows: 90000}}},
		{ID: 3, Status: "ok", Elapsed: 3 * time.Millisecond, Dop: 8,
			Ops: []OpRecord{{Name: "SCAN", Wall: 3 * time.Millisecond, Rows: 140}}},
	}
	m := MergeShardRecords(recs, 3)
	if m.Status != "ok" && m.Status != "" {
		t.Fatalf("status %q", m.Status)
	}
	if m.Elapsed != 900*time.Millisecond {
		t.Fatalf("elapsed %v, want the straggler's 900ms", m.Elapsed)
	}
	if m.Ops[0].Wall != 880*time.Millisecond {
		t.Fatalf("op wall %v, want straggler max", m.Ops[0].Wall)
	}
	if m.Ops[0].Rows != 90240 {
		t.Fatalf("op rows %d, want sum across shards", m.Ops[0].Rows)
	}
	if m.Dop != 8 {
		t.Fatalf("dop %d", m.Dop)
	}
}

func TestRegistryConcurrentRecord(t *testing.T) {
	r := NewRegistry(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record(QueryRecord{ID: r.NextID(), Status: "ok", Rows: 1})
				r.History()
				r.Totals()
			}
		}()
	}
	wg.Wait()
	if tot := r.Totals(); tot.Queries != 1600 {
		t.Fatalf("queries %d", tot.Queries)
	}
	if len(r.History()) != 16 {
		t.Fatalf("history %d", len(r.History()))
	}
}
