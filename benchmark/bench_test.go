package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"dashdb/internal/telemetry"
)

const testScale = 12_000

func testOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 0, rounds: 2, scale: testScale, trace: trace, tmp: t.TempDir()}
}

// The seed alone fixes the statement list and the reference results; another
// seed draws other literals.
func TestSeedFixesInputs(t *testing.T) {
	a := buildRound(generate(testScale, 7), 7, mixes[wlSerial])
	b := buildRound(generate(testScale, 7), 7, mixes[wlSerial])
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different statements or references")
	}
	c := buildRound(generate(testScale, 8), 8, mixes[wlSerial])
	same := 0
	for i := range a {
		if a[i].sql == c[i].sql {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("another seed produced the same statement list")
	}
	if len(a) != mixes[wlSerial].total() {
		t.Fatalf("%d statements in a round, want %d", len(a), mixes[wlSerial].total())
	}
	wa := buildWriterRound(generate(testScale, 7), 7).pass(3)
	wb := buildWriterRound(generate(testScale, 7), 7).pass(3)
	if !reflect.DeepEqual(wa, wb) {
		t.Fatal("same seed produced different writer statements")
	}
}

func TestStatistics(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(xs, 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := tail(xs); got != 0 {
		t.Errorf("tail of 10 samples = %v, want 0 (fewer than ten samples beyond p95)", got)
	}
	many := make([]float64, 200)
	for i := range many {
		many[i] = float64(i)
	}
	if got := tail(many); math.Abs(got-189.05) > 1e-9 {
		t.Errorf("tail of 0..199 = %v, want 189.05", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// parent 0..100 with children 10..40 and 30..60 (overlapping) and a
	// grandchild 10..20; a child that overruns its parent is clipped.
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},
		{ID: 4, Parent: 2, Start: 10, End: 20},
		{ID: 5, Parent: 3, Start: 50, End: 90},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 10, 5: 40}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

// An operator's self time is its wall time minus the sum of its children's,
// although the telemetry record says nothing of when each child ran.
func TestOperatorSelfTime(t *testing.T) {
	tr := newTracer()
	stmtID, root := tr.newStmt(clsJoin)
	tr.addPlan(root, stmtID, clsJoin, &telemetry.QueryRecord{Start: tr.epoch, Elapsed: 100, Ops: []telemetry.OpRecord{
		{Depth: 0, Name: "GROUP BY", Wall: 95},
		{Depth: 1, Name: "HASH JOIN", Wall: 90},
		{Depth: 2, Name: "COLUMNAR SCAN accounts", Wall: 30},
		{Depth: 2, Name: "COLUMNAR SCAN transactions", Wall: 40},
	}}, 1)
	self := selfTimes(tr.spans)
	got := map[string]time.Duration{}
	for _, s := range tr.spans {
		got[s.Name] += self[s.ID]
	}
	want := map[string]time.Duration{"exec.drain": 5, "exec.groupby": 5, "exec.hashjoin": 20, "exec.scan": 70}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times by operator kind = %v, want %v", got, want)
	}
}

// Every emitted name fits the contract, the lists fit its limits, and
// BENCHMARK.json names exactly what the benchmark emits.
func TestMetricNamesMatchContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEndDefs(), perLayerDefs()} {
		for _, d := range defs {
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
				t.Errorf("metric %q unit %q: bad or repeated", d.name, d.unit)
			}
			seen[d.name] = true
		}
	}
	if n := len(endToEndDefs()); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, limit 16", n)
	}
	if n := len(perLayerDefs()); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
	if n := len(workloadNames); n < 2 || n > 8 {
		t.Errorf("%d workloads, limit 8", n)
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var contract struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []entry, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark emits %d", len(got), what, len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json %s[%d] = %v, the benchmark emits %v", what, i, got[i], d)
			}
		}
	}
	check("end_to_end", contract.EndToEnd, endToEndDefs())
	check("per_layer", contract.PerLayer, perLayerDefs())
	for i, w := range workloadNames {
		if i >= len(contract.Workloads) || contract.Workloads[i].Name != w {
			t.Errorf("BENCHMARK.json workloads do not list %s at %d", w, i)
		}
	}
}

// Every workload runs end to end at a small scale, traced rounds included,
// with no failed statement, every end-to-end metric above zero, and each
// layer busy only where its workload says it should be.
func TestSmokeAllWorkloads(t *testing.T) {
	layers := map[string]map[string]float64{}
	for _, w := range workloadNames {
		rep, err := newRunner(testOptions(t, w, true)).run()
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d %v", w, rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
		}
		for _, d := range append(endToEndDefs(), unboundedDefs()...) {
			if v := rep.Untraced[d.name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w, d.name, v)
			}
		}
		if len(rep.Spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w)
		}
		layers[w] = rep.PerLayer
	}
	zero := func(w, m string) {
		if v := layers[w][m]; v != 0 {
			t.Errorf("%s: %s = %v, want 0", w, m, v)
		}
	}
	positive := func(w, m string) {
		if v := layers[w][m]; !(v > 0) {
			t.Errorf("%s: %s = %v, want > 0", w, m, v)
		}
	}
	for _, w := range []string{wlSerial, wlMixed} {
		zero(w, "mem.spill_runs")
		zero(w, "bufferpool.evictions")
	}
	positive(wlConstrained, "mem.spill_runs")
	positive(wlConstrained, "bufferpool.evictions")
	for _, w := range []string{wlSerial, wlConstrained} {
		zero(w, "snapshot.epochs_published")
		zero(w, "wlm.queue_wait_ms")
	}
	positive(wlMixed, "snapshot.epochs_published")
	positive(wlMixed, "core.insert_us")
	for _, w := range []string{wlSerial, wlConstrained, wlMixed} {
		zero(w, "mpp.query_ms.join")
		zero(w, "shardrpc.ping_us")
		positive(w, "sql.compile_us.point")
		positive(w, "exec.drain_ms.agg")
	}
	positive(wlCluster, "mpp.shuffle_joins") // join takes the shuffle path
	positive(wlCluster, "mpp.query_ms.join")
	positive(wlCluster, "shardrpc.exec_ms.point")
	positive(wlCluster, "shardrpc.ping_us")
}

// A reference that disagrees with the engine is a failed operation.
func TestCorruptedReferenceIsReported(t *testing.T) {
	r := newRunner(testOptions(t, wlSerial, false))
	for i := range r.stmts {
		if r.stmts[i].class == clsAgg {
			r.stmts[i].want[0][1] = r.stmts[i].want[1][1] // swap in another group's COUNT(*)
			break
		}
	}
	rep, err := r.run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 || len(rep.Failures) == 0 {
		t.Fatalf("corrupted reference went unreported: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}
