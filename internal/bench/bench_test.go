package bench

import (
	stdsql "database/sql"
	"fmt"
	"strings"
	"testing"

	"dashdb/driver"
	"dashdb/internal/columnar"
	"dashdb/internal/core"
	"dashdb/internal/encoding"
	"dashdb/internal/exec"
	"dashdb/internal/mem"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
	"dashdb/internal/workload"
)

// The experiment smoke tests run at small scale: they verify correctness
// (both engines agree on every query's result) and direction (dashDB
// wins), not absolute factors — those are reported by BenchmarkTable1*
// in the repository root and cmd/benchrunner at larger scales.

func TestTest1ShapeAndAgreement(t *testing.T) {
	rep, err := Test1(30_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ResultsAgree() {
		for _, tm := range rep.Timings {
			if !tm.RowsAgree {
				t.Errorf("query %s: dashdb %d rows, appliance %d rows", tm.Name, tm.FastRows, tm.SlowRows)
			}
		}
		t.Fatal("engines disagree")
	}
	if !raceEnabled && rep.AvgSpeedup() <= 1 {
		t.Errorf("dashDB should win on average: avg=%.2f", rep.AvgSpeedup())
	}
	if rep.AvgSpeedup() < rep.MedianSpeedup() {
		t.Logf("note: avg %.1f < median %.1f (paper shape has avg >> median)",
			rep.AvgSpeedup(), rep.MedianSpeedup())
	}
	t.Logf("Test1 (scaled): avg %.1fx median %.1fx", rep.AvgSpeedup(), rep.MedianSpeedup())
}

func TestTest2Shape(t *testing.T) {
	rep, err := Test2(20_000, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled && rep.Improvement() <= 0.5 {
		t.Errorf("workload improvement degenerate: %.2fx", rep.Improvement())
	}
	t.Logf("Test2 (scaled): %.1fx whole-workload improvement", rep.Improvement())
}

func TestTest3ShapeAndAgreement(t *testing.T) {
	rep, err := Test3(30_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ResultsAgree() {
		for _, tm := range rep.Timings {
			if !tm.RowsAgree {
				t.Errorf("query %s: dashdb %d rows, appliance %d rows", tm.Name, tm.FastRows, tm.SlowRows)
			}
		}
		t.Fatal("engines disagree")
	}
	if !raceEnabled && rep.AvgSpeedup() <= 1 {
		t.Errorf("dashDB should win on TPC-DS: avg=%.2f", rep.AvgSpeedup())
	}
	t.Logf("Test3 (scaled): avg %.1fx median %.1fx", rep.AvgSpeedup(), rep.MedianSpeedup())
}

func TestTest4Shape(t *testing.T) {
	rep, err := Test4(30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FastRan != rep.SlowRan {
		t.Fatalf("unequal work: %d vs %d queries", rep.FastRan, rep.SlowRan)
	}
	if !raceEnabled && rep.Advantage() <= 1 {
		t.Errorf("dashDB should out-throughput the cloud store: %.2fx", rep.Advantage())
	}
	t.Logf("Test4 (scaled): %.1fx QpH advantage", rep.Advantage())
}

func TestFigureCShape(t *testing.T) {
	rep, err := FigureC(30_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ResultsAgree() {
		t.Fatal("engines disagree")
	}
	if !raceEnabled && rep.AvgSpeedup() < 2 {
		t.Errorf("columnar vs row+index advantage too small: %.1fx", rep.AvgSpeedup())
	}
	t.Logf("FigureC (scaled): avg %.1fx (paper band 10-50x at full scale)", rep.AvgSpeedup())
}

func TestFigurePShape(t *testing.T) {
	s, err := FigureP(20_000, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"F-P morsel-driven parallelism", "dop  1:", "dop  2:", "group-by"} {
		if !strings.Contains(s, want) {
			t.Fatalf("figure missing %q:\n%s", want, s)
		}
	}
}

// BenchmarkParallelScan measures the morsel-driven scan at several dop
// values against the serial baseline (dop=1 sub-benchmark). On a 4+ core
// machine dop=4 should clear 2x; on fewer cores the parallel path should
// at least not regress materially.
func BenchmarkParallelScan(b *testing.B) {
	tbl, err := parallelBenchTable(200_000)
	if err != nil {
		b.Fatal(err)
	}
	preds := []columnar.Pred{{Col: 2, Op: encoding.OpGE, Val: types.NewFloat(64)}}
	for _, dop := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scanCount(tbl, preds, dop, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelGroupBy measures the vectorized GroupByOp at several
// degrees (dop=1 is the serial plan).
func BenchmarkParallelGroupBy(b *testing.B) {
	tbl, err := parallelBenchTable(200_000)
	if err != nil {
		b.Fatal(err)
	}
	preds := []columnar.Pred{{Col: 2, Op: encoding.OpGE, Val: types.NewFloat(64)}}
	for _, dop := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := drainOp(groupByAt(tbl, preds, dop)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstrumentedScan is BenchmarkParallelScan with telemetry
// attached: per-worker sharded stride/row counters. Compare sub-benchmark
// to sub-benchmark against BenchmarkParallelScan; the acceptance budget
// for the delta is 5%.
func BenchmarkInstrumentedScan(b *testing.B) {
	tbl, err := parallelBenchTable(200_000)
	if err != nil {
		b.Fatal(err)
	}
	preds := []columnar.Pred{{Col: 2, Op: encoding.OpGE, Val: types.NewFloat(64)}}
	for _, dop := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ss := telemetry.NewScanStats(dop)
				if _, err := scanCount(tbl, preds, dop, ss); err != nil {
					b.Fatal(err)
				}
				if ss.RowsScanned() == 0 {
					b.Fatal("instrumented scan recorded no rows")
				}
			}
		})
	}
}

func TestFigureSShape(t *testing.T) {
	s, err := FigureS(20_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"F-S memory governor", "external sort", "grace join", "group-by spill", "10% heap", "spill runs="} {
		if !strings.Contains(s, want) {
			t.Fatalf("figure missing %q:\n%s", want, s)
		}
	}
}

// BenchmarkExternalSort measures the sort operator at full, half and
// one-tenth heap: heap=100 is the in-memory baseline, the smaller budgets
// pay external-merge I/O for bounded memory (experiment F-S).
func BenchmarkExternalSort(b *testing.B) {
	tbl, err := parallelBenchTable(200_000)
	if err != nil {
		b.Fatal(err)
	}
	w := spillWorkloads(tbl)[0]
	peak, err := heapPeak(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, pct := range []int64{100, 50, 10} {
		b.Run(fmt.Sprintf("heap=%d", pct), func(b *testing.B) {
			broker := mem.NewBroker(peak*pct/100+4096, peak*pct/100+4096, b.TempDir())
			defer broker.Close()
			gov := &mem.Governor{Broker: broker}
			for i := 0; i < b.N; i++ {
				if err := drainOp(w.build(gov)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraceJoin measures the self-join at full, half and one-tenth
// hash heap; smaller budgets spill build partitions Grace-style.
func BenchmarkGraceJoin(b *testing.B) {
	tbl, err := parallelBenchTable(100_000)
	if err != nil {
		b.Fatal(err)
	}
	w := spillWorkloads(tbl)[1]
	peak, err := heapPeak(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, pct := range []int64{100, 50, 10} {
		b.Run(fmt.Sprintf("heap=%d", pct), func(b *testing.B) {
			broker := mem.NewBroker(peak*pct/100+4096, peak*pct/100+4096, b.TempDir())
			defer broker.Close()
			gov := &mem.Governor{Broker: broker}
			for i := 0; i < b.N; i++ {
				if err := drainOp(w.build(gov)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompressedFilter measures a residual OR-of-point-lookups
// filter over a FREQ-DICT column with values decoded at the scan vs
// dictionary codes answered by the SWAR range kernels.
func BenchmarkCompressedFilter(b *testing.B) {
	fact, _, err := dictBenchTables(200_000)
	if err != nil {
		b.Fatal(err)
	}
	pred := ocFilterPred("category-03-xxxxxxxxxxxx", "category-31-xxxxxxxxxxxx")
	for _, mode := range []struct {
		name       string
		compressed bool
	}{{"decoded", false}, {"compressed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op := &exec.FilterOp{Child: ocScan(fact, mode.compressed), Pred: pred}
				if err := drainOp(op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompressedJoin measures the dim⋈fact hash join with the fact
// table as build side: decoded string keys vs dictionary-code keys.
func BenchmarkCompressedJoin(b *testing.B) {
	fact, dim, err := dictBenchTables(200_000)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name       string
		compressed bool
	}{{"decoded", false}, {"compressed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			broker := mem.NewBroker(1<<40, 1<<40, b.TempDir())
			defer broker.Close()
			for i := 0; i < b.N; i++ {
				if err := drainOp(governedJoin(fact, dim, mode.compressed, &mem.Governor{Broker: broker})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompressedGroupBy measures parallel aggregation grouping on
// decoded string keys vs dictionary codes (decode once per distinct
// group at emit).
func BenchmarkCompressedGroupBy(b *testing.B) {
	fact, _, err := dictBenchTables(200_000)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name       string
		compressed bool
	}{{"decoded", false}, {"compressed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := drainOp(dictGroupBy(fact, mode.compressed)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDriverEngineMixedWorkloadWithLoad runs the Test 2 statement mix —
// including its bulk-load flushes — through the database/sql driver, the
// path an application would take: trickle DML as one-shot Execs, load
// via driver.BulkInserter. Verifies every statement executes and the
// loaded rows are queryable afterwards.
func TestDriverEngineMixedWorkloadWithLoad(t *testing.T) {
	driver.Attach("bench-mixed", core.Open(core.Config{BufferPoolBytes: 16 << 20}))
	db, err := stdsql.Open("dashdb", "mem://bench-mixed")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	eng := &DriverEngine{DB: db}

	fin := workload.NewFinancial(5_000, 1)
	if err := eng.Setup(fin.Tables()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Load("accounts", fin.Accounts()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Load("transactions", fin.Transactions()); err != nil {
		t.Fatal(err)
	}
	stmts := fin.MixedStatements(200)
	bulk, loaded := 0, 0
	for i := range stmts {
		n, err := eng.Execute(&stmts[i])
		if err != nil {
			t.Fatalf("statement %d (%s): %v", i, stmts[i].Kind, err)
		}
		if stmts[i].Kind == workload.KindBulkLoad {
			bulk++
			loaded += n
			if n != len(stmts[i].Rows) {
				t.Fatalf("bulk flush reported %d rows, want %d", n, len(stmts[i].Rows))
			}
		}
	}
	if bulk == 0 {
		t.Fatal("mix carried no bulk-load statements")
	}
	var total int
	if err := db.QueryRow("SELECT COUNT(*) FROM transactions").Scan(&total); err != nil {
		t.Fatal(err)
	}
	if total < 5_000+loaded {
		t.Fatalf("transactions %d, want at least %d (base) + %d (bulk-loaded)", total, 5_000, loaded)
	}
	t.Logf("driver path: %d bulk flushes, %d rows loaded mid-workload", bulk, loaded)
}
