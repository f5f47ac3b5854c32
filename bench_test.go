// Package dashdb_test's benchmarks regenerate the paper's evaluation as
// testing.B benches: one per Table 1 row (Tests 1–4) and one per figure
// claim (F-A…F-H, see DESIGN.md §4). Comparative benches report custom
// metrics (speedup, hit-ratio, skip fraction) alongside ns/op. Scales are
// small so `go test -bench=.` completes on a laptop; cmd/benchrunner runs
// the same experiments at larger scales with full reports.
package dashdb_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"dashdb/internal/bench"
	"dashdb/internal/bitpack"
	"dashdb/internal/bufferpool"
	"dashdb/internal/clusterfs"
	"dashdb/internal/columnar"
	"dashdb/internal/deploy"
	"dashdb/internal/encoding"
	"dashdb/internal/mpp"
	"dashdb/internal/page"
	"dashdb/internal/spark"
	"dashdb/internal/types"
	"dashdb/internal/workload"
)

const benchScale = 120_000

// --- Table 1 ----------------------------------------------------------------

func BenchmarkTable1Test1CustomerSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Test1(benchScale, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.AvgSpeedup(), "avg-speedup")
		b.ReportMetric(rep.MedianSpeedup(), "median-speedup")
	}
}

func BenchmarkTable1Test2CustomerConcurrent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Test2(benchScale/2, 160, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Improvement(), "workload-improvement")
	}
}

func BenchmarkTable1Test3TPCDS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Test3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.AvgSpeedup(), "avg-speedup")
	}
}

func BenchmarkTable1Test4BDInsightThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Test4(benchScale/2, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Advantage(), "qph-advantage")
	}
}

// --- Figures ------------------------------------------------------------------

func BenchmarkFigADeployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reg := deploy.NewRegistry()
		reg.Push(deploy.Image{Name: "dashdb-local", Version: "1.0", SizeBytes: 4 << 30})
		var hosts []*deploy.Host
		for h := 0; h < 12; h++ {
			hosts = append(hosts, deploy.NewHost(string(rune('a'+h)),
				deploy.Hardware{Cores: 20, RAMBytes: 256 << 30, StorageBytes: 7 << 40}))
		}
		dep, err := deploy.DeployCluster(reg, hosts, "dashdb-local", "1.0", clusterfs.New())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(dep.Timeline.Total().Minutes(), "simulated-minutes")
	}
}

func BenchmarkFigBCompression(b *testing.B) {
	fin := workload.NewFinancial(benchScale, 1)
	rows := fin.Transactions()
	schema := fin.Tables()[1].Schema
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := columnar.NewTable(uint32(i+1), "t", schema, columnar.Config{})
		if err := t.InsertBatch(rows); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Compression().Ratio, "compression-ratio")
	}
}

func BenchmarkFigCColumnVsRow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.FigureC(benchScale/2, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.AvgSpeedup(), "col-vs-row-speedup")
	}
}

var skippingTable = sync.OnceValue(func() *columnar.Table {
	fin := workload.NewFinancial(benchScale*2, 1)
	t := columnar.NewTable(1, "transactions", fin.Tables()[1].Schema, columnar.Config{})
	if err := t.InsertBatch(fin.Transactions()); err != nil {
		panic(err)
	}
	return t
})

func BenchmarkFigDDataSkipping(b *testing.B) {
	t := skippingTable()
	end, _ := types.ParseDate("2016-12-30")
	lo := types.NewDate(end.Int() - 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.ResetStats()
		snap := t.Snapshot()
		err := snap.Scan([]columnar.Pred{{Col: 2, Op: encoding.OpGE, Val: lo}}, nil, 1, nil, func(int, *columnar.Batch) bool { return true })
		snap.Release()
		if err != nil {
			b.Fatal(err)
		}
		st := t.Stats()
		total := st.StridesVisited + st.StridesSkipped
		b.ReportMetric(float64(st.StridesSkipped)/float64(total), "skip-fraction")
	}
}

func BenchmarkFigDNoSkippingBaseline(b *testing.B) {
	t := skippingTable()
	end, _ := types.ParseDate("2016-12-30")
	lo := types.NewDate(end.Int() - 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := t.Snapshot()
		err := snap.ScanNaive([]columnar.Pred{{Col: 2, Op: encoding.OpGE, Val: lo}},
			func(*columnar.Batch) bool { return true })
		snap.Release()
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigEBufferPool(b *testing.B) {
	mkPage := func(id page.ID) (*page.Page, error) {
		codes := make([]uint64, 256)
		for i := range codes {
			codes[i] = uint64(i)
		}
		return page.Pack(id, codes, nil), nil
	}
	one, _ := mkPage(page.ID{})
	for i := 0; i < b.N; i++ {
		pool := bufferpool.New(100*one.MemSize(), bufferpool.NewProbabilistic(42))
		for p := 0; p < 200; p++ {
			pool.Get(page.ID{Table: 1, Stride: uint32(p)}, mkPage)
		}
		pool.ResetStats()
		for r := 0; r < 8; r++ {
			for p := 0; p < 200; p++ {
				pool.Get(page.ID{Table: 1, Stride: uint32(p)}, mkPage)
			}
		}
		b.ReportMetric(pool.Stats().HitRatio(), "prob-hit-ratio")
	}
}

func BenchmarkFigFSIMD(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := bitpack.NewVector(8)
	for i := 0; i < 1<<20; i++ {
		v.Append(rng.Uint64() & 255)
	}
	out := bitpack.NewBitmap(v.Len())
	b.ResetTimer()
	var swar, scalar time.Duration
	for i := 0; i < b.N; i++ {
		out.Reset()
		t0 := time.Now()
		v.Compare(bitpack.CmpLT, 128, out)
		swar += time.Since(t0)
		out.Reset()
		t1 := time.Now()
		v.CompareScalar(bitpack.CmpLT, 128, out)
		scalar += time.Since(t1)
	}
	if swar > 0 {
		b.ReportMetric(float64(scalar)/float64(swar), "swar-speedup")
	}
}

func BenchmarkFigGHAFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := mpp.NewCluster([]mpp.NetNode{
			{Name: "A", Cores: 8, MemBytes: 64 << 20},
			{Name: "B", Cores: 8, MemBytes: 64 << 20},
			{Name: "C", Cores: 8, MemBytes: 64 << 20},
			{Name: "D", Cores: 8, MemBytes: 64 << 20},
		}, 6, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Query(`CREATE TABLE t (a BIGINT NOT NULL)`); err != nil {
			b.Fatal(err)
		}
		var rows []types.Row
		for r := 0; r < 24_000; r++ {
			rows = append(rows, types.Row{types.NewInt(int64(r))})
		}
		if err := c.Insert("t", rows); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		// Measured: failover + first correct query on the survivors.
		if err := c.FailNode("D"); err != nil {
			b.Fatal(err)
		}
		r, err := c.Query(`SELECT COUNT(*) FROM t`)
		if err != nil || r.Rows[0][0].Int() != 24_000 {
			b.Fatalf("failover query %v err %v", r, err)
		}
	}
}

func BenchmarkFigHSparkIntegration(b *testing.B) {
	c, err := mpp.NewCluster([]mpp.NetNode{
		{Name: "A", Cores: 4, MemBytes: 32 << 20},
		{Name: "B", Cores: 4, MemBytes: 32 << 20},
	}, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "x", Kind: types.KindFloat, Nullable: true},
		{Name: "y", Kind: types.KindFloat, Nullable: true},
	}
	if err := c.CreateTable("pts", schema, mpp.TableOptions{DistributeBy: "id"}); err != nil {
		b.Fatal(err)
	}
	var rows []types.Row
	for i := 0; i < 20_000; i++ {
		x := float64(i % 1000)
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewFloat(x), types.NewFloat(3*x + 2)})
	}
	if err := c.Insert("pts", rows); err != nil {
		b.Fatal(err)
	}
	d := spark.NewDispatcher(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := d.SubmitFunc("bench", "glm", func(ctx *spark.Context) (interface{}, error) {
			return ctx.TrainGLM("pts", "", "y", []string{"x"}, spark.Gaussian)
		})
		if _, err := d.Wait(id); err != nil {
			b.Fatal(err)
		}
	}
}
