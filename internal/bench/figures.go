package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"dashdb/internal/bitpack"
	"dashdb/internal/bufferpool"
	"dashdb/internal/clusterfs"
	"dashdb/internal/columnar"
	"dashdb/internal/deploy"
	"dashdb/internal/encoding"
	"dashdb/internal/exec"
	"dashdb/internal/mpp"
	"dashdb/internal/page"
	"dashdb/internal/spark"
	"dashdb/internal/types"
	"dashdb/internal/workload"
)

// FigureA reports deployment timelines for growing cluster sizes
// (§II.A: fully configured clusters in < 30 minutes).
func FigureA(sizes []int) (string, error) {
	var b strings.Builder
	b.WriteString("F-A deployment timeline (simulated), paper bound: 30 min\n")
	for _, n := range sizes {
		reg := deploy.NewRegistry()
		reg.Push(deploy.Image{Name: "dashdb-local", Version: "1.0", SizeBytes: 4 << 30})
		var hosts []*deploy.Host
		for i := 0; i < n; i++ {
			hosts = append(hosts, deploy.NewHost(fmt.Sprintf("h%02d", i),
				deploy.Hardware{Cores: 20, RAMBytes: 256 << 30, StorageBytes: 7 << 40}))
		}
		dep, err := deploy.DeployCluster(reg, hosts, "dashdb-local", "1.0", clusterfs.New())
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %2d nodes: %5.1f min, %d shards, fully configured\n",
			n, dep.Timeline.Total().Minutes(), dep.Cluster.NShards())
	}
	return b.String(), nil
}

// FigureB reports compression ratios on the financial and TPC-DS data
// (§II.B.1: 2–3x smaller; §III: 25TB → ~9TB ≈ 2.8x).
func FigureB(scale int) (string, error) {
	var b strings.Builder
	b.WriteString("F-B compression vs naive row format, paper band: 2-3x\n")
	fin := workload.NewFinancial(scale, 1)
	t1 := columnar.NewTable(1, "transactions", fin.Tables()[1].Schema, columnar.Config{})
	if err := t1.InsertBatch(fin.Transactions()); err != nil {
		return "", err
	}
	r1 := t1.Compression()
	fmt.Fprintf(&b, "  financial transactions: raw=%5.1fMB compressed=%5.1fMB ratio=%.1fx\n",
		float64(r1.RawBytes)/1e6, float64(r1.CompressedBytes)/1e6, r1.Ratio)

	ds := workload.NewTPCDS(scale, 2)
	t2 := columnar.NewTable(2, "store_sales", ds.Tables()[3].Schema, columnar.Config{})
	if err := t2.InsertBatch(ds.StoreSales()); err != nil {
		return "", err
	}
	r2 := t2.Compression()
	fmt.Fprintf(&b, "  tpcds store_sales:      raw=%5.1fMB compressed=%5.1fMB ratio=%.1fx\n",
		float64(r2.RawBytes)/1e6, float64(r2.CompressedBytes)/1e6, r2.Ratio)
	return b.String(), nil
}

// FigureD reports data skipping effectiveness (§II.B.4): synopsis size
// vs data size and strides skipped under a narrowing date window.
func FigureD(scale int) (string, error) {
	var b strings.Builder
	b.WriteString("F-D data skipping (per-stride synopsis), paper: metadata ~1000x smaller\n")
	fin := workload.NewFinancial(scale, 1)
	t := columnar.NewTable(1, "transactions", fin.Tables()[1].Schema, columnar.Config{})
	if err := t.InsertBatch(fin.Transactions()); err != nil {
		return "", err
	}
	r := t.Compression()
	fmt.Fprintf(&b, "  synopsis %dKB vs pages %dKB (%.0fx smaller)\n",
		r.SynopsisBytes>>10, r.PageBytes>>10, float64(r.PageBytes)/float64(maxInt(r.SynopsisBytes, 1)))
	dateCol := 2
	end, err := types.ParseDate("2016-12-30")
	if err != nil {
		return "", err
	}
	for _, windowDays := range []int{7 * 365, 365, 90, 7} {
		t.ResetStats()
		lo := types.NewDate(end.Int() - int64(windowDays))
		n, err := t.CountWhere([]columnar.Pred{{Col: dateCol, Op: encoding.OpGE, Val: lo}})
		if err != nil {
			return "", err
		}
		st := t.Stats()
		total := st.StridesVisited + st.StridesSkipped
		fmt.Fprintf(&b, "  window %4dd: %7d rows, strides visited %4d / skipped %4d (%.0f%% skipped)\n",
			windowDays, n, st.StridesVisited, st.StridesSkipped,
			100*float64(st.StridesSkipped)/float64(maxInt64(total, 1)))
	}
	return b.String(), nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxInt64(a uint64, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// FigureE reports buffer-pool hit ratios under a cyclic scan for the
// probabilistic policy vs LRU/CLOCK and Belady's optimal (§II.B.5:
// "within a few percentiles of optimal").
func FigureE(nPages, cachePages, rounds int) string {
	var b strings.Builder
	b.WriteString("F-E buffer pool on cyclic scan (cache holds ")
	fmt.Fprintf(&b, "%d of %d pages)\n", cachePages, nPages)

	buildPage := func(id page.ID) *page.Page {
		p := page.New(id, 15)
		for i := 0; i < 256; i++ {
			p.Codes.Append(uint64(i))
		}
		return p
	}
	mkPage := func(id page.ID) (*page.Page, error) {
		return buildPage(id), nil
	}
	var trace []page.ID
	for r := 0; r < rounds; r++ {
		for i := 0; i < nPages; i++ {
			trace = append(trace, page.ID{Table: 1, Stride: uint32(i)})
		}
	}
	one := buildPage(page.ID{})
	for _, policy := range []bufferpool.Policy{
		bufferpool.NewLRU(), bufferpool.NewClock(), bufferpool.NewProbabilistic(42),
	} {
		pool := bufferpool.New(cachePages*one.MemSize(), policy)
		for i := 0; i < nPages; i++ { // warm-up round
			pool.Get(page.ID{Table: 1, Stride: uint32(i)}, mkPage)
		}
		pool.ResetStats()
		for _, id := range trace {
			pool.Get(id, mkPage)
		}
		avg := pool.Stats().HitRatio()
		// Steady state: one more round, measured alone.
		pool.ResetStats()
		for i := 0; i < nPages; i++ {
			pool.Get(page.ID{Table: 1, Stride: uint32(i)}, mkPage)
		}
		fmt.Fprintf(&b, "  %-6s hit ratio %.3f (steady state %.3f)\n",
			policy.Name(), avg, pool.Stats().HitRatio())
	}
	opt := float64(bufferpool.OptimalHits(trace, cachePages)) / float64(len(trace))
	fmt.Fprintf(&b, "  %-6s hit ratio %.3f (Belady upper bound)\n", "OPT", opt)
	return b.String()
}

// FigureF reports SWAR vs scalar predicate evaluation across code widths
// (§II.B.6: word-parallel evaluation for any code size).
func FigureF() string {
	var b strings.Builder
	b.WriteString("F-F software-SIMD predicate evaluation, 1M codes\n")
	rng := rand.New(rand.NewSource(1))
	for _, width := range []uint{1, 2, 4, 8, 12, 17, 24} {
		v := bitpack.NewVector(width)
		max := uint64(1)<<width - 1
		for i := 0; i < 1<<20; i++ {
			v.Append(rng.Uint64() & max)
		}
		out := bitpack.NewBitmap(v.Len())
		t0 := time.Now()
		v.Compare(bitpack.CmpLT, max/2, out)
		swar := time.Since(t0)
		out.Reset()
		t1 := time.Now()
		v.CompareScalar(bitpack.CmpLT, max/2, out)
		scalar := time.Since(t1)
		fmt.Fprintf(&b, "  width %2d (%2d codes/word): SWAR %8v  scalar %8v  speedup %4.1fx\n",
			width, v.PerWord(), swar.Round(time.Microsecond), scalar.Round(time.Microsecond),
			float64(scalar)/float64(swar))
	}
	return b.String()
}

// FigureG reports the Figure 9 walkthrough: balance before/after failover
// and growth, with query continuity verified.
func FigureG() (string, error) {
	var b strings.Builder
	b.WriteString("F-G HA re-association (Figure 9)\n")
	c, err := mpp.NewCluster([]mpp.NetNode{
		{Name: "A", Cores: 8, MemBytes: 64 << 20},
		{Name: "B", Cores: 8, MemBytes: 64 << 20},
		{Name: "C", Cores: 8, MemBytes: 64 << 20},
		{Name: "D", Cores: 8, MemBytes: 64 << 20},
	}, 6, nil)
	if err != nil {
		return "", err
	}
	if _, err := c.Query(`CREATE TABLE t (a BIGINT NOT NULL)`); err != nil {
		return "", err
	}
	var rows []types.Row
	for i := 0; i < 24_000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	if err := c.Insert("t", rows); err != nil {
		return "", err
	}
	before, err := c.Query(`SELECT COUNT(*), SUM(a) FROM t`)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  before: %s  count=%s\n", c.Assignment(), before.Rows[0][0])
	if err := c.FailNode("D"); err != nil {
		return "", err
	}
	after, err := c.Query(`SELECT COUNT(*), SUM(a) FROM t`)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  fail D: %s  count=%s (results identical: %v)\n",
		c.Assignment(), after.Rows[0][0],
		types.Compare(before.Rows[0][1], after.Rows[0][1]) == 0)
	if err := c.AddNode(mpp.NetNode{Name: "D", Cores: 8, MemBytes: 64 << 20}); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  rejoin: %s\n", c.Assignment())
	return b.String(), nil
}

// FigureH reports the integrated-Spark measurements: pushdown transfer
// reduction and scaling of a distributed GLM as nodes grow (Figures 6–7).
func FigureH(rowsPerNode int) (string, error) {
	var b strings.Builder
	b.WriteString("F-H integrated Spark: pushdown and scaling\n")
	for _, nodes := range []int{1, 2, 4} {
		var specs []mpp.NetNode
		for i := 0; i < nodes; i++ {
			specs = append(specs, mpp.NetNode{Name: fmt.Sprintf("n%d", i), Cores: 4, MemBytes: 32 << 20})
		}
		c, err := mpp.NewCluster(specs, 2, nil)
		if err != nil {
			return "", err
		}
		schema := types.Schema{
			{Name: "id", Kind: types.KindInt},
			{Name: "x", Kind: types.KindFloat, Nullable: true},
			{Name: "y", Kind: types.KindFloat, Nullable: true},
		}
		if err := c.CreateTable("pts", schema, mpp.TableOptions{DistributeBy: "id"}); err != nil {
			return "", err
		}
		var rows []types.Row
		total := rowsPerNode * nodes
		for i := 0; i < total; i++ {
			x := float64(i % 1000)
			rows = append(rows, types.Row{
				types.NewInt(int64(i)), types.NewFloat(x), types.NewFloat(3*x + 2),
			})
		}
		if err := c.Insert("pts", rows); err != nil {
			return "", err
		}
		d, err := spark.NewDispatcher(c.ShardEngines())
		if err != nil {
			return "", err
		}
		t0 := time.Now()
		id := d.SubmitFunc("bench", "glm", func(ctx *spark.Context) (interface{}, error) {
			ds, err := ctx.Table("pts", "")
			if err != nil {
				return nil, err
			}
			return ds.TrainGLM(2, []int{1}, spark.GLMConfig{Family: spark.Gaussian, Iterations: 50, LearnRate: 0.3})
		})
		if _, err := d.Wait(id); err != nil {
			d.Close()
			return "", err
		}
		glmTime := time.Since(t0)

		// Pushdown vs full transfer.
		r0, _ := d.TransferStats()
		id = d.SubmitFunc("bench", "push", func(ctx *spark.Context) (interface{}, error) {
			ds, err := ctx.Table("pts", "x < 100")
			if err != nil {
				return nil, err
			}
			return ds.Count(), nil
		})
		if _, err := d.Wait(id); err != nil {
			d.Close()
			return "", err
		}
		r1, _ := d.TransferStats()
		d.Close()
		moved := r1 - r0
		fmt.Fprintf(&b, "  %d node(s): GLM over %7d rows in %7v; pushdown moved %d of %d rows (%.0f%% saved)\n",
			nodes, total, glmTime.Round(time.Millisecond),
			moved, int64(total), 100*(1-float64(moved)/float64(total)))
	}
	return b.String(), nil
}

// FigureP reports morsel-driven parallel speedups: the serial scan and the
// dop-1 GROUP BY against the same scan and operator at growing dop (§II.A's
// auto-configured query parallelism put to work; stride = morsel). Ratios
// above 1.0x mean the parallel path is faster. On a single-core runner
// the ratios hover near 1.0x — the figure reports runtime.NumCPU so that
// is visible in the output.
func FigureP(rows int, dops []int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "F-P morsel-driven parallelism (%d cores, %d rows)\n", runtime.NumCPU(), rows)
	tbl, err := parallelBenchTable(rows)
	if err != nil {
		return "", err
	}
	preds := []columnar.Pred{{Col: 2, Op: encoding.OpGE, Val: types.NewFloat(64)}}

	serialScan := timeIt(func() error {
		n := 0
		err := tbl.Scan(preds, func(bt *columnar.Batch) bool { n += bt.Len(); return true })
		_ = n
		return err
	})
	serialAgg := timeIt(func() error { return drainOp(groupByAt(tbl, preds, 1)) })

	for _, dop := range dops {
		d := dop
		parScan := timeIt(func() error {
			var n atomic.Int64
			return tbl.ParallelScan(preds, d, func(_ int, bt *columnar.Batch) bool {
				n.Add(int64(bt.Len()))
				return true
			})
		})
		parAgg := timeIt(func() error { return drainOp(groupByAt(tbl, preds, d)) })
		fmt.Fprintf(&b, "  dop %2d: scan %8v vs %8v (%.2fx)   group-by %8v vs %8v (%.2fx)\n",
			d, serialScan.Round(time.Microsecond), parScan.Round(time.Microsecond),
			float64(serialScan)/float64(maxDuration(parScan, 1)),
			serialAgg.Round(time.Microsecond), parAgg.Round(time.Microsecond),
			float64(serialAgg)/float64(maxDuration(parAgg, 1)))
	}
	return b.String(), nil
}

// parallelBenchTable builds the synthetic scan/aggregation input: a
// skewed group key, an integer measure and a float measure.
func parallelBenchTable(rows int) (*columnar.Table, error) {
	rng := rand.New(rand.NewSource(7))
	schema := types.Schema{
		{Name: "g", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
		{Name: "f", Kind: types.KindFloat},
	}
	tbl := columnar.NewTable(90, "par_bench", schema, columnar.Config{})
	batch := make([]types.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, types.Row{
			types.NewInt(int64(rng.Intn(97))),
			types.NewInt(int64(rng.Intn(1_000_000))),
			types.NewFloat(float64(rng.Intn(4096)) * 0.5),
		})
	}
	if err := tbl.InsertBatch(batch); err != nil {
		return nil, err
	}
	return tbl, nil
}

func figAggSpecs() []exec.AggSpec {
	return []exec.AggSpec{
		{Func: exec.AggCountStar, Name: "CNT"},
		{Func: exec.AggSum, Arg: exec.ColRef(1), Name: "SUM_V"},
		{Func: exec.AggMin, Arg: exec.ColRef(1), Name: "MIN_V"},
		{Func: exec.AggMax, Arg: exec.ColRef(1), Name: "MAX_V"},
		{Func: exec.AggAvg, Arg: exec.ColRef(2), Name: "AVG_F"},
	}
}

// groupByAt is the plan the compiler builds at SET PARALLELISM dop: the one
// GroupByOp over a dop-way scan. dop 1 is the serial plan.
func groupByAt(tbl *columnar.Table, preds []columnar.Pred, dop int) exec.Operator {
	scan := exec.NewScan(tbl, preds, nil)
	scan.Dop = dop
	scan.EnableCompressed()
	return &exec.GroupByOp{
		Child:     scan,
		GroupBy:   []exec.Expr{exec.ColRef(0)},
		GroupCols: types.Schema{{Name: "g", Kind: types.KindInt}},
		Aggs:      figAggSpecs(),
		Dop:       dop,
	}
}

func drainOp(op exec.Operator) error {
	_, err := exec.Drain(op)
	return err
}

func timeIt(f func() error) time.Duration {
	t0 := time.Now()
	if err := f(); err != nil {
		return time.Duration(1)
	}
	return time.Since(t0)
}

func maxDuration(d time.Duration, floor time.Duration) time.Duration {
	if d < floor {
		return floor
	}
	return d
}
