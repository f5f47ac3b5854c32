package bench

import (
	"fmt"

	"dashdb/internal/appliance"
	"dashdb/internal/cloudstore"
	"dashdb/internal/core"
	"dashdb/internal/mpp"
	"dashdb/internal/workload"
)

// fourNodeCluster builds the Test 1/2 dashDB configuration (scaled from
// the paper's 4 nodes × 20 cores × 256 GB).
func fourNodeCluster() (*mpp.NetCluster, error) {
	return mpp.NewCluster([]mpp.NetNode{
		{Name: "n1", Cores: 4, MemBytes: 64 << 20},
		{Name: "n2", Cores: 4, MemBytes: 64 << 20},
		{Name: "n3", Cores: 4, MemBytes: 64 << 20},
		{Name: "n4", Cores: 4, MemBytes: 64 << 20},
	}, 2, nil)
}

// sixNodeCluster builds the Test 3 configuration (paper: 6 × 24 cores).
func sixNodeCluster() (*mpp.NetCluster, error) {
	return mpp.NewCluster([]mpp.NetNode{
		{Name: "n1", Cores: 4, MemBytes: 64 << 20},
		{Name: "n2", Cores: 4, MemBytes: 64 << 20},
		{Name: "n3", Cores: 4, MemBytes: 64 << 20},
		{Name: "n4", Cores: 4, MemBytes: 64 << 20},
		{Name: "n5", Cores: 4, MemBytes: 64 << 20},
		{Name: "n6", Cores: 4, MemBytes: 64 << 20},
	}, 2, nil)
}

// setupFinancial loads the financial workload into both engines.
func setupFinancial(scale int, engines ...Engine) (*workload.Financial, error) {
	fin := workload.NewFinancial(scale, 1)
	defs := fin.Tables()
	accounts := fin.Accounts()
	txns := fin.Transactions()
	for _, e := range engines {
		if err := e.Setup(defs); err != nil {
			return nil, err
		}
		if err := e.Load("accounts", accounts); err != nil {
			return nil, err
		}
		if err := e.Load("transactions", txns); err != nil {
			return nil, err
		}
	}
	return fin, nil
}

// Test1 reproduces Table 1 / Test 1: the customer financial workload's
// long-running queries, serial, dashDB MPP cluster vs the appliance.
// Paper result: avg 27.1x, median 6.3x.
func Test1(scale, nQueries int) (SerialReport, error) {
	cluster, err := fourNodeCluster()
	if err != nil {
		return SerialReport{}, err
	}
	dash := &ClusterEngine{Cluster: cluster}
	app := &ApplianceEngine{A: appliance.New("appliance")}
	fin, err := setupFinancial(scale, dash, app)
	if err != nil {
		return SerialReport{}, err
	}
	return RunSerial(dash, app, fin.AnalyticQueries(nQueries))
}

// Test2 reproduces Table 1 / Test 2: the same workload executed "exactly
// how it is executed in customer environments" — the full statement mix
// under concurrent streams, whole-workload wall time. Paper result: 2.1x.
func Test2(scale, nStatements, streams int) (ConcurrentReport, error) {
	cluster, err := fourNodeCluster()
	if err != nil {
		return ConcurrentReport{}, err
	}
	dash := &ClusterEngine{Cluster: cluster}
	app := &ApplianceEngine{A: appliance.New("appliance")}
	fin, err := setupFinancial(scale, dash, app)
	if err != nil {
		return ConcurrentReport{}, err
	}
	return RunConcurrent(dash, app, func() []workload.Statement {
		return fin.MixedStatements(nStatements)
	}, streams)
}

// Test3 reproduces Table 1 / Test 3: TPC-DS-like queries, dashDB vs the
// appliance. Paper result: avg 2.1x.
func Test3(scale int) (SerialReport, error) {
	cluster, err := sixNodeCluster()
	if err != nil {
		return SerialReport{}, err
	}
	dash := &ClusterEngine{Cluster: cluster}
	app := &ApplianceEngine{A: appliance.New("appliance")}
	gen := workload.NewTPCDS(scale, 2)
	defs := gen.Tables()
	for _, e := range []Engine{dash, app} {
		if err := e.Setup(defs); err != nil {
			return SerialReport{}, err
		}
		if err := e.Load("item", gen.Items()); err != nil {
			return SerialReport{}, err
		}
		if err := e.Load("customer", gen.Customers()); err != nil {
			return SerialReport{}, err
		}
		if err := e.Load("store", gen.Stores()); err != nil {
			return SerialReport{}, err
		}
		if err := e.Load("store_sales", gen.StoreSales()); err != nil {
			return SerialReport{}, err
		}
	}
	return RunSerial(dash, app, gen.Queries())
}

// Test4 reproduces Table 1 / Test 4: the BD-Insight-like workload, 5
// concurrent streams, dashDB vs the cloud column store on identical
// (single-node) hardware. Paper result: 3.2x QpH.
func Test4(scale, rounds int) (ThroughputReport, error) {
	dash := &CoreEngine{DB: core.Open(core.Config{BufferPoolBytes: 64 << 20})}
	cloud := &CloudEngine{S: cloudstore.New("cloud-dw", 64<<20)}
	gen := workload.NewBDInsight(scale, 3)
	for _, e := range []Engine{dash, cloud} {
		if err := e.Setup(gen.Tables()); err != nil {
			return ThroughputReport{}, err
		}
		if err := e.Load("product", gen.Products()); err != nil {
			return ThroughputReport{}, err
		}
		if err := e.Load("orders", gen.Orders()); err != nil {
			return ThroughputReport{}, err
		}
	}
	streams := make([][]workload.QuerySpec, 5)
	for i := range streams {
		streams[i] = gen.StreamQueries(i)
	}
	return RunThroughput(dash, cloud, streams, rounds)
}

// FigureC reproduces §II.B.7's claim: column-organized workloads run 10
// to 50 times faster than row-organized tables with secondary indexing —
// measured single-node so only the storage architecture differs.
func FigureC(scale, nQueries int) (SerialReport, error) {
	dash := &CoreEngine{DB: core.Open(core.Config{BufferPoolBytes: 64 << 20}), Label: "columnar"}
	app := &ApplianceEngine{A: appliance.New("row+index")}
	fin, err := setupFinancial(scale, dash, app)
	if err != nil {
		return SerialReport{}, err
	}
	return RunSerial(dash, app, fin.AnalyticQueries(nQueries))
}

// Table1Row is one rendered row of the reproduced Table 1.
type Table1Row struct {
	Test        string
	Description string
	Metric      string
	Measured    float64
	Paper       float64
}

// String formats the row.
func (r Table1Row) String() string {
	return fmt.Sprintf("%-6s %-46s %-22s measured %6.1fx   paper %5.1fx",
		r.Test, r.Description, r.Metric, r.Measured, r.Paper)
}
