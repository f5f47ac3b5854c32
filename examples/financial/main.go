// Command financial reproduces the flavor of the paper's Test 1/2
// customer scenario end-to-end: deploy a 4-node cluster, load a scaled
// financial dataset (7 years of date-clustered transactions), run the
// analytic query set on both the dashDB cluster and the FPGA-appliance
// simulator, and print the per-query and aggregate speedups.
package main

import (
	"flag"
	"fmt"
	"log"

	"dashdb/internal/appliance"
	"dashdb/internal/bench"
	"dashdb/internal/mpp"
	"dashdb/internal/workload"
)

func main() {
	scale := flag.Int("scale", 300_000, "transaction fact rows")
	nq := flag.Int("queries", 20, "analytic queries to run")
	flag.Parse()

	fmt.Printf("loading financial workload: %d transactions, 7-year history\n", *scale)
	cluster, err := mpp.NewCluster([]mpp.NetNode{
		{Name: "n1", Cores: 4, MemBytes: 64 << 20},
		{Name: "n2", Cores: 4, MemBytes: 64 << 20},
		{Name: "n3", Cores: 4, MemBytes: 64 << 20},
		{Name: "n4", Cores: 4, MemBytes: 64 << 20},
	}, 2, nil)
	if err != nil {
		log.Fatal(err)
	}
	dash := &bench.ClusterEngine{Cluster: cluster, Label: "dashdb"}
	app := &bench.ApplianceEngine{A: appliance.New("appliance")}

	fin := workload.NewFinancial(*scale, 1)
	for _, e := range []bench.Engine{dash, app} {
		if err := e.Setup(fin.Tables()); err != nil {
			log.Fatal(err)
		}
		if err := e.Load("accounts", fin.Accounts()); err != nil {
			log.Fatal(err)
		}
		if err := e.Load("transactions", fin.Transactions()); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("\nserial analytic comparison (%d queries):\n", *nq)
	rep, err := bench.RunSerial(dash, app, fin.AnalyticQueries(*nq))
	if err != nil {
		log.Fatal(err)
	}
	for _, tm := range rep.Timings {
		fmt.Printf("  %-24s dashdb %9v   appliance %9v   %6.1fx  (rows agree: %v)\n",
			tm.Name, tm.FastTime.Round(100_000), tm.SlowTime.Round(100_000), tm.Speedup(), tm.RowsAgree)
	}
	fmt.Println()
	fmt.Print(rep)

	fmt.Println("\nconcurrent mixed workload (paper statement mix, 8 streams):")
	crep, err := bench.RunConcurrent(dash, app, func() []workload.Statement {
		return fin.MixedStatements(200)
	}, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(crep)
	fmt.Printf("\npaper reference: Test 1 avg 27.1x / median 6.3x; Test 2 workload 2.1x\n")
	fmt.Printf("(this run is laptop-scale: %d rows vs the paper's 25TB — shapes, not absolutes)\n", *scale)
}
