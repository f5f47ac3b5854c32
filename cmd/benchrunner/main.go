// Command benchrunner regenerates the paper's evaluation: every row of
// Table 1 (Tests 1–4) and every quantitative figure claim (F-A…F-H in
// DESIGN.md), printing a report of measured-vs-paper factors. Scales are
// laptop-sized by default; raise -scale for stronger separation.
//
// Usage:
//
//	benchrunner                 # run everything
//	benchrunner -exp test1      # one experiment
//	benchrunner -scale 1000000  # bigger fact tables
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"dashdb/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|test1|test2|test3|test4|colvsrow|deploy|compression|skipping|bufferpool|simd|parallel|compressed|telemetry|spill|ingest|planner|ha|mpp|spark")
	scale := flag.Int("scale", 400_000, "fact-table rows for Tests 1-4")
	queries := flag.Int("queries", 30, "analytic queries for Test 1 / F-C")
	flag.Parse()

	run := func(name string) bool { return *exp == "all" || *exp == name }
	fmt.Println("dashDB Local reproduction — evaluation report")
	fmt.Println(strings.Repeat("=", 78))

	if run("test1") {
		rep, err := bench.Test1(*scale, *queries)
		fail(err)
		fmt.Printf("\nTable 1 / Test 1 — customer workload, serial query speedup\n")
		fmt.Print(rep)
		fmt.Printf("  paper: avg 27.1x, median 6.3x (25TB on real FPGA appliance)\n")
	}
	if run("test2") {
		rep, err := bench.Test2(*scale/2, 400, 100)
		fail(err)
		fmt.Printf("\nTable 1 / Test 2 — concurrent mixed workload incl. load streams, whole-workload time\n")
		fmt.Print(rep)
		fmt.Printf("  paper: 2.1x (100 streams)\n")
	}
	if run("test3") {
		rep, err := bench.Test3(*scale)
		fail(err)
		fmt.Printf("\nTable 1 / Test 3 — TPC-DS-like queries vs appliance\n")
		fmt.Print(rep)
		fmt.Printf("  paper: avg 2.1x\n")
	}
	if run("test4") {
		rep, err := bench.Test4(*scale/2, 2)
		fail(err)
		fmt.Printf("\nTable 1 / Test 4 — BD-Insight 5-stream throughput vs cloud column store\n")
		fmt.Print(rep)
		fmt.Printf("  paper: 3.2x QpH\n")
	}
	if run("colvsrow") {
		rep, err := bench.FigureC(*scale/2, *queries)
		fail(err)
		fmt.Printf("\nF-C — column-organized vs row-organized with secondary indexes\n")
		fmt.Print(rep)
		fmt.Printf("  paper: 10-50x (workload-level, full scale)\n")
	}
	if run("deploy") {
		s, err := bench.FigureA([]int{1, 4, 12, 24})
		fail(err)
		fmt.Println()
		fmt.Print(s)
	}
	if run("compression") {
		s, err := bench.FigureB(*scale / 2)
		fail(err)
		fmt.Println()
		fmt.Print(s)
	}
	if run("skipping") {
		s, err := bench.FigureD(*scale)
		fail(err)
		fmt.Println()
		fmt.Print(s)
	}
	if run("bufferpool") {
		fmt.Println()
		fmt.Print(bench.FigureE(200, 100, 8))
	}
	if run("simd") {
		fmt.Println()
		fmt.Print(bench.FigureF())
	}
	if run("parallel") {
		s, err := bench.FigureP(*scale, []int{1, 2, 4, 8})
		fail(err)
		fmt.Println()
		fmt.Print(s)
	}
	if run("compressed") {
		s, err := bench.FigureOC(*scale)
		fail(err)
		fmt.Println()
		fmt.Print(s)
	}
	if run("telemetry") {
		s, err := bench.FigureT(*scale)
		fail(err)
		fmt.Println()
		fmt.Print(s)
	}
	if run("spill") {
		s, err := bench.FigureS(*scale)
		fail(err)
		fmt.Println()
		fmt.Print(s)
	}
	if run("ingest") {
		s, err := bench.FigureIngest(*scale/2, *queries)
		fail(err)
		fmt.Println()
		fmt.Print(s)
	}
	if run("planner") {
		s, err := bench.FigurePlanner(*scale)
		fail(err)
		fmt.Println()
		fmt.Print(s)
	}
	if run("ha") {
		s, err := bench.FigureG()
		fail(err)
		fmt.Println()
		fmt.Print(s)
	}
	if run("mpp") {
		s, err := bench.FigureMPP(*scale / 20)
		fail(err)
		fmt.Println()
		fmt.Print(s)
	}
	if run("spark") {
		s, err := bench.FigureH(*scale / 8)
		fail(err)
		fmt.Println()
		fmt.Print(s)
	}
	fmt.Println()
}

func fail(err error) {
	if err != nil {
		log.Println(err)
		os.Exit(1)
	}
}
