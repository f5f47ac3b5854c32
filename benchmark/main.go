// Command benchmark is the repository's performance benchmark: four
// workloads over the paper's financial star schema, each a closed loop of
// fixed-work rounds whose results are checked, reporting end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
// BENCHMARK.json at the repository root is its contract; README.md in this
// directory explains the protocol and every metric.
//
//	go run ./benchmark -workload analytic_serial -seed 1
//	go run ./benchmark -all -seed 1 -out baseline.json
//	go run ./benchmark -workload cluster_analytic -trace 1 -trace-out spans.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// metricDef names one metric and its unit. The lists below are the ones in
// BENCHMARK.json; a test keeps them equal.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics that carry a regression bound: the ones whose
// values repeat between runs of one commit on the reference host. setup_s
// is there because the contract requires it.
func endToEndDefs() []metricDef {
	return []metricDef{
		{"setup_s", "s"},
		{"stored_bytes_per_user_byte", "B/B"},
	}
}

// unboundedDefs are what a user of the system sees and the reference host
// cannot repeat within a tenth (README, "Why no latency carries a bound"):
// measured with tracing off like the end-to-end metrics, printed by every
// run, listed in BENCHMARK.json's per-layer block, which has no bounds.
func unboundedDefs() []metricDef {
	return []metricDef{
		{"stmts_per_s", "1/s"},
		{"point_p50_us", "us"},
		{"scan_p50_ms", "ms"},
		{"agg_p50_ms", "ms"},
		{"groupby_p50_ms", "ms"},
		{"join_p50_ms", "ms"},
		{"sort_p50_ms", "ms"},
		{"topk_p50_ms", "ms"},
		{"live_heap_mb", "MiB"},
	}
}

func perLayerDefs() []metricDef {
	defs := unboundedDefs()
	perClass := func(prefix, unit string, classes ...int) {
		for _, c := range classes {
			defs = append(defs, metricDef{prefix + "." + classNames[c], unit})
		}
	}
	all := []int{clsPoint, clsScan, clsAgg, clsGroupby, clsJoin, clsSort, clsTopk}
	perClass("sql.parse_us", "us", all...)
	perClass("sql.compile_us", "us", all...)
	perClass("exec.drain_ms", "ms", all...)
	perClass("exec.scan_self_ms", "ms", clsPoint, clsScan, clsAgg, clsJoin)
	perClass("exec.groupby_self_ms", "ms", clsScan, clsAgg, clsGroupby)
	perClass("exec.hashjoin_self_ms", "ms", clsJoin)
	perClass("exec.sort_self_ms", "ms", clsSort, clsTopk)
	perClass("exec.project_self_ms", "ms", clsSort)
	perClass("columnar.strides_visited", "count", clsPoint, clsScan, clsJoin)
	perClass("columnar.stride_skip_ratio", "ratio", clsPoint, clsScan, clsJoin)
	perClass("columnar.rows_examined_per_row_returned", "ratio", clsPoint, clsScan, clsJoin)
	defs = append(defs,
		metricDef{"columnar.bulk_append_rows_per_s", "1/s"},
		metricDef{"columnar.stored_bytes", "B"},
		metricDef{"columnar.dict_bytes", "B"},
		metricDef{"bufferpool.hit_ratio", "ratio"},
		metricDef{"bufferpool.evictions", "count"},
		metricDef{"bufferpool.bytes_in_mb", "MiB"},
		metricDef{"mem.sort_spill_bytes", "B"},
		metricDef{"mem.hash_spill_bytes", "B"},
		metricDef{"mem.spill_runs", "count"},
		metricDef{"mem.sortheap_peak_mb", "MiB"},
		metricDef{"mem.hashheap_peak_mb", "MiB"},
		metricDef{"mem.denials", "count"},
	)
	perClass("mem.spill_runs", "count", clsGroupby, clsJoin, clsSort)
	defs = append(defs,
		metricDef{"encoding.rowcodec_write_mb_per_s", "MiB/s"},
		metricDef{"encoding.rowcodec_read_mb_per_s", "MiB/s"},
		metricDef{"wlm.admitted", "count"},
		metricDef{"wlm.queue_wait_ms", "ms"},
		metricDef{"wlm.memory_stalls", "count"},
		metricDef{"snapshot.epochs_published", "count"},
		metricDef{"snapshot.epochs_drained", "count"},
		metricDef{"snapshot.behind_max", "count"},
		metricDef{"snapshot.bulk_flushes", "count"},
		metricDef{"core.insert_us", "us"},
		metricDef{"core.update_ms", "ms"},
		metricDef{"core.delete_ms", "ms"},
		metricDef{"core.ddl_us", "us"},
		metricDef{"core.bulk_rows_per_s", "1/s"},
	)
	perClass("mpp.query_ms", "ms", all...)
	perClass("mpp.coord_overhead_ms", "ms", clsPoint, clsScan, clsAgg, clsGroupby)
	defs = append(defs,
		metricDef{"mpp.insert_rows_per_s", "1/s"},
		metricDef{"mpp.fastpath_queries", "count"},
		metricDef{"mpp.shuffle_joins", "count"},
		metricDef{"mpp.gather_queries", "count"},
		metricDef{"shardrpc.ping_us", "us"},
	)
	perClass("shardrpc.exec_ms", "ms", clsPoint, clsScan, clsAgg, clsGroupby)
	defs = append(defs,
		metricDef{"shardrpc.rowblock_encode_mb_per_s", "MiB/s"},
		metricDef{"shardrpc.rowblock_decode_mb_per_s", "MiB/s"},
		metricDef{"shardrpc.rowblock_bytes_per_row", "B"},
	)
	for _, c := range all {
		defs = append(defs, metricDef{classNames[c] + ".p95_ms", "ms"})
	}
	return append(defs, metricDef{"trace.overhead_ratio", "ratio"})
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick selects the defined metrics from values; a layer metric the
// workload does not exercise reads 0.
func pick(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}

func printTable(title string, defs []metricDef, values map[string]float64) {
	fmt.Printf("%s\n", title)
	for _, d := range defs {
		fmt.Printf("  %-46s %16.4f %s\n", d.name, values[d.name], d.unit)
	}
}

// commit is the repository's HEAD, when the benchmark runs inside a git
// checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var opt options
	var traceFlag int
	var all bool
	var out, traceOut, summarize string
	flag.StringVar(&opt.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed of data, literals and statement order")
	flag.Float64Var(&opt.seconds, "seconds", 20, "nominal length of the measured phase; sets the number of rounds")
	flag.IntVar(&opt.rounds, "rounds", 20, "least number of measured rounds")
	flag.IntVar(&opt.scale, "scale", defaultScale, "fact table rows")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced run, prints the end-to-end metrics")
	flag.BoolVar(&all, "all", false, "run every workload, untraced then traced")
	flag.StringVar(&out, "out", "", "also write the full report(s), with the environment record, to this JSON file")
	flag.StringVar(&traceOut, "trace-out", "", "write the traced run's spans to this JSON file")
	flag.StringVar(&summarize, "summarize", "", "compare the two sets of reports under this directory (see repeat.sh) and exit")
	flag.Parse()

	if summarize != "" {
		os.Exit(summarizeSets(summarize))
	}
	if opt.scale < 1000 || opt.rounds < 1 || opt.seconds < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: need -scale >= 1000, -rounds >= 1, -seconds >= 0")
		os.Exit(2)
	}
	names := []string{opt.workload}
	if all {
		names = workloadNames
	} else if !slices.Contains(workloadNames, opt.workload) {
		fmt.Fprintf(os.Stderr, "benchmark: -workload must be one of %s\n", strings.Join(workloadNames, ", "))
		os.Exit(2)
	}

	// Spill files and anything else the engine puts in the temporary
	// directory stay inside the working directory.
	tmp, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("tmp-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Setenv("TMPDIR", tmp)
	opt.tmp = tmp
	code := 0
	var reports []*report
	var last *report
	for _, name := range names {
		opt.workload = name
		for _, traced := range []bool{false, true} {
			if !all && traced != (traceFlag == 1) {
				continue
			}
			opt.trace = traced
			rep, err := newRunner(opt).run()
			if err != nil {
				os.RemoveAll(tmp)
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			fmt.Printf("env %s\n", mustJSON(rep.Env))
			for _, f := range rep.Failures {
				fmt.Printf("FAILED %s\n", f)
			}
			if traced {
				printTable(name+" per-layer (traced run)", perLayerDefs(), rep.PerLayer)
				if traceOut != "" {
					if err := writeJSON(traceOut, rep.Spans); err != nil {
						fmt.Fprintln(os.Stderr, "benchmark:", err)
						code = 1
					}
				}
			} else {
				printTable(name+" end-to-end (untraced run)", endToEndDefs(), rep.Untraced)
				printTable(name+" without a bound (untraced run)", unboundedDefs(), rep.Untraced)
			}
			if !rep.Correct {
				code = 1
			}
			reports = append(reports, rep)
			last = rep
		}
	}
	os.RemoveAll(tmp)
	if out != "" {
		if err := writeJSON(out, reports); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}
	line := resultLine{Correct: true}
	for _, rep := range reports {
		line.Attempted += rep.Attempted
		line.Failed += rep.Failed
		line.Correct = line.Correct && rep.Correct
	}
	if last.PerLayer != nil {
		line.Metrics = pick(perLayerDefs(), last.PerLayer)
	} else {
		line.Metrics = pick(endToEndDefs(), last.Untraced)
	}
	fmt.Printf("%s\n", mustJSON(line))
	os.Exit(code)
}

// mustJSON renders v on one line. A value JSON cannot carry (a NaN from an
// empty sample) ends the run: a result line must never be half a result.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	return b
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// --- noise self-check (repeat.sh) ------------------------------------------------

// summarizeSets reads dir/set1/*.json and dir/set2/*.json, the reports of
// two sets of runs of the same commit over the same seeds, and prints per
// workload and untraced metric the two medians, their gap and each set's
// inter-quartile spread, both as shares of the median. It returns 1 when the
// two medians of an end-to-end metric differ, either way, by more than its
// bound in BENCHMARK.json (on one commit a better second set is the same
// noise as a worse one), or when a count that must repeat exactly differs
// between two runs of a seed. A spread over the bound is marked but does not
// fail: the contract judges spreads over ten runs, and the quartiles of
// fewer are close to their extremes. Metrics without a bound are printed for
// their spread, which is what keeps them out of the end-to-end block.
func summarizeSets(dir string) int {
	type entry struct {
		Name   string   `json:"name"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var contract struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &contract)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 2
	}
	metrics := contract.EndToEnd
	for _, d := range unboundedDefs() {
		i := slices.IndexFunc(contract.PerLayer, func(e entry) bool { return e.Name == d.name })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json does not list %s\n", d.name)
			return 2
		}
		metrics = append(metrics, contract.PerLayer[i])
	}
	// values[set][workload][metric] = one value per untraced run;
	// exact[workload][seed][metric] = one value per run of either kind.
	var values [2]map[string]map[string][]float64
	exact := map[string]map[int64]map[string][]float64{}
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		files, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("set%d", set+1), "*.json"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		for _, f := range files {
			var reports []report
			b, err := os.ReadFile(f)
			if err == nil {
				err = json.Unmarshal(b, &reports)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", f, err)
				return 2
			}
			for _, rep := range reports {
				w, seed := rep.Env.Workload, rep.Env.Seed
				if exact[w] == nil {
					exact[w] = map[int64]map[string][]float64{}
				}
				if exact[w][seed] == nil {
					exact[w][seed] = map[string][]float64{}
				}
				keep := func(k string, v float64) { exact[w][seed][k] = append(exact[w][seed][k], v) }
				keep("stored_bytes_per_user_byte", rep.Untraced["stored_bytes_per_user_byte"])
				if rep.PerLayer != nil {
					for k, v := range rep.PerLayer {
						if k == "columnar.stored_bytes" || strings.HasPrefix(k, "columnar.strides_visited.") {
							keep(k, v)
						}
					}
					continue
				}
				if values[set][w] == nil {
					values[set][w] = map[string][]float64{}
				}
				for k, v := range rep.Untraced {
					values[set][w][k] = append(values[set][w][k], v)
				}
			}
		}
	}
	code := 0
	fmt.Printf("%-22s %-28s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "gap", "iqr 1", "iqr 2", "bound")
	for _, w := range workloadNames {
		for _, m := range metrics {
			a, b := values[0][w][m.Name], values[1][w][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma // positive = second set worse
			if m.Better == "higher" {
				gap = -gap
			}
			spread := func(xs []float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / median(xs)
			}
			sa, sb := spread(a), spread(b)
			bound, verdict := "     -", ""
			if m.Bound != nil {
				bound = fmt.Sprintf("%5.0f%%", 100**m.Bound)
				if math.Abs(gap) > *m.Bound {
					verdict = "  GAP EXCEEDS BOUND"
					code = 1
				} else if m.Name != "setup_s" && (sa > *m.Bound || sb > *m.Bound) {
					verdict = "  (spread over bound)"
				}
			}
			fmt.Printf("%-22s %-28s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %s%s\n",
				w, m.Name, ma, mb, 100*gap, 100*sa, 100*sb, bound, verdict)
		}
	}
	// Counts of stored bytes and strides visited depend on the seed alone
	// where one client runs a fixed list against a table nobody writes.
	for _, w := range []string{wlSerial, wlConstrained, wlCluster} {
		runs, differ := 0, 0
		for seed, counts := range exact[w] {
			for k, vs := range counts {
				runs = max(runs, len(vs))
				if slices.Min(vs) != slices.Max(vs) {
					fmt.Printf("%s seed %d: %s differs between runs: %v\n", w, seed, k, vs)
					differ++
					code = 1
				}
			}
		}
		if differ == 0 && runs > 1 {
			fmt.Printf("%s: exact counters identical across the %d runs of each of %d seeds\n", w, runs, len(exact[w]))
		}
	}
	return code
}
