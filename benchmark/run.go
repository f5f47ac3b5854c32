package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dashdb"
	"dashdb/internal/core"
	"dashdb/internal/encoding"
	"dashdb/internal/shardrpc"
	"dashdb/internal/types"
	"dashdb/internal/workload"
)

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64 // nominal length of the measured phase
	rounds   int     // least number of measured rounds
	scale    int     // fact rows
	trace    bool
	tmp      string // spill directory
}

const warmupRounds = 2

// check levels for a reader round.
const (
	checkRows  = iota // compare every row with the reference
	checkCount        // compare the row count (measured rounds)
	checkError        // only that the statement succeeds (rows move under a writer)
)

// What the clients do with their timings.
const (
	modeWarmup int32 = iota // discard
	modeRecord              // keep as samples (untraced measured rounds)
	modeTrace               // record spans (traced measured rounds)
)

// runner executes one workload run and collects its samples.
type runner struct {
	opt    options
	data   *dataset
	in     *instance
	stmts  []stmt
	writer *writerRound
	passes int // executions of the writer's list so far
	shadow *shadow
	wlog   []writerDone // every writer statement executed, in order

	mode        int32   // changes between rounds only
	tr          *tracer // set before the first round in modeTrace
	probeRounds int     // traced rounds left that also probe the shards directly
	behindMax   int

	class      [numClasses][]float64 // untraced statement latencies, ms
	roundWalls []float64             // untraced round wall times, s
	tracedWall []float64             // traced round wall times less probes, s
	write      map[workload.StatementKind][]float64
	bulkRates  []float64

	attempted atomic.Int64
	mu        sync.Mutex // guards failed and failures
	failed    int
	failures  []string
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// round executes the statement list once and returns its wall time. Round
// n starts n*roundStride statements into the list, so over the rounds every
// statement runs at every position: whatever differs along a round (cache
// state behind a heavy statement, the writer's place in its own list)
// reaches each class alike. With withWriter the second client executes its
// own list beside the reader, and the round lasts until both are done.
func (r *runner) round(n, check int, withWriter bool) time.Duration {
	begin := time.Now()
	var writer sync.WaitGroup
	if withWriter {
		ops := r.writer.pass(r.passes)
		r.passes++
		writer.Add(1)
		go func() {
			defer writer.Done()
			for i := range ops {
				r.writerStmt(ops[i], &r.writer.stmts[i])
			}
		}()
	}
	for i := range r.stmts {
		s := &r.stmts[(i+n*roundStride)%len(r.stmts)]
		r.attempted.Add(1)
		var res *core.Result
		var err error
		start := time.Now()
		if r.mode == modeTrace {
			res, err = r.in.tracedQuery(r.tr, s, r.probeRounds > 0)
		} else {
			res, err = r.in.query(s.sql)
		}
		took := time.Since(start)
		switch {
		case err != nil:
			r.fail("%s: %v", s.sql, err)
			continue
		case check == checkRows:
			if err := sameRows(res.Rows, s.want); err != nil {
				r.fail("%s: %v", s.sql, err)
			}
		case check == checkCount && len(res.Rows) != len(s.want):
			r.fail("%s: %d rows, want %d", s.sql, len(res.Rows), len(s.want))
		}
		if r.mode == modeRecord {
			r.class[s.class] = append(r.class[s.class], ms(took))
		}
	}
	writer.Wait()
	return time.Since(begin)
}

// roundStride shares no factor with the length of any workload's list (85,
// 85, 41, 81), so the starting points of successive rounds cover the list.
const roundStride = 13

// writerDone is one executed writer statement and what the engine reported.
type writerDone struct {
	op       writerOp
	stmt     *workload.Statement
	affected int64
}

// writerStmt executes one statement of the writer's list. It runs on the
// writer's goroutine; the reader's goroutine looks at what it records only
// after the round's wait.
func (r *runner) writerStmt(op writerOp, st *workload.Statement) {
	r.attempted.Add(1)
	done := writerDone{op: op, stmt: st, affected: -1}
	var err error
	start := time.Now()
	if op.kind == workload.KindBulkLoad {
		var n int
		n, err = r.in.bulkLoad("transactions", op.rows)
		done.affected = int64(n)
	} else {
		var res *dashdb.Result
		if res, err = r.in.writer.Exec(op.sql); err == nil {
			done.affected = res.RowsAffected
		}
	}
	end := time.Now()
	r.wlog = append(r.wlog, done)
	if err != nil {
		r.fail("writer %s: %v", op.kind, err)
		return
	}
	switch r.mode {
	case modeTrace:
		stmtID, root := r.tr.newStmt(-1)
		r.tr.add(root, 0, stmtID, "stmt", start, end)
		r.tr.add(r.tr.newID(), root, stmtID, "core.exec", start, end)
		r.behindMax = max(r.behindMax, r.in.behind())
	case modeRecord:
		took := end.Sub(start)
		if op.kind == workload.KindBulkLoad {
			r.bulkRates = append(r.bulkRates, float64(len(op.rows))/took.Seconds())
		} else {
			r.write[ddlKind(op.kind)] = append(r.write[ddlKind(op.kind)], us(took))
		}
	}
}

// ddlKind folds CREATE, DROP and TRUNCATE into one kind for timing.
func ddlKind(k workload.StatementKind) workload.StatementKind {
	if k == workload.KindDrop || k == workload.KindTruncate {
		return workload.KindCreate
	}
	return k
}

// nominalRoundsPerSecond is each workload's round rate on the reference
// host (2 vCPUs), rounded down. It turns -seconds into a number of rounds,
// so the work is fixed by the arguments and never by the clock: a slower
// host takes longer over the same rounds.
var nominalRoundsPerSecond = map[string]float64{
	wlSerial:      2,
	wlConstrained: 1,
	wlMixed:       1,
	wlCluster:     1,
}

func measuredRounds(opt options) int {
	return max(opt.rounds, int(opt.seconds*nominalRoundsPerSecond[opt.workload]))
}

// measuredRound runs round n in the given mode and keeps its wall time.
func (r *runner) measuredRound(mode int32, n int) {
	r.mode = mode
	check := checkCount
	if r.writer != nil {
		check = checkError
	}
	if mode != modeTrace {
		r.roundWalls = append(r.roundWalls, r.round(n, check, r.writer != nil).Seconds())
		return
	}
	probed := r.tr.probeTime
	wall := r.round(n, check, r.writer != nil)
	r.tracedWall = append(r.tracedWall, (wall - (r.tr.probeTime - probed)).Seconds())
	if r.probeRounds > 0 {
		r.probeRounds--
	}
}

// report is everything one run measured.
type report struct {
	Env       envRecord          `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Untraced  map[string]float64 `json:"untraced"` // from the rounds with tracing off: the end-to-end metrics and the ones without a bound
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Spans     []span             `json:"-"`
}

// newRunner generates the run's inputs from the seed: data, statement
// lists and the rows every statement must return.
func newRunner(opt options) *runner {
	d := generate(opt.scale, opt.seed)
	r := &runner{opt: opt, data: d, stmts: buildRound(d, opt.seed, mixes[opt.workload]), write: map[workload.StatementKind][]float64{}}
	if opt.workload == wlMixed {
		r.writer = buildWriterRound(d, opt.seed)
		r.shadow = newShadow(d)
	}
	return r
}

// run executes the workload: set up, warm up, measure, check.
func (r *runner) run() (*report, error) {
	opt, d := r.opt, r.data
	env := pinEnvironment(opt)

	// Set-up is create, load and the two warm-up rounds. Every row of the
	// first warm-up round is checked; on mixed_ingest the writer joins in the
	// second, after which rows move and only errors are. The heap baseline
	// is read while the harness's own data (rows, references) is live, so
	// live_heap_mb is the engine's share.
	heapBase := liveHeap()
	start := time.Now()
	in, err := setUp(opt.workload, d, opt.tmp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.in = in
	defer r.in.close()
	r.round(0, checkRows, false)
	check := checkRows
	if r.writer != nil {
		check = checkError
	}
	r.round(1, check, r.writer != nil)
	setup := time.Since(start)
	heap := max(0, int64(liveHeap())-int64(heapBase)) // the forced collection that ends set-up
	loadRate := float64(len(d.txns)+len(d.accounts)) / r.in.loadDur.Seconds()
	d.txns, d.accounts = nil, nil // the references stay; the rows are not needed again

	var sortRows []types.Row
	if opt.trace {
		r.tr = newTracer()
		r.probeRounds = 3
		sortRows = r.sortResult()
	}

	env.Engine = r.in.config()
	env.HostKernelUs[0] = hostKernel()
	before := r.in.counters()
	// A traced run measures the same number of rounds with tracing off,
	// for the metrics without a bound and the overhead ratio, and half as
	// many again traced: every third round, so that whatever changes along
	// the run (mixed_ingest's table grows) reaches both kinds alike.
	untraced, traced := measuredRounds(opt), 0
	if opt.trace {
		traced = untraced / 2
	}
	for i := 0; i < untraced+traced; i++ {
		mode := modeRecord
		if i%3 == 2 && i/3 < traced {
			mode = modeTrace
		}
		r.measuredRound(mode, warmupRounds+i)
	}
	env.HostKernelUs[1] = hostKernel()
	after := r.in.counters()
	env.Rounds = untraced + traced
	r.finalCheck()

	rep := &report{Env: env, Attempted: int(r.attempted.Load()), Failed: r.failed, Failures: r.failures, Correct: r.failed == 0}
	// Statements per second: both clients' fixed lists over the median
	// round, which is the reciprocal of the mean statement time, so stalls
	// that a median latency hides still show.
	perRound := len(r.stmts)
	if r.writer != nil {
		perRound += len(r.writer.stmts)
	}
	e := map[string]float64{
		"setup_s":                    setup.Seconds(),
		"stmts_per_s":                float64(perRound) / median(r.roundWalls),
		"stored_bytes_per_user_byte": float64(r.in.storedBytes) / float64(d.userBytes),
		"live_heap_mb":               float64(heap) / (1 << 20),
	}
	for c, name := range classNames {
		if c == clsPoint {
			e["point_p50_us"] = median(r.class[c]) * 1000
		} else {
			e[name+"_p50_ms"] = median(r.class[c])
		}
	}
	rep.Untraced = e
	if opt.trace {
		rep.PerLayer = r.perLayer(before, after, untraced, traced, loadRate, sortRows)
		for _, d := range unboundedDefs() {
			rep.PerLayer[d.name] = e[d.name]
		}
		rep.Spans = r.tr.spans
	}
	return rep, nil
}

// perLayer assembles the traced run's layer metrics: timings from the
// spans, counts from the change in the public counters over the measured
// rounds (per round), and the codec probes.
func (r *runner) perLayer(before, after counters, untraced, traced int, loadRate float64, sortRows []types.Row) map[string]float64 {
	l := map[string]float64{}
	r.tr.layerMetrics(l, traced)
	rounds := float64(untraced + traced)
	for c, name := range classNames {
		l[name+".p95_ms"] = tail(r.class[c])
	}
	l["trace.overhead_ratio"] = median(r.tracedWall) / median(r.roundWalls)
	if r.in.cluster != nil {
		l["mpp.insert_rows_per_s"] = loadRate
	} else {
		l["columnar.bulk_append_rows_per_s"] = loadRate
	}
	l["columnar.stored_bytes"] = float64(r.in.storedBytes)
	l["columnar.dict_bytes"] = float64(r.in.dictBytes)
	if acc := (after.poolHits - before.poolHits) + (after.poolMisses - before.poolMisses); acc > 0 {
		l["bufferpool.hit_ratio"] = float64(after.poolHits-before.poolHits) / float64(acc)
	}
	l["bufferpool.evictions"] = float64(after.poolEvictions-before.poolEvictions) / rounds
	l["bufferpool.bytes_in_mb"] = float64(after.poolBytesIn-before.poolBytesIn) / (1 << 20) / rounds
	l["mem.sort_spill_bytes"] = float64(after.sortSpillBytes-before.sortSpillBytes) / rounds
	l["mem.hash_spill_bytes"] = float64(after.hashSpillBytes-before.hashSpillBytes) / rounds
	l["mem.spill_runs"] = float64(after.spillRuns-before.spillRuns) / rounds
	l["mem.denials"] = float64(after.denials-before.denials) / rounds
	l["mem.sortheap_peak_mb"] = float64(after.sortPeak) / (1 << 20)
	l["mem.hashheap_peak_mb"] = float64(after.hashPeak) / (1 << 20)
	l["wlm.admitted"] = float64(after.admitted-before.admitted) / rounds
	l["wlm.queue_wait_ms"] = ms(after.queueWait-before.queueWait) / rounds
	l["wlm.memory_stalls"] = float64(after.memoryStalls-before.memoryStalls) / rounds
	l["snapshot.epochs_published"] = float64(after.epochs-before.epochs) / rounds
	l["snapshot.epochs_drained"] = float64(after.drained-before.drained) / rounds
	l["snapshot.bulk_flushes"] = float64(after.bulkFlushes-before.bulkFlushes) / rounds
	l["snapshot.behind_max"] = float64(r.behindMax)
	l["core.insert_us"] = median(r.write[workload.KindInsert])
	l["core.update_ms"] = median(r.write[workload.KindUpdate]) / 1000
	l["core.delete_ms"] = median(r.write[workload.KindDelete]) / 1000
	l["core.ddl_us"] = median(r.write[workload.KindCreate])
	l["core.bulk_rows_per_s"] = median(r.bulkRates)
	l["mpp.fastpath_queries"] = float64(after.net.FastPathQueries-before.net.FastPathQueries) / rounds
	l["mpp.shuffle_joins"] = float64(after.net.ShuffleJoins-before.net.ShuffleJoins) / rounds
	l["mpp.gather_queries"] = float64(after.net.GatherPathQueries-before.net.GatherPathQueries) / rounds
	codecProbes(l, sortRows)
	if r.in.cluster != nil {
		r.wireProbes(l, sortRows)
	}
	return l
}

// sortResult fetches one sort statement's rows, the payload of the codec
// probes: the largest result any class returns.
func (r *runner) sortResult() []types.Row {
	for i := range r.stmts {
		if r.stmts[i].class == clsSort {
			if res, err := r.in.query(r.stmts[i].sql); err == nil {
				return res.Rows
			}
		}
	}
	return nil
}

// finalCheck replays the writer's statements on the shadow model, comparing
// each affected-row count, and then compares the fact table with it.
func (r *runner) finalCheck() {
	if r.shadow == nil {
		return
	}
	for i := range r.wlog {
		w := &r.wlog[i]
		want := r.shadow.apply(&w.op, w.stmt)
		if want >= 0 && w.affected >= 0 && w.affected != want {
			r.fail("writer %s #%d: %d rows affected, want %d", w.op.kind, i, w.affected, want)
		}
	}
	r.attempted.Add(1)
	res, err := r.in.query("SELECT COUNT(*), SUM(amount) FROM transactions")
	if err != nil {
		r.fail("final check: %v", err)
		return
	}
	count, sum := r.shadow.totals()
	want := [][]types.Value{{types.NewInt(count), types.NewFloat(sum)}}
	if err := sameRows(res.Rows, want); err != nil {
		r.fail("final COUNT(*), SUM(amount): %v", err)
	}
}

// hostKernel times a fixed piece of work that is bound the way the engine
// is (hash map, allocation, sort) and returns the median of nine runs in
// microseconds. It is not used to correct any metric (that was tried: it
// halves the spread of CPU-bound classes and doubles that of spilling ones);
// it only says in what state the host was.
func hostKernel() float64 {
	var times []float64
	for i := 0; i < 9; i++ {
		start := time.Now()
		sums := make(map[int]*float64, 512)
		xs := make([]float64, 0, 2000)
		for j := 0; j < 2000; j++ {
			k := j * 7919 % 500
			if sums[k] == nil {
				sums[k] = new(float64)
			}
			*sums[k] += float64(j)
			xs = append(xs, float64(j*104729%2000))
		}
		sort.Float64s(xs)
		times = append(times, us(time.Since(start)))
	}
	return median(times)
}

// liveHeap is the heap in use after a forced collection: two cycles, since
// sync.Pool contents and finalizable objects (connection buffers of a closed
// cluster) survive the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// medianRate runs fn five times and returns the median rate in MiB/s; fn
// returns the bytes it moved.
func medianRate(fn func() int) float64 {
	var rates []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		n := fn()
		rates = append(rates, float64(n)/(1<<20)/time.Since(start).Seconds())
	}
	return median(rates)
}

// codecProbes times the spill row codec over one sort result, the rows the
// sort operator writes and reads back when it spills.
func codecProbes(l map[string]float64, rows []types.Row) {
	if len(rows) == 0 {
		return
	}
	var buf bytes.Buffer
	l["encoding.rowcodec_write_mb_per_s"] = medianRate(func() int {
		buf.Reset()
		w := encoding.NewRowWriter(&buf)
		for _, row := range rows {
			if _, err := w.WriteRow(row); err != nil {
				return 0
			}
		}
		return buf.Len()
	})
	data := buf.Bytes()
	l["encoding.rowcodec_read_mb_per_s"] = medianRate(func() int {
		rd := encoding.NewRowReader(bytes.NewReader(data))
		for {
			if _, err := rd.ReadRow(); err != nil {
				if err != io.EOF {
					return 0
				}
				return len(data)
			}
		}
	})
}

// wireProbes times the shard wire format over the same rows, and a ping.
func (r *runner) wireProbes(l map[string]float64, rows []types.Row) {
	var pings []float64
	for i := 0; i < 100; i++ {
		start := time.Now()
		if _, err := r.in.probe.Ping(r.in.shardAddr[i%clusterShards]); err == nil {
			pings = append(pings, us(time.Since(start)))
		}
	}
	l["shardrpc.ping_us"] = median(pings)
	if len(rows) == 0 {
		return
	}
	var block []byte
	l["shardrpc.rowblock_encode_mb_per_s"] = medianRate(func() int {
		var err error
		if block, err = shardrpc.EncodeRowBlock(block[:0], rows); err != nil {
			return 0
		}
		return len(block)
	})
	l["shardrpc.rowblock_decode_mb_per_s"] = medianRate(func() int {
		if _, err := shardrpc.DecodeRowBlock(block); err != nil {
			return 0
		}
		return len(block)
	})
	l["shardrpc.rowblock_bytes_per_row"] = float64(len(block)) / float64(len(rows))
}

// envRecord is what two result files need to be comparable, or visibly
// not (Grambow et al.: record the environment or the number means nothing).
type envRecord struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Scale        int     `json:"scale"`
	Rounds       int     `json:"rounds"`
	WarmupRounds int     `json:"warmup_rounds"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	LoadAvg1     float64 `json:"loadavg_1min"`
	// HostKernelUs is the time of a fixed piece of harness work (hostKernel)
	// before and after the measured rounds: about 130 on the reference host
	// when it is quiet, 160 when its memory system is busy and every latency
	// of the run is a fifth higher with it.
	HostKernelUs [2]float64   `json:"host_kernel_us"`
	Engine       engineConfig `json:"engine"`
}

// pinEnvironment makes the run independent of the host it lands on, as far
// as the process can: two Ps at most, and no heap overrides from the
// environment (core.Open honours them and would turn every workload into
// the spilling one).
func pinEnvironment(opt options) envRecord {
	os.Unsetenv("DASHDB_SORTHEAP")
	os.Unsetenv("DASHDB_HASHHEAP")
	runtime.GOMAXPROCS(min(runtime.NumCPU(), benchCores))
	env := envRecord{
		Workload: opt.workload, Seed: opt.seed, Scale: opt.scale, WarmupRounds: warmupRounds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), LoadAvg1: -1, // -1: the host does not say
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &env.LoadAvg1)
	}
	return env
}
