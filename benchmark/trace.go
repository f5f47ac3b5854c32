package main

import (
	"strings"
	"sync"
	"time"

	"dashdb/internal/columnar"
	"dashdb/internal/core"
	"dashdb/internal/mem"
	"dashdb/internal/page"
	"dashdb/internal/shardrpc"
	"dashdb/internal/sql"
	"dashdb/internal/telemetry"
)

// tracer keeps the traced run's spans in memory. All spans are recorded by
// the harness around its calls into the engine's public functions; spans
// inside the engine are a later change.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextID int
	// stmtClass is the class of each traced statement execution (index =
	// span.Stmt), -1 for writer statements.
	stmtClass []int
	// counts are the exact per-statement counts read from Result.Stats,
	// summed per class.
	counts [numClasses]classCounts
	// probeTime is the time spent probing shards directly, which is the
	// harness's own and comes off the traced round's wall time.
	probeTime time.Duration
}

type classCounts struct {
	stridesVisited, stridesSkipped int64
	rowsReturned                   int64
	spillRuns                      int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newStmt opens the root span of one statement execution.
func (t *tracer) newStmt(class int) (stmt, id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stmtClass = append(t.stmtClass, class)
	t.nextID++
	return len(t.stmtClass) - 1, t.nextID
}

func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) add(id, parent, stmt int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// timed runs fn as a child span of parent.
func (t *tracer) timed(parent, stmt int, name string, fn func()) time.Duration {
	id := t.newID()
	start := time.Now()
	fn()
	end := time.Now()
	t.add(id, parent, stmt, name, start, end)
	return end.Sub(start)
}

// opKind maps an operator's plan line to the span name of its kind.
func opKind(planLine string) string {
	switch {
	case strings.Contains(planLine, "SCAN"):
		return "exec.scan"
	case strings.Contains(planLine, "GROUP BY"):
		return "exec.groupby"
	case strings.Contains(planLine, "HASH JOIN"):
		return "exec.hashjoin"
	case strings.HasPrefix(planLine, "SORT"):
		return "exec.sort"
	case strings.HasPrefix(planLine, "PROJECT"):
		return "exec.project"
	}
	return "exec.other"
}

// addPlan records exec.drain and one synthetic child span per operator of
// the statement's telemetry record, and adds the record's exact counts to
// the class. The record gives each operator's wall time, children
// included, and not when it ran; the spans of an operator's children are
// laid end to end from its start, so its self time (span minus children) is
// its wall time minus the sum of theirs.
func (t *tracer) addPlan(parent, stmt, class int, rec *telemetry.QueryRecord, returned int) {
	if rec == nil {
		return
	}
	type open struct {
		id   int
		next time.Time // where the operator's next child starts
	}
	drain := t.newID()
	t.add(drain, parent, stmt, "exec.drain", rec.Start, rec.Start.Add(rec.Elapsed))
	stack := []open{{drain, rec.Start}} // the open operator at each depth, under the drain
	var cc classCounts
	for _, op := range rec.Ops {
		stack = stack[:min(op.Depth+1, len(stack))]
		up := &stack[len(stack)-1]
		start, end := up.next, up.next.Add(op.Wall)
		up.next = end
		id := t.newID()
		t.add(id, up.id, stmt, opKind(op.Name), start, end)
		stack = append(stack, open{id, start})
		cc.stridesVisited += op.StridesVisited
		cc.stridesSkipped += op.StridesSkipped
		cc.spillRuns += op.SpillRuns
	}
	t.mu.Lock()
	c := &t.counts[class]
	c.stridesVisited += cc.stridesVisited
	c.stridesSkipped += cc.stridesSkipped
	c.spillRuns += cc.spillRuns
	c.rowsReturned += int64(returned)
	t.mu.Unlock()
}

// tracedQuery is instance.query with the statement's phases made explicit:
// stmt → sql.parse, sql.compile, core.exec → exec.drain → operators on a
// single node; stmt → sql.parse, mpp.query (→ exec.drain → operators when
// the shards' records were merged) on the cluster.
func (in *instance) tracedQuery(t *tracer, s *stmt, probe bool) (res *core.Result, err error) {
	stmtID, root := t.newStmt(s.class)
	start := time.Now()
	defer func() { t.add(root, 0, stmtID, "stmt", start, time.Now()) }()

	var ast sql.Statement
	t.timed(root, stmtID, "sql.parse", func() { ast, err = sql.Parse(s.sql, sql.DialectANSI) })
	if err != nil {
		return nil, err
	}
	if in.cluster != nil {
		call := t.newID()
		q0 := time.Now()
		res, err = in.cluster.Query(s.sql)
		q1 := time.Now()
		t.add(call, root, stmtID, "mpp.query", q0, q1)
		if err != nil {
			return nil, err
		}
		t.addPlan(call, stmtID, s.class, res.Stats, len(res.Rows))
		if probe && scatterClass(s.class) {
			in.probeShards(t, stmtID, ast, s.sql)
		}
		return res, nil
	}
	t.timed(root, stmtID, "sql.compile", func() { err = in.compileOnly(ast) })
	if err != nil {
		return nil, err
	}
	call := t.newID()
	e0 := time.Now()
	res, err = in.reader.ExecParsed(ast)
	t.add(call, root, stmtID, "core.exec", e0, time.Now())
	if err != nil {
		return nil, err
	}
	t.addPlan(call, stmtID, s.class, res.Stats, len(res.Rows))
	return res, nil
}

// compileOnly builds the operator tree the way a session does (IR build,
// join ordering, lowering) and drops it, releasing the snapshots it pinned.
func (in *instance) compileOnly(ast sql.Statement) error {
	eng := in.db.Engine()
	c := sql.NewCompiler(eng.Catalog(), sql.DialectANSI, &sql.EvalEnv{Now: time.Now().UTC(), Dialect: sql.DialectANSI})
	c.Parallelism = in.reader.Parallelism()
	c.Gov = &mem.Governor{Broker: eng.MemBroker()}
	c.Snaps = columnar.NewSnapshotSet()
	defer c.Snaps.ReleaseAll()
	_, err := c.CompileSelect(ast.(*sql.SelectStmt))
	return err
}

// scatterClass reports whether the coordinator runs the class on the
// scatter fast path, one Exec per shard, which a direct Pool.Exec against
// each shard can be compared with.
func scatterClass(class int) bool {
	return class == clsPoint || class == clsScan || class == clsAgg || class == clsGroupby
}

// probeShards sends the statement to every shard directly, one after the
// other, as root spans beside the statement's own.
func (in *instance) probeShards(t *tracer, stmtID int, ast sql.Statement, text string) {
	for shard, addr := range in.shardAddr {
		t.probeTime += t.timed(0, stmtID, "shardrpc.exec", func() {
			// A failed probe shows as a missing layer number, not as a
			// failed statement: the statement itself already succeeded.
			_, _ = in.probe.Exec(addr, shardrpc.ExecReq{ShardID: shard, Dialect: sql.DialectANSI, Stmt: ast, SQL: text}) //dashdb:nolint droppederr a failed probe costs a layer number, not the statement
		})
	}
}

// layerMetrics turns the recorded spans and counts into the per-class layer
// metrics. rounds is the number of traced rounds, for per-round counts.
func (t *tracer) layerMetrics(m map[string]float64, rounds int) {
	self := selfTimes(t.spans)
	// Per statement execution: duration of each named phase, self time per
	// operator kind, slowest direct shard probe.
	type perStmt struct {
		phase map[string]time.Duration
		self  map[string]time.Duration
		probe time.Duration
	}
	stmts := make([]perStmt, len(t.stmtClass))
	for _, s := range t.spans {
		ps := &stmts[s.Stmt]
		if ps.phase == nil {
			ps.phase, ps.self = map[string]time.Duration{}, map[string]time.Duration{}
		}
		d := time.Duration(s.End - s.Start)
		switch {
		case s.Name == "shardrpc.exec":
			ps.probe = max(ps.probe, d)
			ps.phase[s.Name] += d
		case strings.HasPrefix(s.Name, "exec.") && s.Name != "exec.drain":
			ps.self[s.Name] += self[s.ID]
		default:
			ps.phase[s.Name] += d
		}
	}
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	for i, ps := range stmts {
		class := t.stmtClass[i]
		if class < 0 || ps.phase == nil {
			continue
		}
		cn := classNames[class]
		add("sql.parse_us."+cn, us(ps.phase["sql.parse"]))
		if d, ok := ps.phase["sql.compile"]; ok {
			add("sql.compile_us."+cn, us(d))
		}
		if d, ok := ps.phase["exec.drain"]; ok {
			add("exec.drain_ms."+cn, ms(d))
		}
		for kind, d := range ps.self {
			add(kind+"_self_ms."+cn, ms(d))
		}
		if d, ok := ps.phase["mpp.query"]; ok {
			add("mpp.query_ms."+cn, ms(d))
			if ps.probe > 0 {
				add("mpp.coord_overhead_ms."+cn, ms(d-ps.probe))
				add("shardrpc.exec_ms."+cn, ms(ps.phase["shardrpc.exec"])/float64(clusterShards))
			}
		}
	}
	for name, xs := range samples {
		m[name] = median(xs)
	}
	for class, c := range t.counts {
		cn := classNames[class]
		m["columnar.strides_visited."+cn] = float64(c.stridesVisited) / float64(rounds)
		if tot := c.stridesVisited + c.stridesSkipped; tot > 0 {
			m["columnar.stride_skip_ratio."+cn] = float64(c.stridesSkipped) / float64(tot)
		}
		if c.rowsReturned > 0 {
			m["columnar.rows_examined_per_row_returned."+cn] = float64(c.stridesVisited*page.StrideSize) / float64(c.rowsReturned)
		}
		m["mem.spill_runs."+cn] = float64(c.spillRuns) / float64(rounds)
	}
}
