package mpp

import (
	"fmt"
	"strings"
	"sync"

	"dashdb/internal/core"
	"dashdb/internal/shardrpc"
	"dashdb/internal/sql"
	"dashdb/internal/types"
)

// Query dispatch. The decision tree is scatter fast path, then shuffle
// join, then coordinator gather; every shard interaction is a
// shardClient call, and a node death anywhere in the tree triggers
// failover plus one retry against the surviving membership.

// Query parses and executes a statement cluster-wide (ANSI dialect).
func (c *NetCluster) Query(text string) (*core.Result, error) {
	return c.QueryDialect(text, sql.DialectANSI)
}

// QueryDialect is Query under an explicit SQL dialect.
func (c *NetCluster) QueryDialect(text string, d sql.Dialect) (*core.Result, error) {
	st, err := sql.Parse(text, d)
	if err != nil {
		return nil, err
	}
	switch stmt := st.(type) {
	case *sql.SelectStmt:
		return c.netSelect(stmt, d, text)
	case *sql.InsertStmt:
		return c.netInsertStmt(stmt, d)
	case *sql.CreateTableStmt:
		return c.netCreateTableStmt(stmt)
	case *sql.DropStmt:
		if stmt.Kind == "TABLE" {
			if err := c.DropTable(stmt.Name); err != nil {
				if stmt.IfExists {
					return &core.Result{Message: "OK"}, nil
				}
				return nil, err
			}
			return &core.Result{Message: "TABLE DROPPED"}, nil
		}
		return c.netBroadcast(st, d)
	default:
		return c.netBroadcast(st, d)
	}
}

// resultToCore converts a wire result into the engine's result shape so
// the shared merge helpers apply unchanged.
func resultToCore(r *shardrpc.Result) *core.Result {
	return &core.Result{
		Columns:      r.Columns,
		Rows:         r.Rows,
		RowsAffected: r.RowsAffected,
		Message:      r.Message,
		Stats:        r.Stats,
	}
}

// netBroadcast runs a statement on every shard, summing affected rows.
// After a failover only the failed shards re-execute, and the statement
// token makes that re-execution idempotent: a shard that persisted the
// statement but lost the reply (the connection broke between persist
// and reply read) acknowledges the retry from its applied log instead
// of applying twice — e.g. UPDATE balance = balance + x must not add 2x.
func (c *NetCluster) netBroadcast(st sql.Statement, d sql.Dialect) (*core.Result, error) {
	token := c.mintID()
	pending := make([]int, 0, c.nShards)
	for s := 0; s < c.nShards; s++ {
		pending = append(pending, s)
	}
	total := int64(0)
	for attempt := 0; len(pending) > 0; attempt++ {
		addrs, err := c.shardAddrs()
		if err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		errs := make([]error, len(pending))
		affected := make([]int64, len(pending))
		for i, s := range pending {
			wg.Add(1)
			go func(i, s int) {
				defer wg.Done()
				res, err := c.client.Exec(addrs[s], shardrpc.ExecReq{ShardID: s, Dialect: d, Stmt: st, Token: token})
				if err != nil {
					errs[i] = err
					return
				}
				affected[i] = res.RowsAffected
			}(i, s)
		}
		wg.Wait()
		var retry []int
		for i, s := range pending {
			switch {
			case errs[i] == nil:
				total += affected[i]
			case attempt == 0 && c.handleNodeDeath(addrs[s], errs[i]):
				retry = append(retry, s)
			default:
				return nil, errs[i]
			}
		}
		pending = retry
	}
	return &core.Result{RowsAffected: total, Message: fmt.Sprintf("%d rows affected cluster-wide", total)}, nil
}

// netInsertStmt evaluates INSERT rows at the coordinator and routes
// them through Insert (which carries the failover retry).
func (c *NetCluster) netInsertStmt(stmt *sql.InsertStmt, d sql.Dialect) (*core.Result, error) {
	meta, err := c.tableMeta(stmt.Table)
	if err != nil {
		return nil, err
	}
	if stmt.Query != nil {
		res, err := c.netSelect(stmt.Query, d, "")
		if err != nil {
			return nil, err
		}
		if err := c.Insert(stmt.Table, res.Rows); err != nil {
			return nil, err
		}
		return &core.Result{RowsAffected: int64(len(res.Rows))}, nil
	}
	rows, err := evalInsertRows(stmt, meta.schema, d)
	if err != nil {
		return nil, err
	}
	if err := c.Insert(stmt.Table, rows); err != nil {
		return nil, err
	}
	return &core.Result{RowsAffected: int64(len(rows))}, nil
}

func (c *NetCluster) netCreateTableStmt(stmt *sql.CreateTableStmt) (*core.Result, error) {
	if stmt.AsQuery != nil {
		return nil, fmt.Errorf("mpp: CREATE TABLE AS SELECT is not supported cluster-wide; create then INSERT..SELECT")
	}
	var schema types.Schema
	for _, cd := range stmt.Columns {
		kind, err := sql.TypeKindFor(cd.Type)
		if err != nil {
			return nil, err
		}
		schema = append(schema, types.Column{Name: cd.Name, Kind: kind, Nullable: !cd.NotNull})
	}
	if err := c.CreateTable(stmt.Table, schema, TableOptions{}); err != nil {
		if stmt.IfNotExists {
			return &core.Result{Message: "TABLE EXISTS"}, nil
		}
		return nil, err
	}
	return &core.Result{Message: "TABLE CREATED"}, nil
}

// --- SELECT dispatch ---------------------------------------------------------

func (c *NetCluster) netSelect(sel *sql.SelectStmt, d sql.Dialect, text string) (*core.Result, error) {
	if plan, ok := c.netDecompose(sel); ok {
		res, err := c.netFastPath(sel, plan, d, text)
		if err == nil {
			c.mu.Lock()
			c.stats.FastPathQueries++
			c.mu.Unlock()
			return res, nil
		}
	}
	if jp, ok := c.shuffleJoinPlan(sel); ok {
		res, err := c.netShuffleJoin(sel, jp, d, text)
		if err == nil {
			c.mu.Lock()
			c.stats.ShuffleJoins++
			c.mu.Unlock()
			return res, nil
		}
	}
	c.mu.Lock()
	c.stats.GatherPathQueries++
	c.mu.Unlock()
	return c.netGather(sel, d, text)
}

// netDecompose decides whether the query can run scatter/gather with
// partial aggregation: every FROM table known to the cluster with at
// most one non-replicated table (co-location), and a select shape
// classifySelect accepts.
func (c *NetCluster) netDecompose(sel *sql.SelectStmt) (*fastPlan, bool) {
	lookup := func(name string) (replicated, known bool) {
		meta, err := c.tableMeta(name)
		if err != nil {
			return false, false
		}
		return meta.repl, true
	}
	nonRepl, ok := countFromTables(sel, lookup)
	if !ok || nonRepl > 1 {
		return nil, false
	}
	plan, ok := classifySelect(sel)
	if !ok {
		return nil, false
	}
	plan.singleShard = nonRepl == 0
	return plan, true
}

// netFastPath scatters the rewritten statement over RPC and merges the
// partial results — Figure 2's model across OS processes.
func (c *NetCluster) netFastPath(sel *sql.SelectStmt, plan *fastPlan, d sql.Dialect, text string) (*core.Result, error) {
	shardSel, err := buildShardSel(sel, plan)
	if err != nil {
		return nil, err
	}
	results, err := c.netScatter(shardSel, d, text, plan.singleShard)
	if err != nil {
		return nil, err
	}
	final, err := mergeFastResults(sel, plan, results)
	if err != nil {
		return nil, err
	}
	if rec, ok := foldShardStats(c.reg, final, results, text); ok {
		final.Stats = rec
	}
	return final, nil
}

// netScatter runs the statement on every shard in parallel over RPC.
// SELECTs are idempotent, so a node death fails the node over and
// re-scatters once against the new assignment.
func (c *NetCluster) netScatter(sel *sql.SelectStmt, d sql.Dialect, text string, singleShard bool) ([]*core.Result, error) {
	n := c.nShards
	if singleShard {
		n = 1
	}
	for attempt := 0; ; attempt++ {
		addrs, err := c.shardAddrs()
		if err != nil {
			return nil, err
		}
		results := make([]*core.Result, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for s := 0; s < n; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				res, err := c.client.Exec(addrs[s], shardrpc.ExecReq{
					ShardID: s, Dialect: d, Stmt: sel, SQL: text, WithStats: true,
				})
				if err != nil {
					errs[s] = err
					return
				}
				results[s] = resultToCore(res)
			}(s)
		}
		wg.Wait()
		retriable := false
		for s, err := range errs {
			if err == nil {
				continue
			}
			if attempt == 0 && c.handleNodeDeath(addrs[s], err) {
				retriable = true
				continue
			}
			return nil, err
		}
		if !retriable {
			return results, nil
		}
	}
}

// --- shuffle join ------------------------------------------------------------

// Nickname names for the materialized shuffle partitions inside the
// join fragment's scratch engine.
const (
	shuffleBuildName = "__shuf_l"
	shuffleProbeName = "__shuf_r"
)

// shuffleJoin describes a two-table distributed equi-join that runs via
// the partitioned-hash exchange: both tables hash-shuffle on their join
// key, co-locating matching rows, and each shard joins one partition.
type shuffleJoin struct {
	left, right         *sql.TableRef
	leftMeta, rightMeta *tableMeta
	joinType            string
	leftKey, rightKey   int // ordinals in the respective table schemas
	on                  sql.Expr
	plan                *fastPlan
}

// shuffleJoinPlan recognizes SELECT ... FROM a JOIN b ON a.x = b.y with
// two non-replicated tables and a decomposable select shape. Partition-
// wise joins are exact for INNER and LEFT joins (matching keys land in
// the same partition; unmatched left rows null-extend within theirs),
// and partial aggregation is correct over any disjoint partitioning, so
// the shared classify/merge machinery applies verbatim.
func (c *NetCluster) shuffleJoinPlan(sel *sql.SelectStmt) (*shuffleJoin, bool) {
	if len(sel.From) != 1 {
		return nil, false
	}
	jr, ok := sel.From[0].(*sql.JoinRef)
	if !ok || (jr.Type != "INNER" && jr.Type != "LEFT") || jr.On == nil || len(jr.Using) > 0 {
		return nil, false
	}
	lt, lok := jr.Left.(*sql.TableRef)
	rt, rok := jr.Right.(*sql.TableRef)
	if !lok || !rok {
		return nil, false
	}
	c.mu.RLock()
	lm, lknown := c.tables[strings.ToLower(lt.Name)]
	rm, rknown := c.tables[strings.ToLower(rt.Name)]
	c.mu.RUnlock()
	if !lknown || !rknown || lm.repl || rm.repl {
		return nil, false // replicated cases belong to the fast path
	}
	eq, ok := jr.On.(*sql.BinaryOp)
	if !ok || eq.Op != "=" {
		return nil, false
	}
	lref, lok := eq.Left.(*sql.ColumnRef)
	rref, rok := eq.Right.(*sql.ColumnRef)
	if !lok || !rok {
		return nil, false
	}
	plan, ok := classifySelect(sel)
	if !ok {
		return nil, false
	}
	sj := &shuffleJoin{left: lt, right: rt, leftMeta: lm, rightMeta: rm, joinType: jr.Type, on: jr.On, plan: plan}
	sj.leftKey, sj.rightKey = -1, -1
	for _, ref := range []*sql.ColumnRef{lref, rref} {
		side, idx, ok := resolveJoinRef(ref, lt, lm, rt, rm)
		if !ok {
			return nil, false
		}
		if side == 0 {
			sj.leftKey = idx
		} else {
			sj.rightKey = idx
		}
	}
	if sj.leftKey < 0 || sj.rightKey < 0 {
		return nil, false // both refs resolved to the same side
	}
	return sj, true
}

// resolveJoinRef binds one ON-clause column reference to a join side
// (0=left, 1=right) and its ordinal. Qualified refs match by alias or
// table name; unqualified refs must be unambiguous across both schemas.
func resolveJoinRef(ref *sql.ColumnRef, lt *sql.TableRef, lm *tableMeta, rt *sql.TableRef, rm *tableMeta) (side, idx int, ok bool) {
	matches := func(t *sql.TableRef) bool {
		if ref.Table == "" {
			return true
		}
		if t.Alias != "" {
			return strings.EqualFold(ref.Table, t.Alias)
		}
		return strings.EqualFold(ref.Table, t.Name)
	}
	li, ri := -1, -1
	if matches(lt) {
		li = lm.schema.ColumnIndex(ref.Column)
	}
	if matches(rt) {
		ri = rm.schema.ColumnIndex(ref.Column)
	}
	switch {
	case li >= 0 && ri < 0:
		return 0, li, true
	case ri >= 0 && li < 0:
		return 1, ri, true
	default:
		return 0, 0, false // unresolved or ambiguous
	}
}

// netShuffleJoin executes the distributed join: every shard scans its
// slice of both tables and hash-shuffles the rows on the join key
// across all shards (stage 0 = build side, stage 1 = probe side); then
// every shard joins its partition and the coordinator merges the
// partial results exactly as for a scatter.
func (c *NetCluster) netShuffleJoin(sel *sql.SelectStmt, sj *shuffleJoin, d sql.Dialect, text string) (*core.Result, error) {
	for attempt := 0; ; attempt++ {
		qid := c.mintID()
		res, failAddr, err := c.shuffleJoinOnce(qid, sel, sj, d, text)
		if err == nil {
			return res, nil
		}
		// Abandon the attempt's shuffle state everywhere: join fragments
		// that never started would otherwise leave this qid's delivered
		// batches in surviving servers' inboxes for the process lifetime
		// (DropPart only runs inside fragments that actually execute).
		c.dropShuffle(qid)
		if attempt > 0 || !c.handleNodeDeath(failAddr, err) {
			return nil, err
		}
	}
}

// dropShuffle best-effort discards a distributed query's shuffle
// inboxes on every alive server.
func (c *NetCluster) dropShuffle(qid uint64) {
	c.mu.RLock()
	var addrs []string
	for _, n := range c.nodes {
		if n.alive {
			addrs = append(addrs, n.spec.Addr)
		}
	}
	c.mu.RUnlock()
	for _, addr := range addrs {
		c.client.DropShuffle(addr, qid) //nolint:errcheck — best effort; a dead node has no inboxes to free
	}
}

func (c *NetCluster) shuffleJoinOnce(qid uint64, sel *sql.SelectStmt, sj *shuffleJoin, d sql.Dialect, text string) (*core.Result, string, error) {
	addrs, err := c.shardAddrs()
	if err != nil {
		return nil, "", err
	}
	parts := make([]shardrpc.PartLoc, c.nShards)
	for p := range parts {
		parts[p] = shardrpc.PartLoc{Addr: addrs[p], ShardID: p}
	}
	scanOf := func(t *sql.TableRef) *sql.SelectStmt {
		return &sql.SelectStmt{
			Items: []sql.SelectItem{{Expr: &sql.Star{}}},
			From:  []sql.FromItem{&sql.TableRef{Name: t.Name}},
			Limit: -1,
		}
	}

	// Phase 1: scan fragments on every shard for both stages. Each call
	// returns only after that shard's rows are fully shuffled.
	type frag struct {
		shard int
		req   shardrpc.FragmentReq
	}
	var frags []frag
	for s := 0; s < c.nShards; s++ {
		frags = append(frags,
			frag{s, shardrpc.FragmentReq{Query: qid, Stage: 0, ShardID: s, Dialect: d,
				Sel: scanOf(sj.left), Keys: []int{sj.leftKey}, Parts: parts, SenderID: s, Senders: c.nShards}},
			frag{s, shardrpc.FragmentReq{Query: qid, Stage: 1, ShardID: s, Dialect: d,
				Sel: scanOf(sj.right), Keys: []int{sj.rightKey}, Parts: parts, SenderID: s, Senders: c.nShards}},
		)
	}
	var wg sync.WaitGroup
	fragErrs := make([]error, len(frags))
	for i, f := range frags {
		wg.Add(1)
		go func(i int, f frag) {
			defer wg.Done()
			fragErrs[i] = c.client.Fragment(addrs[f.shard], f.req)
		}(i, f)
	}
	wg.Wait()
	for i, err := range fragErrs {
		if err != nil {
			return nil, addrs[frags[i].shard], err
		}
	}

	// Phase 2: per-partition join fragments, statement rewritten onto the
	// shuffle nicknames (aliases preserved so qualified refs still bind).
	aliasOf := func(t *sql.TableRef) string {
		if t.Alias != "" {
			return t.Alias
		}
		return t.Name
	}
	rewritten := *sel
	rewritten.From = []sql.FromItem{&sql.JoinRef{
		Left:  &sql.TableRef{Name: shuffleBuildName, Alias: aliasOf(sj.left)},
		Right: &sql.TableRef{Name: shuffleProbeName, Alias: aliasOf(sj.right)},
		Type:  sj.joinType,
		On:    sj.on,
	}}
	shardSel, err := buildShardSel(&rewritten, sj.plan)
	if err != nil {
		return nil, "", err
	}
	results := make([]*core.Result, c.nShards)
	joinErrs := make([]error, c.nShards)
	for p := 0; p < c.nShards; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			res, err := c.client.JoinFrag(addrs[p], shardrpc.JoinFragReq{
				Query: qid, ShardID: p, Part: p, Dialect: d,
				BuildStage: 0, ProbeStage: 1,
				BuildName: shuffleBuildName, ProbeName: shuffleProbeName,
				BuildSchema: sj.leftMeta.schema, ProbeSchema: sj.rightMeta.schema,
				Senders: c.nShards, Sel: shardSel, SQL: text, WithStats: true,
			})
			if err != nil {
				joinErrs[p] = err
				return
			}
			results[p] = resultToCore(res)
		}(p)
	}
	wg.Wait()
	for p, err := range joinErrs {
		if err != nil {
			return nil, addrs[p], err
		}
	}
	final, err := mergeFastResults(&rewritten, sj.plan, results)
	if err != nil {
		return nil, "", err
	}
	if rec, ok := foldShardStats(c.reg, final, results, text); ok {
		final.Stats = rec
	}
	return final, "", nil
}

// --- gather fallback ---------------------------------------------------------

// netGatherSource streams a table's rows from every shard over RPC —
// the universal path for statements outside the distributed fast paths.
type netGatherSource struct {
	c     *NetCluster
	table string
	meta  *tableMeta
}

func (g *netGatherSource) Schema() types.Schema { return g.meta.schema }
func (g *netGatherSource) Origin() string       { return "MPP-GATHER" }

func (g *netGatherSource) ScanAll() ([]types.Row, error) {
	c := g.c
	scan := &sql.SelectStmt{
		Items: []sql.SelectItem{{Expr: &sql.Star{}}},
		From:  []sql.FromItem{&sql.TableRef{Name: g.table}},
		Limit: -1,
	}
	n := c.nShards
	if g.meta.repl {
		n = 1
	}
	var all []types.Row
	for s := 0; s < n; s++ {
		rows, err := c.scanShard(scan, s)
		if err != nil {
			return nil, err
		}
		all = append(all, rows...)
	}
	return all, nil
}

// TableRows gathers every live row of a table to the caller (hybrid sync
// and diagnostics; replicated tables return one copy).
func (c *NetCluster) TableRows(name string) ([]types.Row, error) {
	meta, err := c.tableMeta(name)
	if err != nil {
		return nil, err
	}
	return (&netGatherSource{c: c, table: name, meta: meta}).ScanAll()
}

// scanShard pulls one shard's rows, failing the node over and retrying
// once if it dies mid-scan.
func (c *NetCluster) scanShard(scan *sql.SelectStmt, shard int) ([]types.Row, error) {
	for attempt := 0; ; attempt++ {
		addr, err := func() (string, error) {
			c.mu.RLock()
			defer c.mu.RUnlock()
			return c.addrOfLocked(shard)
		}()
		if err != nil {
			return nil, err
		}
		res, err := c.client.Exec(addr, shardrpc.ExecReq{ShardID: shard, Dialect: sql.DialectANSI, Stmt: scan})
		if err == nil {
			return res.Rows, nil
		}
		if attempt > 0 || !c.handleNodeDeath(addr, err) {
			return nil, err
		}
	}
}

// netGather compiles the original query at a coordinator engine whose
// tables are RPC gather-nicknames over the shard servers.
func (c *NetCluster) netGather(sel *sql.SelectStmt, d sql.Dialect, text string) (*core.Result, error) {
	coord := core.Open(core.Config{BufferPoolBytes: 4 << 20})
	defer coord.Close()
	c.mu.RLock()
	for name, meta := range c.tables {
		if err := coord.Catalog().CreateNickname(name, &netGatherSource{c: c, table: name, meta: meta}); err != nil {
			c.mu.RUnlock()
			return nil, err
		}
	}
	c.mu.RUnlock()
	sess := coord.NewSession()
	sess.SetDialect(d)
	res, err := sess.ExecParsed(sel)
	if err != nil {
		return nil, err
	}
	if res.Stats != nil {
		rec := *res.Stats
		rec.ID = c.reg.NextID()
		rec.SQL = text
		rec.Shards = c.nShards
		c.reg.Record(rec)
		res.Stats = &rec
	}
	return res, nil
}
