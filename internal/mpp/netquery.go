package mpp

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dashdb/internal/core"
	"dashdb/internal/exec"
	"dashdb/internal/mem"
	"dashdb/internal/shardrpc"
	"dashdb/internal/sql"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// Query dispatch and the one SELECT runner. Every shard interaction is a
// shardClient call fanned out by round (netcluster.go), so a node death
// anywhere fails the node over and sends the work again once.

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
		return core.Boxed(c.netSelect(stmt, d, text))
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
		if c.movesRows(st) {
			return nil, fmt.Errorf("mpp: cannot UPDATE a distribution column cluster-wide; DELETE and INSERT the rows")
		}
		return c.netBroadcast(st, d)
	}
}

// Select runs a parsed SELECT cluster-wide (ANSI dialect) and returns its
// rows as batches: the entry of a caller that builds its statement as a
// tree, such as the analytics fits.
func (c *NetCluster) Select(sel *sql.SelectStmt) (*core.Result, error) {
	return core.Batched(c.netSelect(sel, sql.DialectANSI, ""))
}

// movesRows reports an UPDATE, alone or in a block, that assigns a
// distributed table's distribution column: the row would stay on the shard
// its old value hashed to, unseen by a statement pinned to the new value.
func (c *NetCluster) movesRows(st sql.Statement) bool {
	switch stmt := st.(type) {
	case *sql.BeginBlockStmt:
		return slices.ContainsFunc(stmt.Body, c.movesRows)
	case *sql.UpdateStmt:
		meta, err := c.tableMeta(stmt.Table)
		return err == nil && !meta.repl && slices.ContainsFunc(stmt.Set, func(set sql.SetClause) bool {
			return strings.EqualFold(set.Column, meta.schema[meta.distCol].Name)
		})
	}
	return false
}

// netBroadcast runs a statement on every shard, summing affected rows.
// After a failover only the failed shards re-execute, and the statement
// token makes that re-execution idempotent: a shard that persisted the
// statement but lost the reply (the connection broke between persist
// and reply read) acknowledges the retry from its applied log instead
// of applying twice — e.g. UPDATE balance = balance + x must not add 2x.
func (c *NetCluster) netBroadcast(st sql.Statement, d sql.Dialect) (*core.Result, error) {
	token, wire := c.mintID(), &shardrpc.StmtWire{}
	var total atomic.Int64
	err := c.eachShard(c.allShards(), func(s int, addr string) error {
		res, err := c.client.Exec(addr, shardrpc.ExecReq{ShardID: s, Dialect: d, Stmt: st, Wire: wire, Token: token})
		if err == nil {
			total.Add(res.RowsAffected)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	n := total.Load()
	return &core.Result{RowsAffected: n, Message: fmt.Sprintf("%d rows affected cluster-wide", n)}, nil
}

// netInsertStmt evaluates an INSERT's rows at the coordinator — its
// query's batches and its literal rows — places them on the table's
// columns and routes them as Insert does.
func (c *NetCluster) netInsertStmt(stmt *sql.InsertStmt, d sql.Dialect) (*core.Result, error) {
	meta, err := c.tableMeta(stmt.Table)
	if err != nil {
		return nil, err
	}
	var bs []*vec.Batch
	if stmt.Query != nil {
		res, err := core.Batched(c.netSelect(stmt.Query, d, ""))
		if err != nil {
			return nil, err
		}
		bs = res.Batches
	}
	if len(stmt.Rows) > 0 {
		rows, err := c.compiler(d, time.Now()).EvalRows(stmt.Rows)
		if err != nil {
			return nil, err
		}
		bs = append(bs, vec.FromRows(nil, rows))
	}
	if err := stmt.Place(meta.schema, bs); err != nil {
		return nil, err
	}
	n, err := c.insert(stmt.Table, meta, bs...)
	if err != nil {
		return nil, err
	}
	return &core.Result{RowsAffected: int64(n)}, nil
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

// --- SELECT ------------------------------------------------------------------

// netSelect is the statement's run: it plans the statement (plan.go),
// counts its placement and runs it, its rows streaming to emit. Whatever
// fails after that is the statement's error.
func (c *NetCluster) netSelect(sel *sql.SelectStmt, d sql.Dialect, text string) core.Stream {
	return func(emit func(*vec.Batch) error) (*core.Result, error) {
		p := c.planSelect(sel, d)
		c.mu.Lock()
		*p.path++
		c.mu.Unlock()
		return c.run(p, d, text, emit)
	}
}

// compiler is the one compiler of a coordinator statement. It has no
// catalog: what it reads is bound to it. Its sorts, joins and group-bys run
// under the cluster's broker.
func (c *NetCluster) compiler(d sql.Dialect, now time.Time) *sql.Compiler {
	comp := sql.NewCompiler(nil, d, &sql.EvalEnv{Now: now.UTC(), Dialect: d})
	comp.Gov = &mem.Governor{Broker: c.broker}
	return comp
}

// run executes a placed SELECT: each pull is bound to the final
// statement's compiler — fetched from the shards when the compiler first
// reads it, once however often it is named, so gather ships only the
// tables the statement reads — and final compiles and streams its rows to
// emit over them like any statement.
func (c *NetCluster) run(p *distSelect, d sql.Dialect, text string, emit func(*vec.Batch) error) (*core.Result, error) {
	start := time.Now()
	var pulled []*shardrpc.Result // every shard result behind the answer
	comp := c.compiler(d, start)
	for _, in := range p.pulls {
		comp.Bind(in.name, &shardrpc.Nick{Sch: in.schema, Fetch: func() ([]*vec.Batch, error) {
			results, err := c.pull(p.stages, in, d, text)
			pulled = append(pulled, results...)
			var batches []*vec.Batch
			for _, r := range results {
				batches = append(batches, r.Batches...)
			}
			return batches, err
		}})
	}
	op, err := comp.CompileSelect(p.final)
	if err != nil {
		return nil, err
	}
	var rows int64
	if err := exec.Stream(op, func(b *vec.Batch) error {
		rows += int64(b.Rows())
		return emit(b)
	}); err != nil {
		return nil, err
	}
	res := &core.Result{Columns: op.Schema().Names()}

	// One cluster-level history record per statement: the shard records
	// folded (counters summed, elapsed = slowest shard; a shard whose
	// result came back without instrumentation surfaces as a degraded
	// merge, not an under-count), rows = what the user got.
	rec := telemetry.QueryRecord{Start: start, Elapsed: time.Since(start), Status: "ok"}
	var recs []telemetry.QueryRecord
	for _, r := range pulled {
		if r.Stats != nil {
			recs = append(recs, *r.Stats)
		}
	}
	if len(pulled) > 0 {
		rec = telemetry.MergeShardRecords(recs, len(pulled))
	}
	rec.ID, rec.SQL, rec.Rows = c.reg.NextID(), text, rows
	c.reg.Record(rec)
	res.Stats = &rec
	return res, nil
}

// pull runs one input's statement on its shards (every one unless the
// plan names them) and returns the results in shard order. Each statement
// of the pull is encoded once, for all its shards and attempts. Without
// stages each shard answers over its own tables and a shard whose node
// dies is asked again on its new owner. With stages the statement reads
// what the stages shuffled, so a death abandons the whole exchange: its
// inboxes are dropped everywhere and everything is sent once more under a
// new query id.
func (c *NetCluster) pull(stages []input, in input, d sql.Dialect, text string) ([]*shardrpc.Result, error) {
	shards := in.shards
	if shards == nil {
		shards = c.allShards()
	}
	results := make([]*shardrpc.Result, c.nShards)
	var ex shardrpc.Exchange // of the statement, when there are stages
	wire := &shardrpc.StmtWire{}
	ask := func(s int, addr string) (err error) {
		req := shardrpc.ExecReq{ShardID: s, Dialect: d, Stmt: in.sel, Wire: wire, SQL: text, WithStats: true}
		if len(stages) > 0 {
			x := ex
			x.Part = s
			req.Exchange = &x
		}
		results[s], err = c.client.Exec(addr, req)
		return err
	}
	if len(stages) == 0 {
		if err := c.eachShard(shards, ask); err != nil {
			return nil, err
		}
		return c.pulled(results), nil
	}
	ex.Senders = len(shards)
	stageWires := make([]shardrpc.StmtWire, len(stages))
	for i, st := range stages {
		ex.Inputs = append(ex.Inputs, shardrpc.ShuffleInput{Name: st.name, Schema: st.schema, Stage: i})
	}
	for attempt := 0; ; attempt++ {
		addrs, err := c.shardAddrs()
		if err != nil {
			return nil, err
		}
		parts := make([]shardrpc.PartLoc, len(shards))
		for s := range parts {
			parts[s] = shardrpc.PartLoc{Addr: addrs[s], ShardID: s}
		}
		ex.Query = c.mintID()
		// Every shard scans its slice of each stage's table and shuffles it
		// on the stage's key; a call returns once its rows are delivered.
		died, err := c.round(addrs, shards, attempt == 0, func(s int, addr string) error {
			errs := make([]error, len(stages))
			var wg sync.WaitGroup
			for i, st := range stages {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := &shardrpc.ShuffleOutput{Stage: i, Keys: st.keys, Parts: parts, Sender: s}
					res, err := c.client.Exec(addr, shardrpc.ExecReq{ShardID: s, Dialect: d, Stmt: st.sel, Wire: &stageWires[i],
						Exchange: &shardrpc.Exchange{Query: ex.Query, Output: out}})
					if errs[i] = err; err == nil {
						c.mu.Lock()
						c.stats.ShuffledRows += uint64(res.RowsAffected)
						c.stats.ShuffledBytes += uint64(res.SentBytes)
						c.mu.Unlock()
					}
				}()
			}
			wg.Wait()
			return errors.Join(errs...)
		})
		if err == nil && len(died) == 0 {
			// Then every shard runs the statement over its partition.
			died, err = c.round(addrs, shards, attempt == 0, ask)
			if err == nil && len(died) == 0 {
				return c.pulled(results), nil
			}
		}
		// Statements that never started would otherwise leave this query's
		// delivered batches in surviving servers' inboxes for the process
		// lifetime (a partition is dropped only by the statement reading it).
		c.dropShuffle(ex.Query)
		// With a node dead, the other errors of the round are most likely
		// shards that could not deliver to it: everything is sent again.
		if len(died) == 0 {
			return nil, err
		}
	}
}

// pulled counts what the shards answered with and returns their results
// in shard order.
func (c *NetCluster) pulled(results []*shardrpc.Result) []*shardrpc.Result {
	results = slices.DeleteFunc(results, func(r *shardrpc.Result) bool { return r == nil })
	var rows, bytes uint64
	for _, r := range results {
		rows, bytes = rows+uint64(r.NumRows()), bytes+uint64(r.WireBytes)
	}
	c.mu.Lock()
	c.stats.PulledRows += rows
	c.stats.PulledBytes += bytes
	c.mu.Unlock()
	return results
}

// dropShuffle best-effort discards a distributed query's shuffle
// inboxes on every alive server.
func (c *NetCluster) dropShuffle(qid uint64) {
	for _, n := range c.Nodes() {
		c.client.DropShuffle(n.Addr, qid) //nolint:errcheck — best effort; a dead node has no inboxes to free
	}
}

// ReadShards reads a table shard by shard, for a reader that works on
// each shard's slice apart (integrated analytics, §II.D): one result per
// shard in shard order, or shard 0's alone for a replicated table, which
// every shard holds whole. where is an optional predicate each shard
// applies before a row crosses the wire, and cols the columns to read,
// every one when empty. Both become parts of a statement tree, never of
// statement text, so neither reaches past the table: a subquery, or a
// name that is not one of the table's columns, is refused.
func (c *NetCluster) ReadShards(table, where string, cols []string) ([]*shardrpc.Result, error) {
	meta, err := c.tableMeta(table)
	if err != nil {
		return nil, err
	}
	in := scanInput(table, table, meta)
	if len(cols) > 0 {
		in.sel.Items = nil
		for _, col := range cols {
			if meta.schema.ColumnIndex(col) < 0 {
				return nil, fmt.Errorf("mpp: table %s has no column %q", table, col)
			}
			in.sel.Items = append(in.sel.Items, sql.SelectItem{Expr: &sql.ColumnRef{Column: col}})
		}
	}
	if where != "" {
		if in.sel.Where, err = sql.ParseExpr(where, sql.DialectANSI); err != nil {
			return nil, err
		}
		if err := sql.CheckTableFilter(in.sel.Where, table, meta.schema); err != nil {
			return nil, err
		}
	}
	return c.pull(nil, in, sql.DialectANSI, "")
}
