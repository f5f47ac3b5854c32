package mpp

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dashdb/internal/catalog"
	"dashdb/internal/core"
	"dashdb/internal/exec"
	"dashdb/internal/mem"
	"dashdb/internal/shardrpc"
	"dashdb/internal/sql"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
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
		if c.movesRows(st) {
			return nil, fmt.Errorf("mpp: cannot UPDATE a distribution column cluster-wide; DELETE and INSERT the rows")
		}
		return c.netBroadcast(st, d)
	}
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
	token := c.mintID()
	var total atomic.Int64
	err := c.eachShard(c.allShards(), func(s int, addr string) error {
		res, err := c.client.Exec(addr, shardrpc.ExecReq{ShardID: s, Dialect: d, Stmt: st, Token: token})
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

// evalInsertRows evaluates an INSERT's literal rows with a scratch
// compiler (constant folding needs a catalog but never looks a table up,
// so an empty one serves) and maps any column list onto the table schema.
func evalInsertRows(stmt *sql.InsertStmt, schema types.Schema, d sql.Dialect) ([]types.Row, error) {
	comp := sql.NewCompiler(catalog.New(), d, &sql.EvalEnv{Dialect: d})
	var rows []types.Row
	for _, exprRow := range stmt.Rows {
		row := make(types.Row, len(exprRow))
		for i, e := range exprRow {
			v, err := comp.EvalConst(e)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if len(stmt.Columns) > 0 {
			full := make(types.Row, len(schema))
			for i := range full {
				full[i] = types.NullOf(schema[i].Kind)
			}
			for i, name := range stmt.Columns {
				ci := schema.ColumnIndex(name)
				if ci < 0 {
					return nil, fmt.Errorf("mpp: column %s not in table %s", name, stmt.Table)
				}
				full[ci] = row[i]
			}
			row = full
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- SELECT ------------------------------------------------------------------

// netSelect plans the statement (plan.go), counts its placement and runs
// it. Whatever fails after that is the statement's error.
func (c *NetCluster) netSelect(sel *sql.SelectStmt, d sql.Dialect, text string) (*core.Result, error) {
	p := c.planSelect(sel, d)
	c.mu.Lock()
	*p.path++
	c.mu.Unlock()
	return c.run(p, d, text)
}

// run executes a placed SELECT: each pull becomes a nickname of a
// throwaway catalog — fetched from the shards when the compiler first
// binds it, once however often it is named, so gather ships only the
// tables the statement reads — and final compiles and drains over them
// like any statement, its sorts, joins and group-bys under a governor of
// the default budgets.
func (c *NetCluster) run(p *distSelect, d sql.Dialect, text string) (*core.Result, error) {
	start := time.Now()
	var pulled []*shardrpc.Result // every shard result behind the answer
	cat := catalog.New()
	for _, in := range p.pulls {
		nick := &shardrpc.Nick{Sch: in.schema, Fetch: func() ([]types.Row, error) {
			results, err := c.pull(p.stages, in, d, text)
			pulled = append(pulled, results...)
			return concatRows(results), err
		}}
		if err := cat.CreateNickname(in.name, nick); err != nil {
			return nil, err
		}
	}
	broker := mem.NewBroker(0, 0, "")
	defer broker.Close() //nolint:errcheck — only removes the spill directory
	comp := sql.NewCompiler(cat, d, &sql.EvalEnv{Now: start.UTC(), Dialect: d})
	comp.Gov = &mem.Governor{Broker: broker}
	op, err := comp.CompileSelect(p.final)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Drain(op)
	if err != nil {
		return nil, err
	}
	res := &core.Result{Columns: op.Schema().Names(), Rows: rows}

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
	rec.ID, rec.SQL, rec.Rows = c.reg.NextID(), text, int64(len(rows))
	c.reg.Record(rec)
	res.Stats = &rec
	return res, nil
}

// concatRows appends the rows of shard results in shard order.
func concatRows(results []*shardrpc.Result) []types.Row {
	var rows []types.Row
	for _, r := range results {
		rows = append(rows, r.Rows...)
	}
	return rows
}

// pull runs one input's statement on its shards (every one unless the
// plan names them) and returns the results in shard order. Without stages
// each shard answers over its own tables and a shard whose node dies is
// asked again on its new owner. With stages the statement reads what the
// stages shuffled, so a death abandons the whole exchange: its inboxes
// are dropped everywhere and everything is sent once more under a new
// query id.
func (c *NetCluster) pull(stages []input, in input, d sql.Dialect, text string) ([]*shardrpc.Result, error) {
	shards := in.shards
	if shards == nil {
		shards = c.allShards()
	}
	results := make([]*shardrpc.Result, c.nShards)
	var ex shardrpc.Exchange // of the statement, when there are stages
	ask := func(s int, addr string) (err error) {
		req := shardrpc.ExecReq{ShardID: s, Dialect: d, Stmt: in.sel, SQL: text, WithStats: true}
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
		return slices.DeleteFunc(results, func(r *shardrpc.Result) bool { return r == nil }), nil
	}
	ex.Senders = len(shards)
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
					res, err := c.client.Exec(addr, shardrpc.ExecReq{ShardID: s, Dialect: d, Stmt: st.sel,
						Exchange: &shardrpc.Exchange{Query: ex.Query, Output: out}})
					if errs[i] = err; err == nil {
						c.mu.Lock()
						c.stats.ShuffledRows += uint64(res.RowsAffected)
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
				return results, nil
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

// dropShuffle best-effort discards a distributed query's shuffle
// inboxes on every alive server.
func (c *NetCluster) dropShuffle(qid uint64) {
	for _, n := range c.Nodes() {
		c.client.DropShuffle(n.Addr, qid) //nolint:errcheck — best effort; a dead node has no inboxes to free
	}
}

// TableRows gathers every live row of a table to the caller (hybrid sync
// and diagnostics; replicated tables return one copy).
func (c *NetCluster) TableRows(name string) ([]types.Row, error) {
	meta, err := c.tableMeta(name)
	if err != nil {
		return nil, err
	}
	results, err := c.pull(nil, scanInput(name, name, meta), sql.DialectANSI, "")
	return concatRows(results), err
}
