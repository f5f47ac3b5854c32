// Package core is the single-node dashDB engine: it ties the polyglot SQL
// front end, the compressed columnar storage, the buffer pool and the
// workload manager into one embeddable database. The MPP layer runs one
// core engine per data shard group; the public dashdb package wraps it.
package core

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"dashdb/internal/bufferpool"
	"dashdb/internal/catalog"
	"dashdb/internal/columnar"
	"dashdb/internal/mem"
	"dashdb/internal/sql"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
	"dashdb/internal/vec"
	"dashdb/internal/wlm"
)

// Config sizes the engine. The deploy package's auto-configuration
// produces one of these from detected hardware (paper §II.A).
type Config struct {
	// BufferPoolBytes is the page-cache budget. 0 selects a small default.
	BufferPoolBytes int
	// Parallelism is the default intra-query parallelism degree: scans
	// and partitioned aggregation run this many morsel workers, subject
	// to the WLM clamp and the per-session SET PARALLELISM override. The
	// MPP layer also uses it for shard fan-out.
	Parallelism int
	// MaxConcurrentQueries gates admission (workload management). 0
	// disables admission control.
	MaxConcurrentQueries int
	// Store overrides the page store (the clustered filesystem provides
	// one per shard).
	Store columnar.PageStore
	// CachePolicy names the buffer pool policy: "PROB" (default), "LRU",
	// "CLOCK" — the ablation hook for experiment F-E.
	CachePolicy string
	// MaxQueuedQueries bounds the WLM admission queue: arrivals beyond the
	// bound are rejected instead of queued. 0 = unbounded queue.
	MaxQueuedQueries int
	// SortHeapBytes budgets ORDER BY memory across all sessions; sorts
	// beyond it spill to disk (external merge sort). 0 selects the
	// mem.Broker default. The DASHDB_SORTHEAP environment variable
	// overrides it ("1MB"-style sizes).
	SortHeapBytes int64
	// HashHeapBytes budgets hash join builds and grouped aggregation;
	// overflow spills (Grace join / aggregate runs). 0 selects the
	// mem.Broker default. DASHDB_HASHHEAP overrides it.
	HashHeapBytes int64
	// TempDir hosts spill files. "" places a per-engine directory under
	// the OS temp dir; a caller-provided directory is swept of stale
	// *.spill files at first use (crash recovery).
	TempDir string
	// DisableCompressedExec turns off operate-on-compressed-data
	// execution: scans decode dictionary columns eagerly and filters,
	// joins, and group-bys run over decoded values. Parity-testing and
	// escape hatch; the default (false) evaluates over codes with late
	// materialization at the projection.
	DisableCompressedExec bool
}

// Procedure is a stored procedure callable via SQL CALL (the Spark
// integration registers SPARK_SUBMIT and friends, §II.D).
type Procedure func(s *Session, args []types.Value) (*Result, error)

// DB is one database engine instance.
type DB struct {
	cat    *catalog.Catalog
	pool   *bufferpool.Pool
	store  columnar.PageStore
	cfg    Config
	wlm    *wlm.Manager
	reg    *telemetry.Registry
	broker *mem.Broker

	mu    sync.RWMutex
	procs map[string]Procedure
	udx   *sql.FuncRegistry
}

// Open creates an engine with the given configuration.
func Open(cfg Config) *DB {
	cfg.sizeDefaults()
	var policy bufferpool.Policy
	switch strings.ToUpper(cfg.CachePolicy) {
	case "LRU":
		policy = bufferpool.NewLRU()
	case "CLOCK":
		policy = bufferpool.NewClock()
	default:
		policy = bufferpool.NewProbabilistic(1)
	}
	store := cfg.Store
	if store == nil {
		store = columnar.NewMemStore()
	}
	db := &DB{
		cat:    catalog.New(),
		pool:   bufferpool.New(cfg.BufferPoolBytes, policy),
		store:  store,
		cfg:    cfg,
		wlm:    wlm.New(cfg.MaxConcurrentQueries),
		reg:    telemetry.NewRegistry(telemetry.DefaultHistorySize),
		broker: mem.NewBroker(cfg.SortHeapBytes, cfg.HashHeapBytes, cfg.TempDir),
		procs:  make(map[string]Procedure),
		udx:    sql.NewFuncRegistry(),
	}
	if cfg.MaxQueuedQueries > 0 {
		db.wlm.SetMaxQueued(cfg.MaxQueuedQueries)
	}
	db.wlm.SetMemoryGate(db.broker.Exhausted)
	db.registerSystemViews()
	return db
}

// sizeDefaults fills in the resource sizes Open and Resize share: a
// small default pool, serial execution, and the environment knobs that
// override configured heap budgets (the CI low-memory gate runs the
// whole suite with tiny heaps to force every spill path).
func (cfg *Config) sizeDefaults() {
	if cfg.BufferPoolBytes <= 0 {
		cfg.BufferPoolBytes = 64 << 20
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if v := os.Getenv("DASHDB_SORTHEAP"); v != "" {
		if n, err := mem.ParseBytes(v); err == nil {
			cfg.SortHeapBytes = n
		}
	}
	if v := os.Getenv("DASHDB_HASHHEAP"); v != "" {
		if n, err := mem.ParseBytes(v); err == nil {
			cfg.HashHeapBytes = n
		}
	}
}

// Resize applies a new resource grant to a live engine: the MPP
// re-association of §II.E, where a shard keeps its data and its share of
// the node changes. Zero values select the same defaults as Open.
// Statements already running finish under the grant they started with,
// except that a shrunk heap denies their next reservation growth.
func (db *DB) Resize(poolBytes int, sortHeap, hashHeap int64, parallelism int) {
	db.mu.Lock()
	db.cfg.BufferPoolBytes, db.cfg.Parallelism = poolBytes, parallelism
	db.cfg.SortHeapBytes, db.cfg.HashHeapBytes = sortHeap, hashHeap
	db.cfg.sizeDefaults()
	cfg := db.cfg
	db.mu.Unlock()
	db.pool.Resize(cfg.BufferPoolBytes)
	db.broker.SetBudgets(cfg.SortHeapBytes, cfg.HashHeapBytes)
}

// Close shuts the engine down: the spill directory (and any files a
// crashed query left behind) is removed. Idempotent; sessions must not be
// used afterwards.
func (db *DB) Close() error {
	return db.broker.Close()
}

// MemBroker exposes the memory governor (monitoring and tests).
func (db *DB) MemBroker() *mem.Broker { return db.broker }

// Catalog exposes the catalog (MPP coordinator and Spark integration).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Pool exposes the buffer pool (experiments and monitoring).
func (db *DB) Pool() *bufferpool.Pool { return db.pool }

// Config returns the engine configuration.
func (db *DB) Config() Config {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cfg
}

// WLM exposes the workload manager.
func (db *DB) WLM() *wlm.Manager { return db.wlm }

// Telemetry exposes the engine's query-history registry (MPP stat merging
// and monitoring tools).
//
//dashdb:nolint deadcode cross-package test hook: mpp's cluster tests and telemetry's race test read per-engine totals
func (db *DB) Telemetry() *telemetry.Registry { return db.reg }

// RegisterFunction installs a user-defined scalar function (UDX,
// §II.C.4), immediately callable from SQL in every session and dialect.
func (db *DB) RegisterFunction(name string, minArgs, maxArgs int, fn func(args []types.Value) (types.Value, error)) error {
	return db.udx.Register(name, minArgs, maxArgs, fn)
}

// RegisterProcedure installs a stored procedure.
func (db *DB) RegisterProcedure(name string, p Procedure) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.procs[strings.ToUpper(name)] = p
}

func (db *DB) procedure(name string) (Procedure, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, ok := db.procs[strings.ToUpper(name)]
	return p, ok
}

// CreateTable creates a base table programmatically (library API).
func (db *DB) CreateTable(name string, schema types.Schema) (*columnar.Table, error) {
	t := columnar.NewTable(db.cat.NextTableID(), name, schema, columnar.Config{
		Pool:  db.pool,
		Store: db.store,
		Dop:   db.Config().Parallelism,
	})
	if err := db.cat.CreateTable(t); err != nil {
		return nil, err
	}
	return t, nil
}

// Table resolves a base table.
func (db *DB) Table(name string) (*columnar.Table, bool) { return db.cat.Table(name) }

// NewSession opens a session with the ANSI dialect.
func (db *DB) NewSession() *Session {
	return &Session{
		db:      db,
		dialect: sql.DialectANSI,
		user:    "default",
		bound:   make(map[string]catalog.RemoteSource),
	}
}

// Session is one client connection: it carries the SQL dialect (settable
// per session, §II.C.2) and the statement clock.
type Session struct {
	db      *DB
	dialect sql.Dialect
	user    string
	mu      sync.Mutex
	params  []types.Value // positional bindings for the current statement
	// snaps is the statement-scoped snapshot set: every scan the compiler
	// builds for the current statement pins the same epoch per table, so
	// the planner's statistics and all operators agree on what data is
	// visible, regardless of concurrent trickle or bulk writers. execStmt
	// installs a fresh set per statement and releases it on completion;
	// nil between statements (library-built scans pin their own epoch).
	snaps *columnar.SnapshotSet
	// parallelism is the per-session override of the auto-configured
	// intra-query parallelism degree (SET PARALLELISM n); 0 = use the
	// engine default from deploy auto-configuration.
	parallelism int
	// sortHeap/hashHeap cap each operator's memory reservation for this
	// session (SET SORTHEAP n / SET HASHHEAP n); 0 = the engine heap
	// budget from auto-configuration.
	sortHeap int64
	hashHeap int64
	// joinOrder is this session's join-ordering mode (SET JOIN_ORDER):
	// "SYNTACTIC" lowers FROM clauses as written, the F-J ablation
	// baseline; "GREEDY" or "" (the default) reorders.
	joinOrder string
	// bound holds the names Bind gave this session's statements.
	bound map[string]catalog.RemoteSource
}

// Bind names src for every statement of this session: the statement reads
// its batches under that name, ahead of any catalog object (a shard binds
// its shuffle partitions so, on a session it makes per request).
func (s *Session) Bind(name string, src catalog.RemoteSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bound[name] = src
}

// Parallelism returns the session's effective intra-query parallelism
// degree: the per-session override if set, otherwise the engine default
// derived by deploy auto-configuration — in both cases clamped by the
// workload manager's admission limit so concurrent queries cannot
// oversubscribe the cores the configuration budgeted per query.
func (s *Session) Parallelism() int {
	dop := s.parallelism
	if dop <= 0 {
		dop = s.db.Config().Parallelism
	}
	return s.db.wlm.ClampParallelism(dop)
}

// SetUser names the session user (Spark per-user isolation keys off it).
func (s *Session) SetUser(u string) { s.user = u }

// User returns the session user.
func (s *Session) User() string { return s.user }

// TableSchema returns the columns of a base table.
func (s *Session) TableSchema(name string) (types.Schema, error) {
	t, ok := s.db.Table(name)
	if !ok {
		return nil, fmt.Errorf("core: table %s does not exist", name)
	}
	return t.Schema(), nil
}

// SetDialect switches the session's SQL dialect.
func (s *Session) SetDialect(d sql.Dialect) { s.dialect = d }

// Result is the outcome of one statement. Its rows are in Rows, boxed,
// when a public entry (Exec, Query, ExecParsed, Stmt.Exec) ran it, and in
// Batches when an internal reader collected them with Batched; a Result
// never holds both.
type Result struct {
	Columns []string
	Rows    []types.Row
	// Batches are the statement's batches as it produced them, owned by
	// the Result: disowned, so no pool takes them back.
	Batches      []*vec.Batch
	RowsAffected int64
	Message      string
	// Stats carries the query's telemetry record when the statement was an
	// instrumented query (SELECT or EXPLAIN ANALYZE). The MPP coordinator
	// merges these across shards.
	Stats *telemetry.QueryRecord
}

// NumRows returns the number of rows the result holds.
func (r *Result) NumRows() int {
	n := len(r.Rows)
	for _, b := range r.Batches {
		n += b.Rows()
	}
	return n
}

// Stream runs one statement, handing its rows to emit a batch at a time.
type Stream func(emit func(*vec.Batch) error) (*Result, error)

// Boxed runs a statement and returns its Result with the rows boxed into
// Rows: each batch is boxed as it arrives and then released, so the pools
// have it back before the statement makes the next. It is the one boxing
// of a result, at the public entries of an engine and of a cluster.
func Boxed(run Stream) (*Result, error) {
	var rows []types.Row
	res, err := run(func(b *vec.Batch) error {
		rows = b.AppendRows(rows)
		b.Release() // the rows are copies
		return nil
	})
	if err == nil {
		res.Rows = rows
	}
	return res, err
}

// Batched runs a statement and returns its Result with the batches
// themselves, disowned, in Batches: the result of an internal reader.
func Batched(run Stream) (*Result, error) {
	var batches []*vec.Batch
	res, err := run(func(b *vec.Batch) error {
		b.Disown() // held by the result
		batches = append(batches, b)
		return nil
	})
	if err == nil {
		res.Batches = batches
	}
	return res, err
}

// Exec parses and executes one statement.
func (s *Session) Exec(text string) (*Result, error) {
	st, err := sql.Parse(text, s.dialect)
	if err != nil {
		return nil, err
	}
	return s.boxed(st, text)
}

// ExecParsed executes an already-parsed statement: StreamParsed with the
// rows boxed into the Result.
func (s *Session) ExecParsed(st sql.Statement) (*Result, error) {
	return s.boxed(st, "")
}

// StreamParsed executes an already-parsed statement (the MPP coordinator
// ships rewritten ASTs to shard engines through this entry point), handing
// its result to emit a batch at a time: a SELECT's batches as its plan
// produces them, any other statement's rows as one batch (vec.FromRows). emit
// may keep the batches; an error from it ends the statement with that
// error. The Result carries everything but the rows.
func (s *Session) StreamParsed(st sql.Statement, emit func(*vec.Batch) error) (*Result, error) {
	return s.execStmt(st, "", emit)
}

// boxed runs st through execStmt with its rows boxed into the Result.
func (s *Session) boxed(st sql.Statement, text string) (*Result, error) {
	return Boxed(func(emit func(*vec.Batch) error) (*Result, error) { return s.execStmt(st, text, emit) })
}

// ExecScript executes a ';'-separated script, returning the last result.
func (s *Session) ExecScript(text string) (*Result, error) {
	stmts, err := sql.ParseScript(text, s.dialect)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, st := range stmts {
		last, err = s.boxed(st, text)
		if err != nil {
			return nil, err
		}
	}
	if last == nil {
		last = &Result{Message: "OK"}
	}
	return last, nil
}

// Query is Exec restricted to row-returning statements.
func (s *Session) Query(text string) (*Result, error) {
	r, err := s.Exec(text)
	if err != nil {
		return nil, err
	}
	if r.Columns == nil {
		return nil, fmt.Errorf("core: statement returned no result set")
	}
	return r, nil
}

// env builds the evaluation environment for one statement.
func (s *Session) env() *sql.EvalEnv {
	return &sql.EvalEnv{Now: time.Now().UTC(), Dialect: s.dialect}
}

func (s *Session) compiler() *sql.Compiler {
	c := sql.NewCompiler(s.db.cat, s.dialect, s.env())
	c.UDX = s.db.udx
	c.Parallelism = s.Parallelism()
	c.Gov = &mem.Governor{Broker: s.db.broker, SortLimit: s.sortHeap, HashLimit: s.hashHeap}
	c.NoCompressedExec = s.db.cfg.DisableCompressedExec
	c.DisableJoinReorder = s.joinOrder == "SYNTACTIC"
	s.mu.Lock()
	c.Params = s.params
	c.Snaps = s.snaps
	for name, src := range s.bound {
		c.Bind(name, src)
	}
	s.mu.Unlock()
	return c
}

// ExecParams executes a statement with positional ? parameters bound to
// args, in order (the prepared-statement surface behind the database/sql
// driver).
func (s *Session) ExecParams(text string, args ...types.Value) (*Result, error) {
	st, err := sql.Parse(text, s.dialect)
	if err != nil {
		return nil, err
	}
	return s.execStmtParams(st, args)
}

// Stmt is a prepared statement: parsed once, executable many times with
// different parameter bindings.
type Stmt struct {
	sess *Session
	st   sql.Statement
}

// Prepare parses a statement for repeated execution.
func (s *Session) Prepare(text string) (*Stmt, error) {
	st, err := sql.Parse(text, s.dialect)
	if err != nil {
		return nil, err
	}
	return &Stmt{sess: s, st: st}, nil
}

// Exec runs the prepared statement with the given parameter bindings.
func (st *Stmt) Exec(args ...types.Value) (*Result, error) {
	return st.sess.execStmtParams(st.st, args)
}

// execStmtParams executes with parameters carried via the session for the
// duration of the statement.
func (s *Session) execStmtParams(st sql.Statement, args []types.Value) (*Result, error) {
	s.mu.Lock()
	saved := s.params
	s.params = args
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.params = saved
		s.mu.Unlock()
	}()
	return s.boxed(st, "")
}
