package shardrpc

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"dashdb/internal/catalog"
	"dashdb/internal/clusterfs"
	"dashdb/internal/columnar"
	"dashdb/internal/core"
	"dashdb/internal/exec"
	"dashdb/internal/sql"
	"dashdb/internal/types"
)

// Server hosts shard engines behind the frame protocol: one OS process
// per node in the paper's deployment. All shard state lives on the
// clustered filesystem, so hosting is a soft association — Adopt opens
// a shard's file-set with the resources the coordinator computed,
// Release drops it, and the same shard can be adopted elsewhere after a
// node death without copying data (§II.E, Figure 9).
type Server struct {
	node   string
	fs     *clusterfs.FS
	pool   *Pool
	router *ShuffleRouter

	mu      sync.RWMutex
	engines map[int]*engineSlot

	appliedMu sync.Mutex // serializes applied-log read-modify-write cycles

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	ln     net.Listener
	addr   string
	wg     sync.WaitGroup
	closed atomic.Bool
}

type engineSlot struct {
	db     *core.DB
	assign ShardAssign
}

// NewServer returns a server over the shared filesystem; it hosts no
// shards until Adopt.
func NewServer(node string, fs *clusterfs.FS) *Server {
	return &Server{
		node:    node,
		fs:      fs,
		pool:    NewPool(node),
		router:  NewShuffleRouter(),
		engines: make(map[int]*engineSlot),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Router exposes the shuffle router (tests and in-process coordinators).
func (s *Server) Router() *ShuffleRouter { return s.router }

// Start listens on addr ("host:0" picks a free port) and serves until
// Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("shardrpc: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.addr = ln.Addr().String()
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.addr }

// Node returns the server's node name.
func (s *Server) Node() string { return s.node }

// Shards returns the sorted IDs of the shards this server hosts.
func (s *Server) Shards() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, len(s.engines))
	for id := range s.engines {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Engine returns a hosted shard's engine (in-process coordinators and
// the monitoring views).
func (s *Server) Engine(shardID int) (*core.DB, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	slot, ok := s.engines[shardID]
	if !ok {
		return nil, false
	}
	return slot.db, true
}

// Close stops accepting, persists every hosted shard and shuts down.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.connMu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	for id, slot := range s.engines {
		persistEngine(slot.db)
		slot.db.Close()
		delete(s.engines, id)
	}
	s.mu.Unlock()
	s.pool.Close()
}

// Adopt hosts shards with the given resources, reopening their state
// from the clustered filesystem. Idempotent: adopting an already-hosted
// shard with identical resources is a no-op; changed resources persist
// and reopen the engine with the new budgets (the post-failover "same
// data, smaller heaps" reconfiguration).
func (s *Server) Adopt(req AdoptReq) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range req.Shards {
		if slot, ok := s.engines[a.ID]; ok {
			if slot.assign == a {
				if err := EnsureTables(slot.db, req.Tables); err != nil {
					return fmt.Errorf("shardrpc: adopt shard %d: %w", a.ID, err)
				}
				continue
			}
			persistEngine(slot.db)
			slot.db.Close()
			delete(s.engines, a.ID)
		}
		db := OpenShard(s.fs, a)
		if err := EnsureTables(db, req.Tables); err != nil {
			db.Close()
			return fmt.Errorf("shardrpc: adopt shard %d: %w", a.ID, err)
		}
		s.engines[a.ID] = &engineSlot{db: db, assign: a}
	}
	return nil
}

// OpenShard opens a shard's engine over its file-set on the clustered
// filesystem with the resources the coordinator granted it.
func OpenShard(fs *clusterfs.FS, a ShardAssign) *core.DB {
	cfg := a.config()
	cfg.Store = fs.ShardStore(a.ID)
	return core.Open(cfg)
}

// config is the engine sizing of a grant, with no page store.
func (a ShardAssign) config() core.Config {
	return core.Config{
		BufferPoolBytes: int(a.MemBytes),
		Parallelism:     a.Parallelism,
		SortHeapBytes:   a.SortHeap,
		HashHeapBytes:   a.HashHeap,
	}
}

// EnsureTables opens (or creates empty) the shard-local slice of every
// table the coordinator knows about, on the engine's own page store.
func EnsureTables(db *core.DB, tables []TableSpec) error {
	var maxID uint32
	for _, t := range tables {
		if t.ID > maxID {
			maxID = t.ID
		}
		if _, ok := db.Table(t.Name); ok {
			continue
		}
		cfg := columnar.Config{Pool: db.Pool(), Store: db.Config().Store}
		tbl, err := columnar.OpenTable(t.ID, t.Schema, cfg)
		if err != nil {
			// No persisted meta yet: a freshly created shard slice.
			tbl = columnar.NewTable(t.ID, t.Name, t.Schema, cfg)
		}
		if err := db.Catalog().CreateTable(tbl, false); err != nil {
			return fmt.Errorf("table %s: %w", t.Name, err)
		}
	}
	db.Catalog().EnsureNextID(maxID + 1)
	return nil
}

// Release stops hosting shards after persisting them; their file-sets
// stay on the clustered filesystem for the next owner.
func (s *Server) Release(ids []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		slot, ok := s.engines[id]
		if !ok {
			continue
		}
		persistEngine(slot.db)
		slot.db.Close()
		delete(s.engines, id)
	}
}

// persistEngine saves every table's metadata (including the open
// stride) so another process can reopen the shard losslessly.
func persistEngine(db *core.DB) {
	for _, name := range db.Catalog().TableNames() {
		persistTable(db, name)
	}
}

func persistTable(db *core.DB, name string) {
	if tbl, ok := db.Table(name); ok {
		tbl.SaveMeta() //nolint:errcheck — best effort: shutdown, or the pages are already on clusterfs
	}
}

// writeTarget names the one table a write statement changes, "" when
// the statement has none (or may touch several, e.g. a compound block).
func writeTarget(st sql.Statement) string {
	switch w := st.(type) {
	case *sql.InsertStmt:
		return w.Table
	case *sql.UpdateStmt:
		return w.Table
	case *sql.DeleteStmt:
		return w.Table
	case *sql.TruncateStmt:
		return w.Table
	case *sql.CreateTableStmt:
		return w.Table
	}
	return ""
}

// --- DML idempotency ---------------------------------------------------------

// A DML reply can be lost after the shard durably applied the statement:
// the connection breaks between persist and reply read, or the node dies
// right after persisting and a survivor adopts the already-updated state.
// The coordinator's failover retry would then re-apply the statement. To
// close that window each shard keeps a small log of recently applied
// statement tokens on the clustered filesystem, written immediately
// after the engine persists: a retry whose token is already logged is
// acknowledged (with the recorded affected count) without re-executing.
// The log lives in the shard's file-set, so it follows the shard to
// whichever node adopts it after a death. Residual at-least-once window:
// a crash between the engine persist and the token write re-applies one
// statement — two back-to-back clusterfs writes apart, versus the whole
// persist→reply round trip without the log. Concurrent coordinators
// racing distinct DML on one shard can also evict each other's tokens
// once the log wraps (appliedKeep entries), so retries are deduplicated
// best-effort, not transactionally.

// appliedKeep bounds the per-shard applied-token log.
const appliedKeep = 32

type appliedEntry struct {
	Token        uint64
	RowsAffected int64
}

type appliedLog struct {
	Recent []appliedEntry // newest last, at most appliedKeep
}

func appliedPath(shardID int) string {
	return fmt.Sprintf("shards/%04d/applied", shardID)
}

// lookupApplied reports whether this shard already applied the token,
// and the affected count recorded for it.
func (s *Server) lookupApplied(shardID int, token uint64) (int64, bool) {
	if token == 0 {
		return 0, false
	}
	s.appliedMu.Lock()
	defer s.appliedMu.Unlock()
	lg := s.readAppliedLocked(shardID)
	for _, e := range lg.Recent {
		if e.Token == token {
			return e.RowsAffected, true
		}
	}
	return 0, false
}

func (s *Server) readAppliedLocked(shardID int) appliedLog {
	var lg appliedLog
	data, err := s.fs.ReadFile(appliedPath(shardID))
	if err != nil {
		return lg
	}
	decodeGob(data, &lg) //nolint:errcheck — a corrupt log reads as empty
	return lg
}

// markApplied logs a token after the shard state it covers is persisted.
func (s *Server) markApplied(shardID int, token uint64, affected int64) {
	if token == 0 {
		return
	}
	s.appliedMu.Lock()
	defer s.appliedMu.Unlock()
	lg := s.readAppliedLocked(shardID)
	lg.Recent = append(lg.Recent, appliedEntry{Token: token, RowsAffected: affected})
	if len(lg.Recent) > appliedKeep {
		lg.Recent = lg.Recent[len(lg.Recent)-appliedKeep:]
	}
	if data, err := encodeGob(&lg); err == nil {
		s.fs.WriteFile(appliedPath(shardID), data)
	}
}

func (s *Server) engine(shardID int) (*engineSlot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	slot, ok := s.engines[shardID]
	if !ok {
		return nil, fmt.Errorf("shard %d not hosted on %s", shardID, s.node)
	}
	return slot, nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(nc)
		}()
	}
}

// handleConn serves one protocol connection: Hello first, then a
// request/response loop. Request handling errors answer FrameErr and
// keep the connection (framing stays intact because payloads are always
// fully read); transport errors end it.
func (s *Server) handleConn(nc net.Conn) {
	s.connMu.Lock()
	s.conns[nc] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, nc)
		s.connMu.Unlock()
		nc.Close()
	}()
	c := serverConn{nc: nc}
	c.init()
	t, _, err := c.read()
	if err != nil || t != FrameHello {
		return
	}
	if err := c.write(FrameOK, nil); err != nil {
		return
	}
	for !s.closed.Load() {
		t, payload, err := c.read()
		if err != nil {
			return
		}
		if err := s.dispatch(&c, t, payload); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(c *serverConn, t FrameType, payload []byte) error {
	reply := func(err error) error {
		if err != nil {
			return c.write(FrameErr, []byte(err.Error()))
		}
		return c.write(FrameOK, nil)
	}
	switch t {
	case FramePing:
		info, err := encodeGob(&PingInfo{Node: s.node, Shards: s.Shards()})
		if err != nil {
			return reply(err)
		}
		return c.write(FramePong, info)
	case FrameExec:
		return s.handleExec(c, payload)
	case FrameInsert:
		return reply(s.handleInsert(payload))
	case FrameShuffleData, FrameShuffleEOF:
		return reply(s.handleShuffle(t, payload))
	case FrameShuffleDrop:
		q, n := binary.Uvarint(payload)
		if n <= 0 {
			return reply(fmt.Errorf("shuffle drop: truncated query id"))
		}
		s.router.Drop(q)
		return reply(nil)
	case FrameAdopt:
		var req AdoptReq
		if _, err := decodeGob(payload, &req); err != nil {
			return reply(err)
		}
		return reply(s.Adopt(req))
	case FrameRelease:
		var req ReleaseReq
		if _, err := decodeGob(payload, &req); err != nil {
			return reply(err)
		}
		s.Release(req.Shards)
		return reply(nil)
	case FrameRowCount:
		return s.handleRowCount(c, payload)
	default:
		return reply(fmt.Errorf("unexpected frame type %d", t))
	}
}

// writeResultStream streams a core.Result: header, row blocks, optional
// stats, done.
func writeResultStream(c *serverConn, res *core.Result, withStats bool) error {
	hdr, err := encodeGob(&ResultHdr{Columns: res.Columns, RowsAffected: res.RowsAffected, Message: res.Message})
	if err != nil {
		return c.write(FrameErr, []byte(err.Error()))
	}
	if err := c.write(FrameResultHdr, hdr); err != nil {
		return err
	}
	const blockRows = 4096
	for off := 0; off < len(res.Rows); off += blockRows {
		end := min(off+blockRows, len(res.Rows))
		block, err := EncodeRowBlock(nil, res.Rows[off:end])
		if err != nil {
			return c.write(FrameErr, []byte(err.Error()))
		}
		if err := c.write(FrameRows, block); err != nil {
			return err
		}
	}
	if withStats && res.Stats != nil {
		sm, err := encodeGob(&StatsMsg{Record: *res.Stats})
		if err != nil {
			return c.write(FrameErr, []byte(err.Error()))
		}
		if err := c.write(FrameStats, sm); err != nil {
			return err
		}
	}
	return c.write(FrameDone, nil)
}

// isReadOnly reports whether a statement mutates shard state (used to
// decide whether to persist table metadata afterwards).
func isReadOnly(st sql.Statement) bool {
	switch st.(type) {
	case *sql.SelectStmt, *sql.ExplainStmt, *sql.ValuesStmt, *sql.SetStmt:
		return true
	}
	return false
}

// handleExec is the one statement entry point: DML under the applied-token
// log, a SELECT over the shard's tables, and both sides of a shuffle
// exchange (see Exchange).
func (s *Server) handleExec(c *serverConn, payload []byte) error {
	var req ExecReq
	if _, err := decodeGob(payload, &req); err != nil {
		return c.write(FrameErr, []byte(err.Error()))
	}
	slot, err := s.engine(req.ShardID)
	if err != nil {
		return c.write(FrameErr, []byte(err.Error()))
	}
	db := slot.db
	write := !isReadOnly(req.Stmt)
	x := req.Exchange
	if x == nil {
		x = &Exchange{}
	} else if _, sel := req.Stmt.(*sql.SelectStmt); !sel {
		return c.write(FrameErr, []byte("exchange on a statement that is not a SELECT"))
	}
	if len(x.Inputs) > 0 {
		// The scratch engine inherits the shard's post-failover budgets, so
		// reduced SORTHEAP/HASHHEAP and DOP govern the statement itself (and
		// the 8KB-heap parity tests exercise mid-join spills here).
		db = core.Open(slot.assign.config())
		defer db.Close()
		defer s.router.DropPart(x.Query, x.Part)
		for _, in := range x.Inputs {
			src := s.router.Source(x.Query, in.Stage, x.Part, x.Senders)
			nick := &Nick{Sch: in.Schema, From: "MPP-SHUFFLE", Fetch: func() ([]types.Row, error) { return recvAll(src) }}
			if err := db.Catalog().CreateNickname(in.Name, nick); err != nil {
				return c.write(FrameErr, []byte(err.Error()))
			}
		}
	}
	if write {
		if affected, ok := s.lookupApplied(req.ShardID, req.Token); ok {
			// Lost-reply retry of a statement this shard already durably
			// applied: acknowledge without re-executing it.
			return writeResultStream(c, &core.Result{RowsAffected: affected, Message: "OK"}, false)
		}
	}
	sess := db.NewSession()
	sess.SetDialect(req.Dialect)
	res, err := sess.ExecParsed(req.Stmt)
	if err != nil {
		return c.write(FrameErr, []byte(err.Error()))
	}
	if write {
		// SaveMeta rewrites a table's whole metadata, so persist only what
		// the statement changed.
		if target := writeTarget(req.Stmt); target != "" {
			persistTable(slot.db, target)
		} else {
			persistEngine(slot.db)
		}
		s.markApplied(req.ShardID, req.Token, res.RowsAffected)
	}
	if out := x.Output; out != nil {
		w := &exec.ShuffleWriterOp{
			Child: exec.NewValues(Untyped(res.Columns), res.Rows),
			Keys:  out.Keys,
			Parts: len(out.Parts),
			Sink:  NewNetSink(s.pool, s.router, s.addr, x.Query, out.Stage, out.Sender, out.Parts),
		}
		if _, err := exec.Drain(w); err != nil {
			return c.write(FrameErr, []byte(err.Error()))
		}
		res = &core.Result{Columns: res.Columns, RowsAffected: w.Sent, Stats: res.Stats}
	}
	return writeResultStream(c, res, req.WithStats)
}

// Untyped is the schema of a result known only by its column names.
func Untyped(names []string) types.Schema {
	sch := make(types.Schema, len(names))
	for i, name := range names {
		sch[i] = types.Column{Name: name, Nullable: true}
	}
	return sch
}

func (s *Server) handleInsert(payload []byte) error {
	var hdr InsertHdr
	rest, err := decodeGob(payload, &hdr)
	if err != nil {
		return err
	}
	rows, err := DecodeRowBlock(rest)
	if err != nil {
		return err
	}
	slot, err := s.engine(hdr.ShardID)
	if err != nil {
		return err
	}
	if _, ok := s.lookupApplied(hdr.ShardID, hdr.Token); ok {
		return nil // this bucket already landed durably; retry after a lost reply
	}
	tbl, ok := slot.db.Table(hdr.Table)
	if !ok {
		return fmt.Errorf("shard %d missing table %s", hdr.ShardID, hdr.Table)
	}
	if err := tbl.InsertBatch(rows); err != nil {
		return err
	}
	if err := tbl.SaveMeta(); err != nil {
		return err
	}
	s.markApplied(hdr.ShardID, hdr.Token, int64(len(rows)))
	return nil
}

func (s *Server) handleShuffle(t FrameType, payload []byte) error {
	h, rest, err := decodeShuffleHdr(payload)
	if err != nil {
		return err
	}
	if t == FrameShuffleEOF {
		s.router.EOF(h.Query, h.Stage, h.Part)
		return nil
	}
	rows, err := DecodeRowBlock(rest)
	if err != nil {
		return err
	}
	s.router.Deliver(h.Query, h.Stage, h.Part, rows)
	return nil
}

// Nick is a catalog nickname over rows that arrive once per statement: a
// shuffle partition on a shard, a shard statement's output at the
// coordinator. The fetch is cached, so a plan that reads the name twice
// sees the same rows and moves them once.
type Nick struct {
	Sch   types.Schema
	From  string // Origin
	Fetch func() ([]types.Row, error)

	once sync.Once
	rows []types.Row
	err  error
}

var _ catalog.RemoteSource = (*Nick)(nil)

func (n *Nick) Schema() types.Schema { return n.Sch }
func (n *Nick) Origin() string       { return n.From }

func (n *Nick) ScanAll() ([]types.Row, error) {
	n.once.Do(func() { n.rows, n.err = n.Fetch() })
	return n.rows, n.err
}

// recvAll drains a shuffle partition.
func recvAll(src exec.ShuffleSource) ([]types.Row, error) {
	var rows []types.Row
	for {
		batch, err := src.Recv()
		if err != nil || batch == nil {
			return rows, err
		}
		rows = append(rows, batch...)
	}
}

func (s *Server) handleRowCount(c *serverConn, payload []byte) error {
	var req RowCountReq
	if _, err := decodeGob(payload, &req); err != nil {
		return c.write(FrameErr, []byte(err.Error()))
	}
	slot, err := s.engine(req.ShardID)
	if err != nil {
		return c.write(FrameErr, []byte(err.Error()))
	}
	tbl, ok := slot.db.Table(req.Table)
	if !ok {
		return c.write(FrameErr, []byte(fmt.Sprintf("shard %d missing table %s", req.ShardID, req.Table)))
	}
	n, err := encodeGob(int64(tbl.Rows()))
	if err != nil {
		return c.write(FrameErr, []byte(err.Error()))
	}
	return c.write(FrameOK, n)
}
