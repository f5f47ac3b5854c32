package shardrpc

import (
	"encoding/binary"
	"errors"
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
	"dashdb/internal/vec"
)

// Server hosts shard engines: one OS process per node in the paper's
// deployment, reached through the frame protocol once Start listens, or
// one server for every shard of an in-process cluster, whose coordinator
// calls Adopt, Exec, Insert and RowCount directly. All shard state lives
// on the clustered filesystem, so hosting is a soft association — Adopt
// opens a shard's file-set with the resources the coordinator computed,
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

// Router exposes the shuffle router.
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

// listening reports whether other processes reach this server, and so
// may adopt its shards at any moment: only then does a write persist its
// table's metadata at once and log its token. A server that never called
// Start hosts an in-process cluster, where no other process can adopt a
// shard mid-run, so it persists at Release, Close and the cluster's
// Checkpoint.
func (s *Server) listening() bool { return s.ln != nil }

// Ping reports the node and the shards this server hosts.
func (s *Server) Ping() PingInfo { return PingInfo{Node: s.node, Shards: s.Shards()} }

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
// from the clustered filesystem. Idempotent: an already-hosted shard keeps
// its engine, resized in place when its grant changed (the post-failover
// "same data, smaller heaps" reconfiguration), and opens the tables it
// lacks.
func (s *Server) Adopt(req AdoptReq) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range req.Shards {
		slot, hosted := s.engines[a.ID]
		if !hosted {
			slot = &engineSlot{db: OpenShard(s.fs, a), assign: a}
		} else if slot.assign != a {
			slot.db.Resize(int(a.MemBytes), a.SortHeap, a.HashHeap, a.Parallelism)
			slot.assign = a
		}
		if err := EnsureTables(slot.db, req.Tables); err != nil {
			if !hosted {
				slot.db.Close()
			}
			return fmt.Errorf("shardrpc: adopt shard %d: %w", a.ID, err)
		}
		s.engines[a.ID] = slot
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
		cfg := columnar.Config{Pool: db.Pool(), Store: db.Config().Store, Dop: db.Config().Parallelism}
		tbl, err := columnar.OpenTable(t.ID, t.Schema, cfg)
		if errors.Is(err, columnar.ErrNoMeta) {
			// A freshly created shard slice. Metadata that does not read
			// is an error, never an empty table.
			tbl, err = columnar.NewTable(t.ID, t.Name, t.Schema, cfg), nil
		}
		if err != nil {
			return fmt.Errorf("table %s: %w", t.Name, err)
		}
		if err := db.Catalog().CreateTable(tbl); err != nil {
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

// The log is a types.Reader message behind the types.BlobAppliedLog
// header: a list of entries, oldest first, each a uvarint token and a
// varint affected count.

func appendApplied(dst []byte, log []appliedEntry) []byte {
	dst = binary.AppendUvarint(types.AppendHeader(dst, types.BlobAppliedLog), uint64(len(log)))
	for _, e := range log {
		dst = binary.AppendVarint(binary.AppendUvarint(dst, e.Token), e.RowsAffected)
	}
	return dst
}

func readApplied(data []byte) ([]appliedEntry, error) {
	return decode(data, "applied-token log", func(r *types.Reader) []appliedEntry {
		r.Header(types.BlobAppliedLog)
		n := r.Count()
		if n == 0 {
			return nil
		}
		log := make([]appliedEntry, n)
		for i := range log {
			log[i] = appliedEntry{Token: r.Uvarint(), RowsAffected: r.Varint()}
		}
		return log
	})
}

func appliedPath(shardID int) string {
	return fmt.Sprintf("shards/%04d/applied", shardID)
}

// lookupApplied reports whether this shard already applied the token,
// and the affected count recorded for it. A log that does not read is an
// error, never an empty log: a retry it might name must not run again.
func (s *Server) lookupApplied(shardID int, token uint64) (int64, bool, error) {
	if token == 0 {
		return 0, false, nil
	}
	s.appliedMu.Lock()
	defer s.appliedMu.Unlock()
	log, err := s.readAppliedLocked(shardID)
	if err != nil {
		return 0, false, err
	}
	for _, e := range log {
		if e.Token == token {
			return e.RowsAffected, true, nil
		}
	}
	return 0, false, nil
}

// readAppliedLocked reads a shard's log; a shard without one has logged
// nothing.
func (s *Server) readAppliedLocked(shardID int) ([]appliedEntry, error) {
	data, err := s.fs.ReadFile(appliedPath(shardID))
	if err != nil {
		return nil, nil
	}
	log, err := readApplied(data)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %s: %w", shardID, appliedPath(shardID), err)
	}
	return log, nil
}

// markApplied logs a token after the shard state it covers is persisted.
// A log that does not read stays as it is, and keeps refusing tokens.
func (s *Server) markApplied(shardID int, token uint64, affected int64) error {
	if token == 0 {
		return nil
	}
	s.appliedMu.Lock()
	defer s.appliedMu.Unlock()
	log, err := s.readAppliedLocked(shardID)
	if err != nil {
		return err
	}
	log = append(log, appliedEntry{Token: token, RowsAffected: affected})
	if len(log) > appliedKeep {
		log = log[len(log)-appliedKeep:]
	}
	s.fs.WriteFile(appliedPath(shardID), appendApplied(nil, log))
	return nil
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
// request/response loop. A request that does not decode or fails answers
// FrameErr and keeps the connection (framing stays intact because
// payloads are always fully read, and each decodes on its own); a
// transport error ends it, as does a Hello that does not decode.
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
	t, payload, err := c.read()
	if err != nil || t != FrameHello {
		return
	}
	if _, err := decode(payload, "hello", readHello); err != nil {
		c.write(FrameErr, []byte(err.Error())) //nolint:errcheck — the connection closes either way
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
		info := s.Ping()
		c.buf = appendPingInfo(c.buf[:0], &info)
		return c.write(FramePong, c.buf)
	case FrameExec:
		req, err := readExecReq(payload)
		if err != nil {
			return reply(err)
		}
		return s.handleExec(c, req)
	case FrameInsert:
		hdr, block, err := readInsert(payload)
		if err != nil {
			return reply(err)
		}
		return reply(s.handleInsert(hdr, block))
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
		req, err := decode(payload, "adopt request", readAdoptReq)
		if err == nil {
			err = s.Adopt(req)
		}
		return reply(err)
	case FrameRelease:
		req, err := decode(payload, "release request", readReleaseReq)
		if err == nil {
			s.Release(req.Shards)
		}
		return reply(err)
	case FrameRowCount:
		req, err := decode(payload, "row count request", readRowCountReq)
		var n int64
		if err == nil {
			n, err = s.RowCount(req.ShardID, req.Table)
		}
		if err != nil {
			return reply(err)
		}
		c.buf = binary.AppendVarint(c.buf[:0], n)
		return c.write(FrameOK, c.buf)
	default:
		return reply(fmt.Errorf("unexpected frame type %d", t))
	}
}

// writeDone ends a response stream whose rows went out as the statement
// produced them, flushing the frames the statement left buffered with it.
func writeDone(c *serverConn, res *core.Result, sentBytes int64, withStats bool) error {
	c.buf = appendDone(c.buf[:0], res, sentBytes, withStats)
	return c.write(FrameDone, c.buf)
}

// blockRows is about how many rows a FrameRows block holds: a statement's
// batches are framed a few at a time.
const blockRows = 4096

// rowFramer frames a statement's batches as FrameRows blocks while it
// runs, in the connection's buffer. A full block is flushed at once, so a
// long statement keeps the client reading; the last one waits for
// FrameDone. A failed write is the connection's, kept apart from the
// statement's errors.
type rowFramer struct {
	c       *serverConn
	pending []*vec.Batch
	rows    int
	lost    error // the connection failed
}

func (f *rowFramer) add(b *vec.Batch) error {
	f.pending = append(f.pending, b)
	if f.rows += b.Rows(); f.rows >= blockRows {
		return f.frame(f.c.write)
	}
	return nil
}

// frame sends the pending batches as one block through send.
func (f *rowFramer) frame(send func(FrameType, []byte) error) error {
	if len(f.pending) == 0 {
		return nil
	}
	block, err := vec.AppendBlock(f.c.buf[:0], f.pending...)
	for _, b := range f.pending {
		b.Release() // the block holds copies
	}
	clear(f.pending)
	f.pending, f.rows = f.pending[:0], 0
	if err != nil {
		return err
	}
	f.c.buf = block
	if err := send(FrameRows, block); err != nil {
		f.lost = err
		return err
	}
	return nil
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

// handleExec answers FrameExec: the statement's rows go out as FrameRows
// blocks while it runs, then FrameDone.
func (s *Server) handleExec(c *serverConn, req ExecReq) error {
	defer func() { c.buf = keepBuf(c.buf) }()
	frames := rowFramer{c: c}
	res, sentBytes, err := s.Exec(req, frames.add)
	if err == nil {
		err = frames.frame(c.send)
	}
	if frames.lost != nil {
		return frames.lost
	}
	if err != nil {
		return c.write(FrameErr, []byte(err.Error()))
	}
	return writeDone(c, res, sentBytes, req.WithStats)
}

// Exec is the one statement entry point: DML under the applied-token log,
// a SELECT over the shard's tables, and both sides of a shuffle exchange
// (see Exchange). The statement's rows go to emit as it produces them,
// unless the exchange sends them to their partitions' owners; sentBytes
// is the bytes of the blocks that crossed to other servers.
func (s *Server) Exec(req ExecReq, emit func(*vec.Batch) error) (res *core.Result, sentBytes int64, err error) {
	slot, err := s.engine(req.ShardID)
	if err != nil {
		return nil, 0, err
	}
	x := req.Exchange
	if x == nil {
		x = &Exchange{}
	} else if _, sel := req.Stmt.(*sql.SelectStmt); !sel {
		return nil, 0, errors.New("exchange on a statement that is not a SELECT")
	}
	logged := s.listening() && !isReadOnly(req.Stmt)
	if logged {
		affected, ok, err := s.lookupApplied(req.ShardID, req.Token)
		if err != nil {
			return nil, 0, err
		}
		if ok {
			// Lost-reply retry of a statement this shard already durably
			// applied: acknowledge without re-executing it.
			return &core.Result{RowsAffected: affected, Message: "OK"}, 0, nil
		}
	}
	sess := slot.db.NewSession()
	sess.SetDialect(req.Dialect)
	if len(x.Inputs) > 0 {
		// Each input is this partition's share of a stage, bound on the
		// request's session: the statement runs in the shard's own engine,
		// under its current heaps, DOP and WLM, into its query history.
		defer s.router.DropPart(x.Query, x.Part)
		for _, in := range x.Inputs {
			src := s.router.Source(x.Query, in.Stage, x.Part, x.Senders)
			sess.Bind(in.Name, &Nick{Sch: in.Schema, Fetch: src.all})
		}
	}
	if out := x.Output; out != nil {
		// The statement's rows go to their partitions' owners instead.
		sink := newNetSink(s.pool, s.router, s.addr, x.Query, out.Stage, out.Sender, out.Parts)
		w := &exec.ShuffleWriter{Keys: out.Keys, Parts: len(out.Parts), Sink: sink}
		if res, err = sess.StreamParsed(req.Stmt, w.Write); err == nil {
			err = w.Flush()
		}
		if err != nil {
			return nil, 0, err
		}
		res = &core.Result{Columns: res.Columns, RowsAffected: w.Sent, Stats: res.Stats}
		sentBytes = sink.sentBytes
	} else if res, err = sess.StreamParsed(req.Stmt, emit); err != nil {
		return nil, 0, err
	}
	if logged {
		// SaveMeta rewrites a table's whole metadata, so persist only what
		// the statement changed.
		if target := writeTarget(req.Stmt); target != "" {
			persistTable(slot.db, target)
		} else {
			persistEngine(slot.db)
		}
		if err := s.markApplied(req.ShardID, req.Token, res.RowsAffected); err != nil {
			return nil, 0, err
		}
	}
	return res, sentBytes, nil
}

// handleInsert answers FrameInsert: the bucket's block decodes only if
// Insert gets past the token check.
func (s *Server) handleInsert(hdr InsertHdr, block []byte) error {
	return s.Insert(hdr.ShardID, hdr.Table, hdr.Token, &Bucket{block: block})
}

// Insert appends one bucket to a shard's table as the typed lanes it
// holds. A retried bucket that already landed is answered before a
// received block is decoded.
func (s *Server) Insert(shardID int, table string, token uint64, rows *Bucket) error {
	slot, err := s.engine(shardID)
	if err != nil {
		return err
	}
	logged := s.listening()
	if logged {
		if _, ok, err := s.lookupApplied(shardID, token); err != nil || ok {
			return err // ok: this bucket already landed durably; retry after a lost reply
		}
	}
	b, err := rows.batch()
	if err != nil {
		return err
	}
	tbl, ok := slot.db.Table(table)
	if !ok {
		return fmt.Errorf("shard %d missing table %s", shardID, table)
	}
	if _, err := tbl.Append(b); err != nil || !logged {
		return err
	}
	if err := tbl.SaveMeta(); err != nil {
		return err
	}
	return s.markApplied(shardID, token, int64(b.N))
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
	b, err := vec.DecodeBlock(rest)
	if err != nil {
		return err
	}
	s.router.Deliver(h.Query, h.Stage, h.Part, []*vec.Batch{b})
	return nil
}

// Nick is a source bound for one statement over batches that arrive once
// per statement: a shuffle partition on a shard, a shard statement's output
// at the coordinator. The fetch is cached, so a plan that reads the name twice
// sees the same batches and moves them once. Sch is the schema its reader
// binds.
type Nick struct {
	Sch   types.Schema
	Fetch func() ([]*vec.Batch, error)

	once    sync.Once
	batches []*vec.Batch
	err     error
}

var _ catalog.RemoteSource = (*Nick)(nil)

func (n *Nick) Schema() types.Schema { return n.Sch }

func (n *Nick) ScanAll() ([]*vec.Batch, error) {
	n.once.Do(func() { n.batches, n.err = n.Fetch() })
	return n.batches, n.err
}

// RowCount returns a shard table's live row count.
func (s *Server) RowCount(shardID int, table string) (int64, error) {
	slot, err := s.engine(shardID)
	if err != nil {
		return 0, err
	}
	tbl, ok := slot.db.Table(table)
	if !ok {
		return 0, fmt.Errorf("shard %d missing table %s", shardID, table)
	}
	return int64(tbl.SnapshotInfo().Rows), nil
}
