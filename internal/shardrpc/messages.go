package shardrpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"dashdb/internal/core"
	"dashdb/internal/sql"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
)

// Messages. Every payload is binary, in types.Reader's integers, strings
// and bools, and decodes on its own: a control message (Hello, PingInfo,
// AdoptReq, ReleaseReq, RowCountReq, InsertHdr and RowCount's reply), a
// statement's request (ExecReq, whose statement is the sql package's AST
// codec) and the end of its response (FrameDone), like the rows and
// shuffle headers between them. The coordinator builds trees — shard
// statements with partial-aggregate select lists over base tables or
// shuffle inputs — and ships them, so no SQL renderer exists anywhere in
// the protocol. The cluster manifest, persisted beside the shards'
// file-sets, is one of these messages behind a blob header.

// Hello opens a connection; the server answers FrameOK.
type Hello struct {
	Node string // client's node name, for server logs/telemetry
}

// PingInfo answers FramePing: which shards this server currently hosts.
type PingInfo struct {
	Node   string
	Shards []int
}

// ExecReq runs one parsed statement on one hosted shard. The response is
// zero or more FrameRows, then FrameDone — or FrameErr.
type ExecReq struct {
	ShardID int
	Dialect sql.Dialect
	Stmt    sql.Statement
	// Wire, when set, holds Stmt's wire bytes for every call that sends
	// this Stmt — each shard of a scatter, each sender of a shuffle stage,
	// each target of a broadcast — so the statement is encoded once, by
	// the first send. Without it each send encodes Stmt itself.
	Wire      *StmtWire
	SQL       string // original text, for telemetry/history on the shard
	WithStats bool   // collect ANALYZE records for coordinator merge
	// Token is the statement's idempotency token for DML (0 = none): a
	// shard that already applied and logged this token acknowledges the
	// request without re-executing, so a failover retry after a lost
	// reply cannot double-apply (see the Server applied log).
	Token uint64
	// Exchange makes the statement, a SELECT, one side of a distributed
	// query's shuffle exchange; nil for every other statement.
	Exchange *Exchange
}

// StmtWire is the wire form of one statement that many requests send. Its
// zero value is empty; the first request that sends it encodes its
// statement into it, and a later request with another statement is
// refused.
type StmtWire struct {
	once sync.Once
	st   sql.Statement
	wire []byte
	err  error
}

// encoded returns st's wire bytes, encoding them on the first call.
func (w *StmtWire) encoded(st sql.Statement) ([]byte, error) {
	w.once.Do(func() { w.st = st; w.wire, w.err = sql.AppendStmt(nil, st) })
	if w.st != st {
		return nil, errors.New("shardrpc: shared wire bytes of another statement")
	}
	return w.wire, w.err
}

// Exchange places a SELECT at a shuffle exchange. With Inputs, the
// statement runs in the shard's own engine, on the request's session,
// where each input names the rows delivered to partition Part of one
// shuffle stage; the partition's inboxes are dropped when the statement
// ends. With Output, the statement's rows are hash-partitioned to their
// owners instead of returned, and the response ends once they are
// delivered.
type Exchange struct {
	Query   uint64 // coordinator-minted distributed query ID keying the inboxes
	Inputs  []ShuffleInput
	Part    int // partition ordinal the inputs are read from
	Senders int // senders per stage; each EOFs once
	Output  *ShuffleOutput
}

// ShuffleInput binds one shuffle stage's partition as a table of the
// statement.
type ShuffleInput struct {
	Name   string
	Schema types.Schema
	Stage  int
}

// ShuffleOutput sends a statement's rows into shuffle stage Stage: hashed
// on the Keys ordinals across Parts, EOF'd to every part as sender Sender.
type ShuffleOutput struct {
	Stage  int
	Keys   []int
	Parts  []PartLoc
	Sender int
}

// InsertHdr prefixes a FrameInsert payload; the batch block is the rest
// of the payload after the header.
type InsertHdr struct {
	ShardID int
	Table   string
	NRows   int
	// Token is the idempotency token shared by every shard bucket of one
	// logical insert (0 = none); same replay protection as ExecReq.Token.
	Token uint64
}

// TableSpec is the catalog entry shipped with AdoptReq so an adopting
// node can reopen (or create) the shard-local slice of every table.
type TableSpec struct {
	Name         string
	ID           uint32
	Schema       types.Schema
	DistributeBy string // "" for replicated tables
	Replicated   bool
}

// ShardAssign tells a server to host one shard with the per-shard
// resources computed by the coordinator: after a failover the surviving
// nodes run more shards each, so every shard gets a smaller buffer
// pool, SORTHEAP/HASHHEAP and DOP (paper Figure 9).
type ShardAssign struct {
	ID          int
	MemBytes    int64
	SortHeap    int64
	HashHeap    int64
	Parallelism int
}

// AdoptReq asks a server to host shards from clusterfs-persisted state.
// Reason is "bootstrap", "failover", "grow" or "shrink" (telemetry).
type AdoptReq struct {
	Shards []ShardAssign
	Tables []TableSpec
	Reason string
}

// ReleaseReq asks a server to stop hosting shards (elastic re-shard:
// the shards move to another node; their file-sets stay on clusterfs).
type ReleaseReq struct {
	Shards []int
}

// RowCountReq asks for a table's live row count on one shard.
type RowCountReq struct {
	ShardID int
	Table   string
}

// Manifest is the cluster's persisted shape: the shard count, which the
// shards' file-sets fix, and the tables, whose storage ids are identical
// on every shard.
type Manifest struct {
	NShards int
	Tables  []TableSpec
}

// PartLoc is one shuffle destination: the server address and the shard
// (= partition owner) on it. Addr "" means the partition stays on the
// sending server (loopback short-circuit).
type PartLoc struct {
	Addr    string
	ShardID int
}

// shuffleHdr is the binary prefix of FrameShuffleData/FrameShuffleEOF
// payloads: uvarint query, stage, partition, sender; data frames append
// a batch block.
type shuffleHdr struct {
	Query  uint64
	Stage  int
	Part   int
	Sender int
}

func appendShuffleHdr(dst []byte, h shuffleHdr) []byte {
	dst = binary.AppendUvarint(dst, h.Query)
	dst = binary.AppendUvarint(dst, uint64(h.Stage))
	dst = binary.AppendUvarint(dst, uint64(h.Part))
	dst = binary.AppendUvarint(dst, uint64(h.Sender))
	return dst
}

func decodeShuffleHdr(b []byte) (shuffleHdr, []byte, error) {
	r := types.NewReader(b)
	h := shuffleHdr{Query: r.Uvarint(), Stage: int(r.Uvarint()), Part: int(r.Uvarint()), Sender: int(r.Uvarint())}
	return h, r.Rest(), readEnd(&r, "shuffle header", true)
}

// The binary messages. A list is its uvarint length and then its
// elements, an optional part a bool and then the part, a schema a list of
// columns (string name, byte kind, bool nullable).
//
// FrameHello: string node. FramePong: string node, the hosted shards.
// FrameAdopt: the shard grants (varint id, memory, sort heap, hash heap,
// parallelism), the tables (string name, uvarint id, schema, string
// distribution key, bool replicated), string reason. FrameRelease: the
// shards. FrameRowCount: varint shard, string table, answered by a
// FrameOK of the varint count. FrameInsert: varint shard, string table,
// varint rows, uvarint token, then the batch block to the end of the
// payload. The manifest: the types.BlobManifest header, varint shards,
// the tables.
//
// FrameExec: varint shard, byte dialect, uvarint token, bool with stats,
// string SQL text, the optional Exchange (appendExchange), then the
// statement (sql.AppendStmt) to the end of the payload.
//
// FrameDone: the column names, varint rows affected, string message,
// varint shuffled bytes, then the optional ANALYZE record (appendRecord).

// decode reads a whole payload as one message with read.
func decode[T any](payload []byte, what string, read func(*types.Reader) T) (T, error) {
	r := types.NewReader(payload)
	m := read(&r)
	return m, readEnd(&r, what, false)
}

func appendHello(dst []byte, h *Hello) []byte { return types.AppendStr(dst, h.Node) }

func readHello(r *types.Reader) Hello { return Hello{Node: r.Str()} }

func appendPingInfo(dst []byte, p *PingInfo) []byte {
	return appendInts(types.AppendStr(dst, p.Node), p.Shards)
}

func readPingInfo(r *types.Reader) PingInfo { return PingInfo{Node: r.Str(), Shards: readInts(r)} }

func appendAdoptReq(dst []byte, req *AdoptReq) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(req.Shards)))
	for _, a := range req.Shards {
		for _, x := range []int64{int64(a.ID), a.MemBytes, a.SortHeap, a.HashHeap, int64(a.Parallelism)} {
			dst = binary.AppendVarint(dst, x)
		}
	}
	return types.AppendStr(appendTableSpecs(dst, req.Tables), req.Reason)
}

func readAdoptReq(r *types.Reader) AdoptReq {
	var req AdoptReq
	if n := r.Count(); n > 0 {
		req.Shards = make([]ShardAssign, n)
		for i := range req.Shards {
			req.Shards[i] = ShardAssign{ID: int(r.Varint()), MemBytes: r.Varint(), SortHeap: r.Varint(), HashHeap: r.Varint(), Parallelism: int(r.Varint())}
		}
	}
	req.Tables, req.Reason = readTableSpecs(r), r.Str()
	return req
}

func appendReleaseReq(dst []byte, req *ReleaseReq) []byte { return appendInts(dst, req.Shards) }

func readReleaseReq(r *types.Reader) ReleaseReq { return ReleaseReq{Shards: readInts(r)} }

func appendRowCountReq(dst []byte, req *RowCountReq) []byte {
	return types.AppendStr(binary.AppendVarint(dst, int64(req.ShardID)), req.Table)
}

func readRowCountReq(r *types.Reader) RowCountReq {
	return RowCountReq{ShardID: int(r.Varint()), Table: r.Str()}
}

func readRowCount(r *types.Reader) int64 { return r.Varint() }

func appendInsertHdr(dst []byte, h *InsertHdr) []byte {
	dst = types.AppendStr(binary.AppendVarint(dst, int64(h.ShardID)), h.Table)
	return binary.AppendUvarint(binary.AppendVarint(dst, int64(h.NRows)), h.Token)
}

// readInsert decodes a FrameInsert payload's header and returns the batch
// block after it.
func readInsert(payload []byte) (InsertHdr, []byte, error) {
	r := types.NewReader(payload)
	h := InsertHdr{ShardID: int(r.Varint()), Table: r.Str(), NRows: int(r.Varint()), Token: r.Uvarint()}
	return h, r.Rest(), readEnd(&r, "insert header", true)
}

// AppendManifest appends m's blob to dst.
func AppendManifest(dst []byte, m *Manifest) []byte {
	dst = binary.AppendVarint(types.AppendHeader(dst, types.BlobManifest), int64(m.NShards))
	return appendTableSpecs(dst, m.Tables)
}

// ReadManifest decodes a blob AppendManifest wrote.
func ReadManifest(data []byte) (Manifest, error) {
	return decode(data, "manifest", func(r *types.Reader) Manifest {
		r.Header(types.BlobManifest)
		return Manifest{NShards: int(r.Varint()), Tables: readTableSpecs(r)}
	})
}

func appendTableSpecs(dst []byte, specs []TableSpec) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(specs)))
	for _, t := range specs {
		dst = binary.AppendUvarint(types.AppendStr(dst, t.Name), uint64(t.ID))
		dst = types.AppendStr(appendSchema(dst, t.Schema), t.DistributeBy)
		dst = types.AppendBool(dst, t.Replicated)
	}
	return dst
}

func readTableSpecs(r *types.Reader) []TableSpec {
	n := r.Count()
	if n == 0 {
		return nil
	}
	specs := make([]TableSpec, n)
	for i := range specs {
		specs[i] = TableSpec{Name: r.Str(), ID: uint32(r.Uvarint()), Schema: readSchema(r), DistributeBy: r.Str(), Replicated: r.Bool()}
	}
	return specs
}

func appendSchema(dst []byte, s types.Schema) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, c := range s {
		dst = append(types.AppendStr(dst, c.Name), byte(c.Kind))
		dst = types.AppendBool(dst, c.Nullable)
	}
	return dst
}

func readSchema(r *types.Reader) types.Schema {
	n := r.Count()
	if n == 0 {
		return nil
	}
	s := make(types.Schema, n)
	for i := range s {
		s[i] = types.Column{Name: r.Str(), Kind: types.Kind(r.Byte()), Nullable: r.Bool()}
	}
	return s
}

func appendInts(dst []byte, xs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = binary.AppendVarint(dst, int64(x))
	}
	return dst
}

func readInts(r *types.Reader) []int {
	n := r.Count()
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(r.Varint())
	}
	return xs
}

// appendExecReq appends req's FrameExec payload to dst. Shared wire bytes
// are copied; without them the statement is encoded in place.
func appendExecReq(dst []byte, req *ExecReq) ([]byte, error) {
	dst = binary.AppendVarint(dst, int64(req.ShardID))
	dst = append(dst, byte(req.Dialect))
	dst = binary.AppendUvarint(dst, req.Token)
	dst = types.AppendBool(dst, req.WithStats)
	dst = types.AppendStr(dst, req.SQL)
	dst = appendExchange(dst, req.Exchange)
	if req.Wire != nil {
		wire, err := req.Wire.encoded(req.Stmt)
		return append(dst, wire...), err
	}
	return sql.AppendStmt(dst, req.Stmt)
}

// readExecReq decodes a FrameExec payload.
func readExecReq(payload []byte) (ExecReq, error) {
	r := types.NewReader(payload)
	req := ExecReq{ShardID: int(r.Varint()), Dialect: sql.Dialect(r.Byte()), Token: r.Uvarint(), WithStats: r.Bool(), SQL: r.Str()}
	req.Exchange = readExchange(&r)
	if err := readEnd(&r, "exec request", true); err != nil {
		return ExecReq{}, err
	}
	st, n, err := sql.ReadStmt(r.Rest())
	if rest := len(r.Rest()); err == nil && n != rest {
		err = fmt.Errorf("shardrpc: exec request: %d bytes after the statement", rest-n)
	}
	req.Stmt = st
	return req, err
}

func appendExchange(dst []byte, x *Exchange) []byte {
	if dst = types.AppendBool(dst, x != nil); x == nil {
		return dst
	}
	dst = binary.AppendUvarint(dst, x.Query)
	dst = binary.AppendVarint(dst, int64(x.Part))
	dst = binary.AppendVarint(dst, int64(x.Senders))
	dst = binary.AppendUvarint(dst, uint64(len(x.Inputs)))
	for _, in := range x.Inputs {
		dst = binary.AppendVarint(types.AppendStr(dst, in.Name), int64(in.Stage))
		dst = appendSchema(dst, in.Schema)
	}
	out := x.Output
	if dst = types.AppendBool(dst, out != nil); out == nil {
		return dst
	}
	dst = binary.AppendVarint(dst, int64(out.Stage))
	dst = binary.AppendVarint(dst, int64(out.Sender))
	dst = appendInts(dst, out.Keys)
	dst = binary.AppendUvarint(dst, uint64(len(out.Parts)))
	for _, p := range out.Parts {
		dst = binary.AppendVarint(types.AppendStr(dst, p.Addr), int64(p.ShardID))
	}
	return dst
}

func readExchange(r *types.Reader) *Exchange {
	if !r.Bool() {
		return nil
	}
	x := &Exchange{Query: r.Uvarint(), Part: int(r.Varint()), Senders: int(r.Varint())}
	if n := r.Count(); n > 0 {
		x.Inputs = make([]ShuffleInput, n)
		for i := range x.Inputs {
			x.Inputs[i] = ShuffleInput{Name: r.Str(), Stage: int(r.Varint()), Schema: readSchema(r)}
		}
	}
	if !r.Bool() {
		return x
	}
	out := &ShuffleOutput{Stage: int(r.Varint()), Sender: int(r.Varint()), Keys: readInts(r)}
	if n := r.Count(); n > 0 {
		out.Parts = make([]PartLoc, n)
		for i := range out.Parts {
			out.Parts[i] = PartLoc{Addr: r.Str(), ShardID: int(r.Varint())}
		}
	}
	x.Output = out
	return x
}

// appendDone appends the FrameDone payload that ends a statement's
// response: everything of res but its rows, the bytes a shuffle stage
// sent, and res's ANALYZE record when the request asked for it.
func appendDone(dst []byte, res *core.Result, sentBytes int64, withStats bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(res.Columns)))
	for _, c := range res.Columns {
		dst = types.AppendStr(dst, c)
	}
	dst = binary.AppendVarint(dst, res.RowsAffected)
	dst = types.AppendStr(dst, res.Message)
	dst = binary.AppendVarint(dst, sentBytes)
	stats := withStats && res.Stats != nil
	if dst = types.AppendBool(dst, stats); stats {
		dst = appendRecord(dst, res.Stats)
	}
	return dst
}

// readDone decodes a FrameDone payload into res.
func readDone(payload []byte, res *Result) error {
	r := types.NewReader(payload)
	if n := r.Count(); n > 0 {
		res.Columns = make([]string, n)
		for i := range res.Columns {
			res.Columns[i] = r.Str()
		}
	}
	res.RowsAffected, res.Message, res.SentBytes = r.Varint(), r.Str(), r.Varint()
	if r.Bool() {
		res.Stats = readRecord(&r)
	}
	return readEnd(&r, "result", false)
}

func appendRecord(dst []byte, q *telemetry.QueryRecord) []byte {
	dst = binary.AppendUvarint(dst, q.ID)
	dst = types.AppendStr(dst, q.SQL)
	dst = binary.AppendVarint(dst, q.Start.Unix())
	dst = binary.AppendVarint(dst, int64(q.Start.Nanosecond()))
	for _, x := range []int64{int64(q.Elapsed), q.Rows, int64(q.Dop)} {
		dst = binary.AppendVarint(dst, x)
	}
	dst = types.AppendStr(types.AppendStr(dst, q.Status), q.Err)
	dst = types.AppendStr(types.AppendBool(dst, q.Slow), q.Plan)
	dst = binary.AppendVarint(dst, int64(q.Shards))
	dst = binary.AppendUvarint(dst, uint64(len(q.Ops)))
	for i := range q.Ops {
		o := &q.Ops[i]
		dst = binary.AppendVarint(dst, int64(o.Seq))
		dst = binary.AppendVarint(dst, int64(o.Depth))
		dst = types.AppendStr(dst, o.Name)
		for _, x := range []int64{o.Rows, o.Batches, int64(o.Wall)} {
			dst = binary.AppendVarint(dst, x)
		}
		dst = types.AppendBool(dst, o.HasScan)
		for _, x := range []int64{o.StridesVisited, o.StridesSkipped, o.SpillRuns, o.SpillBytes} {
			dst = binary.AppendVarint(dst, x)
		}
	}
	return dst
}

func readRecord(r *types.Reader) *telemetry.QueryRecord {
	q := &telemetry.QueryRecord{ID: r.Uvarint(), SQL: r.Str()}
	q.Start = time.Unix(r.Varint(), r.Varint())
	q.Elapsed, q.Rows, q.Dop = time.Duration(r.Varint()), r.Varint(), int(r.Varint())
	q.Status, q.Err, q.Slow, q.Plan, q.Shards = r.Str(), r.Str(), r.Bool(), r.Str(), int(r.Varint())
	if n := r.Count(); n > 0 {
		q.Ops = make([]telemetry.OpRecord, n)
		for i := range q.Ops {
			q.Ops[i] = telemetry.OpRecord{Seq: int(r.Varint()), Depth: int(r.Varint()), Name: r.Str(),
				Rows: r.Varint(), Batches: r.Varint(), Wall: time.Duration(r.Varint()), HasScan: r.Bool(),
				StridesVisited: r.Varint(), StridesSkipped: r.Varint(), SpillRuns: r.Varint(), SpillBytes: r.Varint()}
		}
	}
	return q
}

// readEnd returns r's error, naming the message; unless more may follow,
// bytes left over are one too.
func readEnd(r *types.Reader, what string, more bool) error {
	if rest := len(r.Rest()); !more && rest > 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", rest))
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("shardrpc: %s: %w", what, err)
	}
	return nil
}
