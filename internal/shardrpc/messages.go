package shardrpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"dashdb/internal/sql"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
)

// Control-plane messages, gob-encoded into frame payloads. Statements
// travel as parsed ASTs (sql.RegisterWire + types.Value's gob codec):
// the coordinator builds trees — shard statements with partial-aggregate
// select lists over base tables or shuffle inputs — and ships them, so no
// SQL renderer exists anywhere in the protocol.

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
// FrameResultHdr, zero or more FrameRows, an optional FrameStats, then
// FrameDone — or FrameErr.
type ExecReq struct {
	ShardID   int
	Dialect   sql.Dialect
	Stmt      sql.Statement
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

// Exchange places a SELECT at a shuffle exchange. With Inputs, the
// statement runs in a scratch engine under the shard's grant where each
// input names the rows delivered to partition Part of one shuffle stage;
// the partition's inboxes are dropped when the statement ends. With
// Output, the statement's rows are hash-partitioned to their owners
// instead of returned, and the response ends once they are delivered.
type Exchange struct {
	Query   uint64 // coordinator-minted distributed query ID keying the inboxes
	Inputs  []ShuffleInput
	Part    int // partition ordinal the inputs are read from
	Senders int // senders per stage; each EOFs once
	Output  *ShuffleOutput
}

// An Exchange travels as one opaque gob value, so that decoding a request
// without one does not build decoders for its types. encodeGob starts a
// gob stream per frame, which describes every type a message could hold
// in every message: encoding and decoding an ordinary point SELECT's
// request took 107 µs before the exchange fields existed, 156 µs with
// them as plain fields of ExecReq and 122 µs this way — per shard of every
// scattered statement.
type exchangeWire Exchange

func (x *Exchange) GobEncode() ([]byte, error) { return encodeGob((*exchangeWire)(x)) }

func (x *Exchange) GobDecode(b []byte) error {
	_, err := decodeGob(b, (*exchangeWire)(x))
	return err
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

// ResultHdr carries the non-row part of a core.Result.
type ResultHdr struct {
	Columns      []string
	RowsAffected int64
	Message      string
}

// InsertHdr prefixes a FrameInsert payload; the row block follows
// immediately after the gob stream (see appendGob/splitGob).
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

// PartLoc is one shuffle destination: the server address and the shard
// (= partition owner) on it. Addr "" means the partition stays on the
// sending server (loopback short-circuit).
type PartLoc struct {
	Addr    string
	ShardID int
}

// StatsMsg wraps the per-shard ANALYZE record for FrameStats.
type StatsMsg struct {
	Record telemetry.QueryRecord
}

// shuffleHdr is the binary prefix of FrameShuffleData/FrameShuffleEOF
// payloads: uvarint query, stage, partition, sender; data frames append
// a row block. Kept binary (not gob) because it is the per-batch hot
// path.
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
	var h shuffleHdr
	var n int
	if h.Query, n = binary.Uvarint(b); n <= 0 {
		return h, nil, fmt.Errorf("shardrpc: shuffle header: truncated query")
	}
	b = b[n:]
	stage, n := binary.Uvarint(b)
	if n <= 0 {
		return h, nil, fmt.Errorf("shardrpc: shuffle header: truncated stage")
	}
	b = b[n:]
	part, n := binary.Uvarint(b)
	if n <= 0 {
		return h, nil, fmt.Errorf("shardrpc: shuffle header: truncated partition")
	}
	b = b[n:]
	sender, n := binary.Uvarint(b)
	if n <= 0 {
		return h, nil, fmt.Errorf("shardrpc: shuffle header: truncated sender")
	}
	b = b[n:]
	h.Stage, h.Part, h.Sender = int(stage), int(part), int(sender)
	return h, b, nil
}

// encodeGob gob-encodes a message for a frame payload.
func encodeGob(msg any) ([]byte, error) {
	sql.RegisterWire()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
		return nil, fmt.Errorf("shardrpc: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeGob decodes a frame payload into msg, returning any trailing
// bytes after the gob stream (FrameInsert carries a row block there).
func decodeGob(payload []byte, msg any) ([]byte, error) {
	sql.RegisterWire()
	r := bytes.NewReader(payload)
	if err := gob.NewDecoder(r).Decode(msg); err != nil {
		return nil, fmt.Errorf("shardrpc: decode: %w", err)
	}
	return payload[len(payload)-r.Len():], nil
}
