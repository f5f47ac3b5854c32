package shardrpc

import (
	"encoding/binary"
	"fmt"

	"dashdb/internal/sql"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
)

// Control-plane messages, the gob half of the protocol. Each connection
// carries one gob stream per direction (conn.go): a message's type
// descriptors cross a connection once, before its first value, and every
// later frame holds only the value, which the peer decodes into a fresh
// zero value. Statements travel as parsed ASTs (sql.RegisterWire +
// types.Value's gob codec): the coordinator builds trees — shard
// statements with partial-aggregate select lists over base tables or
// shuffle inputs — and ships them, so no SQL renderer exists anywhere in
// the protocol.

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
// zero or more FrameRows, FrameResultHdr, an optional FrameStats, then
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

// ResultHdr carries the non-row part of a core.Result. It follows the
// statement's FrameRows, so it can carry what is known only at the end.
type ResultHdr struct {
	Columns      []string
	Kinds        []types.Kind // of Columns; nil when the statement ran no plan
	RowsAffected int64
	Message      string
	// SentBytes is the bytes of the blocks a shuffle stage sent to other
	// servers (a partition this server owns takes no wire).
	SentBytes int64
}

// InsertHdr prefixes a FrameInsert payload; the batch block is what the
// peer's decoder leaves of the payload after the header.
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
// a batch block. Kept binary (not gob) because it is the per-batch hot
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
