// Package shardrpc is the MPP wire boundary: a length-prefixed binary
// frame protocol over TCP that puts each shard engine behind a server
// process, plus the connection pool and the partitioned-hash shuffle
// transport the coordinator and shards use to move rows. It realizes the
// paper's §II.E deployment — dashDB Local containers on a clustered
// filesystem, shards re-associated between nodes on failure or
// grow/shrink — as real processes instead of the in-process simulation
// in internal/mpp.
//
// Frame layout (all multi-byte integers big-endian):
//
//	byte    magic 0xD5
//	byte    version 7
//	byte    frame type
//	byte    flags (reserved, 0)
//	uint32  payload length (<= MaxFrame)
//	...     payload
//
// Every payload is binary and decodes on its own (messages.go): a control
// message, or a request that is one FrameExec (with the statement in the
// sql package's AST codec); rows travel as batch blocks (vec/block.go) —
// FrameRows is one block, FrameInsert an InsertHdr and a block,
// FrameShuffleData a shuffle header and a block — and a response ends in
// one FrameDone.
package shardrpc

import (
	"encoding/binary"
	"fmt"
	"io"

	"dashdb/internal/types"
	"dashdb/internal/vec"
)

const (
	frameMagic = 0xD5
	// frameVersion 2 renumbered the frame types: the two fragment frames
	// of version 1 became ExecReq.Exchange. Version 3 frames a block's rows
	// by byte length instead of column count (types/codec.go). Version 4
	// makes a gob payload part of its connection's stream: a frame omits
	// the type descriptors an earlier frame on the connection carried, so
	// a version-3 peer, which decodes every frame as a stream of its own,
	// would misread it. Version 5 replaces the row block with the typed
	// batch block (vec/block.go), sends a statement's FrameRows before its
	// FrameResultHdr, and gives ResultHdr the column kinds. Version 6 sends
	// ExecReq and the response's end in binary: the gob ResultHdr and
	// StatsMsg frames became one FrameDone, and the frame types after
	// FrameExec were renumbered. Version 7 sends the control messages in
	// binary too, each frame on its own: no gob stream is left. Version 8
	// drops the column kinds from FrameDone.
	frameVersion = 8

	// MaxFrame bounds a single frame payload (64 MiB): a corrupt or
	// hostile length prefix must not become an allocation.
	MaxFrame = 64 << 20

	headerLen = 8
)

// FrameType discriminates protocol frames.
type FrameType uint8

// Frame types. Request frames are even-ish groupings by role; every
// request is answered by OK/Err or a typed response stream ending in
// Done.
const (
	FrameInvalid     FrameType = iota
	FrameHello                 // Hello: first frame on a connection
	FrameOK                    // RowCount's varint or empty: generic success
	FrameErr                   // utf-8 error text
	FramePing                  // empty: liveness probe
	FramePong                  // PingInfo
	FrameExec                  // binary ExecReq: run one statement on a shard
	FrameRows                  // batch block: result rows
	FrameDone                  // binary result: columns, affected, message, stats; ends a response
	FrameInsert                // InsertHdr then batch block in same payload
	FrameShuffleData           // binary shuffle header + batch block
	FrameShuffleEOF            // binary shuffle header, sender is done
	FrameAdopt                 // AdoptReq: host these shards
	FrameRelease               // ReleaseReq: stop hosting these shards
	FrameRowCount              // RowCountReq
	FrameShuffleDrop           // uvarint query id: discard that query's shuffle inboxes
	frameTypeMax
)

func (t FrameType) valid() bool { return t > FrameInvalid && t < frameTypeMax }

// WriteFrame writes one frame. The caller owns buffering: both ends write
// through a bufio.Writer, a client flushing each request, a server each
// full row block and the end of each response.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("shardrpc: frame payload %d exceeds %d", len(payload), MaxFrame)
	}
	var hdr [headerLen]byte
	hdr[0] = frameMagic
	hdr[1] = frameVersion
	hdr[2] = byte(t)
	hdr[3] = 0
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("shardrpc: write frame header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("shardrpc: write frame payload: %w", err)
		}
	}
	return nil
}

// ReadFrame reads one frame, enforcing magic, version and the MaxFrame
// allocation guard. io.EOF before any header byte is returned as io.EOF
// so callers can treat clean connection close distinctly.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return FrameInvalid, nil, io.EOF
		}
		return FrameInvalid, nil, fmt.Errorf("shardrpc: read frame header: %w", err)
	}
	if hdr[0] != frameMagic {
		return FrameInvalid, nil, fmt.Errorf("shardrpc: bad magic %#x", hdr[0])
	}
	if hdr[1] != frameVersion {
		return FrameInvalid, nil, fmt.Errorf("shardrpc: protocol version %d (want %d)", hdr[1], frameVersion)
	}
	t := FrameType(hdr[2])
	if !t.valid() {
		return FrameInvalid, nil, fmt.Errorf("shardrpc: bad frame type %d", hdr[2])
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxFrame {
		return FrameInvalid, nil, fmt.Errorf("shardrpc: frame payload %d exceeds %d", n, MaxFrame)
	}
	if n == 0 {
		return t, nil, nil
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return FrameInvalid, nil, fmt.Errorf("shardrpc: read frame payload: %w", err)
	}
	return t, payload, nil
}

// EncodeRowBlock appends the block of rows to dst: the row adapter over
// vec.AppendBlock, left with one caller, the benchmark's wire probe (an
// INSERT reaches Pool.Insert as typed lanes). A column whose cells all
// have one kind takes that kind's lane.
func EncodeRowBlock(dst []byte, rows []types.Row) ([]byte, error) {
	for _, r := range rows {
		if len(r) != len(rows[0]) {
			return dst, fmt.Errorf("shardrpc: block of rows %d and %d cells wide", len(rows[0]), len(r))
		}
	}
	return vec.AppendBlock(dst, vec.FromRows(nil, rows))
}

// DecodeRowBlock decodes one block into rows: the row adapter over
// vec.DecodeBlock, left with one caller, the benchmark's wire probe. A
// shard appends an insert block as the batch it decodes to.
func DecodeRowBlock(data []byte) ([]types.Row, error) {
	b, err := vec.DecodeBlock(data)
	if err != nil {
		return nil, err
	}
	return b.AppendRows(nil), nil
}
