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
//	byte    version 3
//	byte    frame type
//	byte    flags (reserved, 0)
//	uint32  payload length (<= MaxFrame)
//	...     payload
//
// Control/meta payloads are gob (messages.go); bulk row payloads are row
// blocks (rowblock.go).
package shardrpc

import (
	"encoding/binary"
	"fmt"
	"io"
)

const (
	frameMagic = 0xD5
	// frameVersion 2 renumbered the frame types: the two fragment frames
	// of version 1 became ExecReq.Exchange. Version 3 frames a block's rows
	// by byte length instead of column count (types/codec.go).
	frameVersion = 3

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
	FrameHello                 // gob Hello: first frame on a connection
	FrameOK                    // gob payload or empty: generic success
	FrameErr                   // utf-8 error text
	FramePing                  // empty: liveness probe
	FramePong                  // gob PingInfo
	FrameExec                  // gob ExecReq: run one statement on a shard
	FrameResultHdr             // gob ResultHdr: columns/affected/message
	FrameRows                  // row block: result rows
	FrameStats                 // gob telemetry.QueryRecord
	FrameDone                  // empty: end of a response stream
	FrameInsert                // gob InsertHdr then row block in same payload
	FrameShuffleData           // binary shuffle header + row block
	FrameShuffleEOF            // binary shuffle header, sender is done
	FrameAdopt                 // gob AdoptReq: host these shards
	FrameRelease               // gob ReleaseReq: stop hosting these shards
	FrameRowCount              // gob RowCountReq
	FrameShuffleDrop           // uvarint query id: discard that query's shuffle inboxes
	frameTypeMax
)

func (t FrameType) valid() bool { return t > FrameInvalid && t < frameTypeMax }

// WriteFrame writes one frame. The caller owns buffering (Conn writes
// through a bufio.Writer and flushes per message).
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
