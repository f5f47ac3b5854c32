package shardrpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"dashdb/internal/telemetry"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// Connection pool. Get hands out a *Conn (dialing if no idle connection
// exists); Release is the single release point — it returns a healthy
// connection to the idle list and closes a broken one. Every Get must
// be paired with Release on all paths (the mustrelease lint enforces
// this protocol).

// Pool tunables.
const (
	dialTimeout = 2 * time.Second
	ioTimeout   = 30 * time.Second
	maxIdle     = 4 // idle connections kept per address

	// Retry policy for transient errors (dial refused, connection
	// reset): up to DefaultAttempts tries with doubling backoff from
	// retryBackoff.
	DefaultAttempts = 3
	retryBackoff    = 25 * time.Millisecond
)

// Conn is one pooled protocol connection and the buffer its requests are
// encoded in.
type Conn struct {
	pool   *Pool
	addr   string
	c      net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	buf    []byte
	broken bool
}

// Pool manages connections to shard servers, keyed by address.
type Pool struct {
	Node string

	mu     sync.Mutex
	idle   map[string][]*Conn
	closed bool
}

// NewPool returns a pool whose connections say they are node's.
func NewPool(node string) *Pool {
	return &Pool{Node: node, idle: make(map[string][]*Conn)}
}

// Get returns a connection to addr, reusing an idle one when available.
// The caller must call Release on every path.
func (p *Pool) Get(addr string) (*Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("shardrpc: pool closed")
	}
	if free := p.idle[addr]; len(free) > 0 {
		c := free[len(free)-1]
		p.idle[addr] = free[:len(free)-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	return p.dial(addr)
}

func (p *Pool) dial(addr string) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("shardrpc: dial %s: %w", addr, err)
	}
	c := &Conn{
		pool: p,
		addr: addr,
		c:    nc,
		br:   bufio.NewReaderSize(nc, 64<<10),
		bw:   bufio.NewWriterSize(nc, 64<<10),
	}
	if err := c.write(FrameHello, appendHello(nil, &Hello{Node: p.Node})); err != nil {
		nc.Close()
		return nil, err
	}
	if t, payload, err := c.read(); err != nil {
		nc.Close()
		return nil, err
	} else if t == FrameErr {
		nc.Close()
		return nil, fmt.Errorf("shardrpc: %s: %s", addr, payload)
	} else if t != FrameOK {
		nc.Close()
		return nil, fmt.Errorf("shardrpc: %s: unexpected hello reply %d", addr, t)
	}
	return c, nil
}

// Release returns the connection to the pool, or closes it if it broke
// (I/O error, mid-stream abandon). The single release point for the
// Get/Release protocol.
func (c *Conn) Release() {
	p := c.pool
	if c.broken {
		c.c.Close()
		return
	}
	p.mu.Lock()
	if p.closed || len(p.idle[c.addr]) >= maxIdle {
		p.mu.Unlock()
		c.c.Close()
		return
	}
	p.idle[c.addr] = append(p.idle[c.addr], c)
	p.mu.Unlock()
}

// Fail marks the connection broken so Release closes it instead of
// recycling: the protocol stream position is unknown after an error.
func (c *Conn) Fail() { c.broken = true }

// Close closes the pool and every idle connection.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, free := range p.idle {
		for _, c := range free {
			c.c.Close()
		}
	}
	p.idle = nil
}

// write sends one frame under the write deadline and flushes.
func (c *Conn) write(t FrameType, payload []byte) error {
	c.c.SetWriteDeadline(time.Now().Add(ioTimeout))
	if err := WriteFrame(c.bw, t, payload); err != nil {
		c.broken = true
		return err
	}
	if err := c.bw.Flush(); err != nil {
		c.broken = true
		return fmt.Errorf("shardrpc: flush to %s: %w", c.addr, err)
	}
	return nil
}

// read receives one frame under the read deadline.
func (c *Conn) read() (FrameType, []byte, error) {
	c.c.SetReadDeadline(time.Now().Add(ioTimeout))
	t, payload, err := ReadFrame(c.br)
	if err != nil {
		c.broken = true
	}
	return t, payload, err
}

// call sends a request frame and reads a single reply frame, mapping
// FrameErr to an error.
func (c *Conn) call(t FrameType, payload []byte) (FrameType, []byte, error) {
	if err := c.write(t, payload); err != nil {
		return FrameInvalid, nil, err
	}
	rt, rp, err := c.read()
	if err != nil {
		return FrameInvalid, nil, err
	}
	if rt == FrameErr {
		return FrameInvalid, nil, c.remote(rp)
	}
	return rt, rp, nil
}

// callOK is call for a request answered by FrameOK.
func (c *Conn) callOK(t FrameType, payload []byte) ([]byte, error) {
	rt, rp, err := c.call(t, payload)
	if err == nil && rt != FrameOK {
		c.broken = true
		err = fmt.Errorf("shardrpc: %s: unexpected reply %d to frame %d", c.addr, rt, t)
	}
	return rp, err
}

// decodeReply decodes a reply payload as one message with read. A reply
// that does not decode leaves the connection's state unknown, so it is
// not pooled.
func decodeReply[T any](c *Conn, payload []byte, what string, read func(*types.Reader) T) (T, error) {
	m, err := decode(payload, what, read)
	if err != nil {
		c.Fail()
		err = fmt.Errorf("%w from %s", err, c.addr)
	}
	return m, err
}

// remote is the error a FrameErr reply reports.
func (c *Conn) remote(msg []byte) error {
	return &RemoteError{Addr: c.addr, Msg: string(msg)}
}

// RemoteError is an error reported by the far side: the request reached
// the server and failed there, so it is NOT transient — retrying would
// re-execute it.
type RemoteError struct {
	Addr string
	Msg  string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("shardrpc: %s: %s", e.Addr, e.Msg) }

// IsTransient reports whether an error is worth a retry on a fresh
// connection: dial failures and transport-level breakage before any
// server-side effect. Remote errors and statement failures are not.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	s := err.Error()
	return strings.Contains(s, "connection refused") || strings.Contains(s, "connection reset") || strings.Contains(s, "broken pipe")
}

// Do runs fn with a pooled connection, retrying with doubling backoff
// on transient transport errors. ONLY safe for idempotent requests
// (reads, pings, adopt/release which are level-triggered); DML callers
// must pass attempts=1.
func (p *Pool) Do(addr string, attempts int, fn func(*Conn) error) error {
	if attempts < 1 {
		attempts = 1
	}
	backoff := retryBackoff
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		var c *Conn
		c, err = p.Get(addr)
		if err == nil {
			err = fn(c)
			c.Release()
		}
		if err == nil || !IsTransient(err) {
			return err
		}
	}
	return err
}

// Ping probes a server, returning the shards it hosts.
func (p *Pool) Ping(addr string) (PingInfo, error) {
	var info PingInfo
	err := p.Do(addr, 1, func(c *Conn) error {
		t, payload, err := c.call(FramePing, nil)
		if err != nil {
			return err
		}
		if t != FramePong {
			c.Fail()
			return fmt.Errorf("shardrpc: %s: unexpected ping reply %d", addr, t)
		}
		info, err = decodeReply(c, payload, "ping reply", readPingInfo)
		return err
	})
	return info, err
}

// Result is a decoded response stream: batches, then what FrameDone
// carries, with the optional per-shard ANALYZE record.
type Result struct {
	Columns      []string
	Kinds        []types.Kind
	Batches      []*vec.Batch
	RowsAffected int64
	Message      string
	Stats        *telemetry.QueryRecord
	// WireBytes is the bytes of the blocks the batches arrived in (0 from
	// an in-process shard); SentBytes is the bytes of the blocks a shuffle
	// stage sent to other servers (a partition its server owns takes no
	// wire).
	WireBytes int64
	SentBytes int64
}

// NumRows returns the number of rows the result holds.
func (r *Result) NumRows() int {
	n := 0
	for _, b := range r.Batches {
		n += b.Rows()
	}
	return n
}

// Rows boxes the result's rows.
func (r *Result) Rows() []types.Row {
	var rows []types.Row
	for _, b := range r.Batches {
		rows = appendRows(rows, b)
	}
	return rows
}

// readResultStream consumes FrameRows until FrameDone.
func (c *Conn) readResultStream() (*Result, error) {
	res := &Result{}
	for {
		t, payload, err := c.read()
		if err != nil {
			return nil, err
		}
		switch t {
		case FrameErr:
			return nil, c.remote(payload)
		case FrameRows:
			b, err := vec.DecodeBlock(payload)
			if err != nil {
				c.Fail()
				return nil, err
			}
			res.Batches = append(res.Batches, b)
			res.WireBytes += int64(len(payload))
		case FrameDone:
			if err := readDone(payload, res); err != nil {
				c.Fail()
				return nil, err
			}
			return res, nil
		default:
			c.Fail()
			return nil, fmt.Errorf("shardrpc: %s: unexpected frame %d in response stream", c.addr, t)
		}
	}
}

// Exec runs one parsed statement on a shard. Not retried: the statement
// may have side effects.
func (p *Pool) Exec(addr string, req ExecReq) (*Result, error) {
	var res *Result
	err := p.Do(addr, 1, func(c *Conn) error {
		payload, err := appendExecReq(c.buf[:0], &req)
		if err != nil {
			return err
		}
		c.buf = keepBuf(payload)
		if err := c.write(FrameExec, payload); err != nil {
			return err
		}
		res, err = c.readResultStream()
		return err
	})
	return res, err
}

// Bucket is the rows one INSERT sends a shard: a batch whose live rows
// are the shard's. Its wire block is encoded on the first send and kept,
// so a replicated table's one bucket, sent to every shard, and a bucket
// resent after a failover are each encoded once.
type Bucket struct {
	Batch *vec.Batch

	once  sync.Once
	block []byte
	err   error
}

// NewBucket returns the bucket of b's live rows.
func NewBucket(b *vec.Batch) *Bucket { return &Bucket{Batch: b} }

// wire returns the bucket's block, encoding it on the first call.
func (k *Bucket) wire() ([]byte, error) {
	k.once.Do(func() { k.block, k.err = vec.AppendBlock(nil, k.Batch) })
	return k.block, k.err
}

// Insert ships a pre-routed bucket to a shard's table as one block of
// typed lanes. The token (nonzero) lets a shard that already durably
// applied this bucket — but whose reply was lost to a node death —
// acknowledge a coordinator retry without inserting the rows twice.
func (p *Pool) Insert(addr string, shardID int, table string, token uint64, rows *Bucket) error {
	block, err := rows.wire()
	if err != nil {
		return err
	}
	hdr := InsertHdr{ShardID: shardID, Table: table, NRows: rows.Batch.Rows(), Token: token}
	return p.Do(addr, 1, func(c *Conn) error {
		payload := append(appendInsertHdr(c.buf[:0], &hdr), block...)
		c.buf = keepBuf(payload)
		_, err := c.callOK(FrameInsert, payload)
		return err
	})
}

// Adopt asks a server to host shards. Level-triggered and idempotent,
// so transient failures retry.
func (p *Pool) Adopt(addr string, req AdoptReq) error {
	payload := appendAdoptReq(nil, &req)
	return p.Do(addr, DefaultAttempts, func(c *Conn) error {
		_, err := c.callOK(FrameAdopt, payload)
		return err
	})
}

// Release asks a server to stop hosting shards.
func (p *Pool) Release(addr string, shards []int) error {
	payload := appendReleaseReq(nil, &ReleaseReq{Shards: shards})
	return p.Do(addr, DefaultAttempts, func(c *Conn) error {
		_, err := c.callOK(FrameRelease, payload)
		return err
	})
}

// RowCount returns a shard table's live row count. Read-only, retried.
func (p *Pool) RowCount(addr string, shardID int, table string) (int64, error) {
	var n int64
	payload := appendRowCountReq(nil, &RowCountReq{ShardID: shardID, Table: table})
	err := p.Do(addr, DefaultAttempts, func(c *Conn) error {
		rp, err := c.callOK(FrameRowCount, payload)
		if err != nil {
			return err
		}
		n, err = decodeReply(c, rp, "row count", readRowCount)
		return err
	})
	return n, err
}

// DropShuffle asks a server to discard every shuffle inbox of a
// distributed query: the coordinator broadcasts it after abandoning a
// failed attempt, so partially delivered batches don't sit in server
// memory for the process lifetime.
func (p *Pool) DropShuffle(addr string, query uint64) error {
	payload := binary.AppendUvarint(nil, query)
	return p.Do(addr, 1, func(c *Conn) error {
		_, err := c.callOK(FrameShuffleDrop, payload)
		return err
	})
}

// SendShuffle ships batches as one block (or EOF when batches is nil) to
// the partition owner's server and returns the block's bytes.
func (p *Pool) SendShuffle(addr string, h shuffleHdr, batches []*vec.Batch) (int, error) {
	payload := appendShuffleHdr(nil, h)
	ft, hdr := FrameShuffleEOF, len(payload)
	if batches != nil {
		ft = FrameShuffleData
		var err error
		if payload, err = vec.AppendBlock(payload, batches...); err != nil {
			return 0, err
		}
	}
	return len(payload) - hdr, p.Do(addr, 1, func(c *Conn) error {
		_, err := c.callOK(ft, payload)
		return err
	})
}
