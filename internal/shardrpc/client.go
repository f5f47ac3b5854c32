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
)

// Connection pool. Get hands out a *Conn (dialing if no idle connection
// exists); Release is the single release point — it returns a healthy
// connection to the idle list and closes a broken one. Every Get must
// be paired with Release on all paths (the mustrelease lint enforces
// this protocol).

// Pool default tunables.
const (
	DefaultDialTimeout = 2 * time.Second
	DefaultIOTimeout   = 30 * time.Second
	defaultMaxIdle     = 4

	// Retry policy for transient errors (dial refused, connection
	// reset): up to DefaultAttempts tries with doubling backoff from
	// retryBackoff.
	DefaultAttempts = 3
	retryBackoff    = 25 * time.Millisecond
)

// Conn is one pooled protocol connection.
type Conn struct {
	pool   *Pool
	addr   string
	c      net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	broken bool
}

// Pool manages connections to shard servers, keyed by address.
type Pool struct {
	DialTimeout time.Duration
	IOTimeout   time.Duration
	MaxIdle     int // per address
	Node        string

	mu     sync.Mutex
	idle   map[string][]*Conn
	closed bool
}

// NewPool returns a pool with default timeouts.
func NewPool(node string) *Pool {
	return &Pool{
		DialTimeout: DefaultDialTimeout,
		IOTimeout:   DefaultIOTimeout,
		MaxIdle:     defaultMaxIdle,
		Node:        node,
		idle:        make(map[string][]*Conn),
	}
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
	nc, err := net.DialTimeout("tcp", addr, p.DialTimeout)
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
	hello, err := encodeGob(&Hello{Node: p.Node})
	if err != nil {
		nc.Close()
		return nil, err
	}
	if err := c.write(FrameHello, hello); err != nil {
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
	if p.closed || len(p.idle[c.addr]) >= p.MaxIdle {
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
	c.c.SetWriteDeadline(time.Now().Add(c.pool.IOTimeout))
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
	c.c.SetReadDeadline(time.Now().Add(c.pool.IOTimeout))
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
		return FrameInvalid, nil, &RemoteError{Addr: c.addr, Msg: string(rp)}
	}
	return rt, rp, nil
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
		_, err = decodeGob(payload, &info)
		return err
	})
	return info, err
}

// Result is a decoded response stream: header, rows and the optional
// per-shard ANALYZE record.
type Result struct {
	Columns      []string
	Rows         []types.Row
	RowsAffected int64
	Message      string
	Stats        *telemetry.QueryRecord
}

// readResultStream consumes ResultHdr/Rows/Stats frames until Done.
func (c *Conn) readResultStream() (*Result, error) {
	res := &Result{}
	sawHdr := false
	for {
		t, payload, err := c.read()
		if err != nil {
			return nil, err
		}
		switch t {
		case FrameErr:
			return nil, &RemoteError{Addr: c.addr, Msg: string(payload)}
		case FrameResultHdr:
			var hdr ResultHdr
			if _, err := decodeGob(payload, &hdr); err != nil {
				c.Fail()
				return nil, err
			}
			res.Columns = hdr.Columns
			res.RowsAffected = hdr.RowsAffected
			res.Message = hdr.Message
			sawHdr = true
		case FrameRows:
			rows, err := DecodeRowBlock(payload)
			if err != nil {
				c.Fail()
				return nil, err
			}
			res.Rows = append(res.Rows, rows...)
		case FrameStats:
			var sm StatsMsg
			if _, err := decodeGob(payload, &sm); err != nil {
				c.Fail()
				return nil, err
			}
			rec := sm.Record
			res.Stats = &rec
		case FrameDone:
			if !sawHdr {
				c.Fail()
				return nil, fmt.Errorf("shardrpc: %s: response stream without header", c.addr)
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
		payload, err := encodeGob(&req)
		if err != nil {
			return err
		}
		if err := c.write(FrameExec, payload); err != nil {
			return err
		}
		res, err = c.readResultStream()
		return err
	})
	return res, err
}

// Insert ships pre-routed rows to a shard's table. The token (nonzero)
// lets a shard that already durably applied this bucket — but whose
// reply was lost to a node death — acknowledge a coordinator retry
// without inserting the rows twice.
func (p *Pool) Insert(addr string, shardID int, table string, token uint64, rows []types.Row) error {
	hdr, err := encodeGob(&InsertHdr{ShardID: shardID, Table: table, NRows: len(rows), Token: token})
	if err != nil {
		return err
	}
	payload, err := EncodeRowBlock(hdr, rows)
	if err != nil {
		return err
	}
	return p.Do(addr, 1, func(c *Conn) error {
		t, _, err := c.call(FrameInsert, payload)
		if err != nil {
			return err
		}
		if t != FrameOK {
			c.Fail()
			return fmt.Errorf("shardrpc: %s: unexpected insert reply %d", addr, t)
		}
		return nil
	})
}

// Adopt asks a server to host shards. Level-triggered and idempotent,
// so transient failures retry.
func (p *Pool) Adopt(addr string, req AdoptReq) error {
	payload, err := encodeGob(&req)
	if err != nil {
		return err
	}
	return p.Do(addr, DefaultAttempts, func(c *Conn) error {
		t, _, err := c.call(FrameAdopt, payload)
		if err != nil {
			return err
		}
		if t != FrameOK {
			c.Fail()
			return fmt.Errorf("shardrpc: %s: unexpected adopt reply %d", addr, t)
		}
		return nil
	})
}

// Release asks a server to stop hosting shards.
func (p *Pool) Release(addr string, shards []int) error {
	payload, err := encodeGob(&ReleaseReq{Shards: shards})
	if err != nil {
		return err
	}
	return p.Do(addr, DefaultAttempts, func(c *Conn) error {
		t, _, err := c.call(FrameRelease, payload)
		if err != nil {
			return err
		}
		if t != FrameOK {
			c.Fail()
			return fmt.Errorf("shardrpc: %s: unexpected release reply %d", addr, t)
		}
		return nil
	})
}

// RowCount returns a shard table's live row count. Read-only, retried.
func (p *Pool) RowCount(addr string, shardID int, table string) (int64, error) {
	payload, err := encodeGob(&RowCountReq{ShardID: shardID, Table: table})
	if err != nil {
		return 0, err
	}
	var n int64
	err = p.Do(addr, DefaultAttempts, func(c *Conn) error {
		t, rp, err := c.call(FrameRowCount, payload)
		if err != nil {
			return err
		}
		if t != FrameOK {
			c.Fail()
			return fmt.Errorf("shardrpc: %s: unexpected rowcount reply %d", addr, t)
		}
		_, err = decodeGob(rp, &n)
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
		t, _, err := c.call(FrameShuffleDrop, payload)
		if err != nil {
			return err
		}
		if t != FrameOK {
			c.Fail()
			return fmt.Errorf("shardrpc: %s: unexpected shuffle drop reply %d", addr, t)
		}
		return nil
	})
}

// SendShuffle ships one shuffle batch (or EOF when rows is nil) to the
// partition owner's server.
func (p *Pool) SendShuffle(addr string, h shuffleHdr, rows []types.Row) error {
	payload := appendShuffleHdr(nil, h)
	ft := FrameShuffleEOF
	if rows != nil {
		ft = FrameShuffleData
		var err error
		payload, err = EncodeRowBlock(payload, rows)
		if err != nil {
			return err
		}
	}
	return p.Do(addr, 1, func(c *Conn) error {
		t, _, err := c.call(ft, payload)
		if err != nil {
			return err
		}
		if t != FrameOK {
			c.Fail()
			return fmt.Errorf("shardrpc: %s: unexpected shuffle reply %d", addr, t)
		}
		return nil
	})
}
