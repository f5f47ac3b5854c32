// Package spark is a from-scratch reproduction of dashDB Local's
// integrated Apache Spark runtime (paper §II.D, Figures 6–7): a Spark
// Dispatcher co-resident with the database, one Cluster Manager per user
// (isolation: "different users could not see what other users are
// doing"), and one Worker per database shard that fetches its data
// *collocated* over a local socket with optional predicate pushdown
// ("an additional where clause could be pushed to the database to
// transfer only the data really needed").
//
// It is not Apache Spark: it is the closest synthetic equivalent that
// exercises the same architecture — partitioned datasets with a
// functional API, job submission/monitoring, socket-based typed row
// transfer, and MLlib-style algorithms (GLM, k-means) — per the
// substitution rules in DESIGN.md.
package spark

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"dashdb/internal/core"
	"dashdb/internal/shardrpc"
	"dashdb/internal/types"
)

// fetchRequest asks a shard's data server for a table's local rows,
// optionally filtered by a pushed-down WHERE clause.
type fetchRequest struct {
	Table string
	Where string // SQL predicate text; empty = full transfer
	Cols  []string
}

// fetchChunk is one streamed batch of rows, as one batch block
// (shardrpc.EncodeRowBlock).
type fetchChunk struct {
	Rows []byte
	Last bool
	Err  string
}

// chunkRows is the most rows one fetchChunk carries.
const chunkRows = 512

// DataServer exposes one shard engine's tables over a local TCP socket —
// the default socket communication between the database process and the
// Spark process of Figure 7.
type DataServer struct {
	db       *core.DB
	ln       net.Listener
	mu       sync.Mutex
	closed   bool
	wg       sync.WaitGroup // joins the accept loop and per-conn handlers
	bytesOut atomic.Int64
	rowsOut  atomic.Int64
}

// NewDataServer starts a data server for the engine on an ephemeral
// loopback port.
func NewDataServer(db *core.DB) (*DataServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("spark: data server listen: %w", err)
	}
	s := &DataServer{db: db, ln: ln}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the server's dial address.
func (s *DataServer) Addr() string { return s.ln.Addr().String() }

// BytesSent returns the cumulative bytes of the blocks sent — the
// transfer metric for the pushdown experiment F-H.
func (s *DataServer) BytesSent() int64 { return s.bytesOut.Load() }

// RowsSent returns the cumulative rows sent.
func (s *DataServer) RowsSent() int64 { return s.rowsOut.Load() }

// Close stops the server and joins the accept loop and every in-flight
// connection handler, so no goroutine outlives the server.
func (s *DataServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *DataServer) serve() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *DataServer) handle(conn net.Conn) {
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var req fetchRequest
	if err := dec.Decode(&req); err != nil {
		return
	}
	if err := s.stream(req, enc); err != nil {
		enc.Encode(fetchChunk{Last: true, Err: err.Error()})
	}
}

// stream evaluates the request against the local shard and streams rows.
// The pushed-down WHERE compiles into the same columnar scan predicates a
// SQL query would use, so data skipping and SWAR evaluation apply before
// a single row crosses the socket.
func (s *DataServer) stream(req fetchRequest, enc *gob.Encoder) error {
	if _, ok := s.db.Table(req.Table); !ok {
		return fmt.Errorf("spark: table %s not found on shard", req.Table)
	}
	sess := s.db.NewSession()
	where := ""
	if req.Where != "" {
		where = " WHERE " + req.Where
	}
	proj := "*"
	if len(req.Cols) > 0 {
		proj = ""
		for i, c := range req.Cols {
			if i > 0 {
				proj += ", "
			}
			proj += c
		}
	}
	res, err := sess.Query("SELECT " + proj + " FROM " + req.Table + where)
	if err != nil {
		return err
	}
	for off := 0; off < len(res.Rows); off += chunkRows {
		rows := res.Rows[off:min(off+chunkRows, len(res.Rows))]
		block, err := shardrpc.EncodeRowBlock(nil, rows)
		if err != nil {
			return err
		}
		s.bytesOut.Add(int64(len(block)))
		s.rowsOut.Add(int64(len(rows)))
		if err := enc.Encode(fetchChunk{Rows: block}); err != nil {
			return err
		}
	}
	return enc.Encode(fetchChunk{Last: true})
}

// fetch dials a data server and pulls the requested rows.
func fetch(addr string, req fetchRequest) ([]types.Row, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("spark: dial %s: %w", addr, err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(req); err != nil {
		return nil, err
	}
	var rows []types.Row
	for {
		var ch fetchChunk
		if err := dec.Decode(&ch); err != nil {
			return nil, fmt.Errorf("spark: fetch stream: %w", err)
		}
		if ch.Err != "" {
			return nil, fmt.Errorf("spark: remote: %s", ch.Err)
		}
		if ch.Last {
			return rows, nil
		}
		chunk, err := shardrpc.DecodeRowBlock(ch.Rows)
		if err != nil {
			return nil, fmt.Errorf("spark: fetch stream: %w", err)
		}
		rows = append(rows, chunk...)
	}
}
