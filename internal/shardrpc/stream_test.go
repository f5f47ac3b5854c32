package shardrpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dashdb/internal/clusterfs"
	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/sql"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

func mustParse(t testing.TB, src string) sql.Statement {
	t.Helper()
	st, err := sql.Parse(src, sql.DialectANSI)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return st
}

// TestConnStreamCarriesEveryMessage drives every message through one
// pooled connection, in an order where a message's zero fields follow the
// same message with them set: a decoder that reused the last value would
// carry a Token into a statement without one (which would then be
// acknowledged as a replay instead of applied) or an ANALYZE record into
// a response that asked for none. The exchange's fields and the control
// messages appear only after 200 requests.
func TestConnStreamCarriesEveryMessage(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	seed := NewPool("seed")
	defer seed.Close()
	if err := seed.Insert(s.Addr(), 0, "sales", 0, bucketOf([]types.Row{{types.NewInt(1), types.NewString("north"), types.NewFloat(10)}})); err != nil {
		t.Fatal(err)
	}

	p := NewPool("coord")
	defer p.Close()
	conn, err := p.Get(s.Addr()) // Hello
	if err != nil {
		t.Fatal(err)
	}
	conn.Release()
	upd := mustParse(t, "UPDATE sales SET amount = amount + 1 WHERE id = 1")
	sel := mustParse(t, "SELECT amount FROM sales WHERE id = 1")
	for i := 0; i < 200; i++ {
		req := ExecReq{ShardID: 0, Stmt: upd}
		switch i % 4 {
		case 0:
			req.Token = uint64(1000 + i)
		case 1, 3:
			req.Stmt, req.WithStats = sel, i%4 == 1
		}
		res, err := p.Exec(s.Addr(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if req.Stmt == upd {
			if res.RowsAffected != 1 || len(res.Columns) != 0 || res.Stats != nil {
				t.Fatalf("request %d (UPDATE, token %d): %+v", i, req.Token, res)
			}
			continue
		}
		if len(res.Columns) != 1 || res.NumRows() != 1 || res.RowsAffected != 0 || (res.Stats != nil) != req.WithStats {
			t.Fatalf("request %d (SELECT, stats %v): %+v", i, req.WithStats, res)
		}
		if got, want := rowsOf(res)[0][0].Float(), float64(10+(i+1)/2); got != want {
			t.Fatalf("request %d: amount %v, want %v (an UPDATE was not applied)", i, got, want)
		}
	}

	sent, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: mustParse(t, "SELECT * FROM sales"),
		Exchange: &Exchange{Query: 5, Output: &ShuffleOutput{Keys: []int{0}, Parts: []PartLoc{{ShardID: 0}}}}})
	if err != nil || sent.RowsAffected != 1 {
		t.Fatalf("shuffle output: %+v, err %v", sent, err)
	}
	read, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: mustParse(t, "SELECT amount FROM part"), WithStats: true,
		Exchange: &Exchange{Query: 5, Senders: 1, Inputs: []ShuffleInput{{Name: "part", Schema: salesSchema}}}})
	if err != nil || read.NumRows() != 1 || rowsOf(read)[0][0].Float() != 110 || read.Stats == nil {
		t.Fatalf("shuffle input: %+v, err %v", read, err)
	}
	if err := p.Insert(s.Addr(), 1, "sales", 77, bucketOf([]types.Row{{types.NewInt(2), types.Null, types.NewFloat(1)}})); err != nil {
		t.Fatal(err)
	}
	if n, err := p.RowCount(s.Addr(), 1, "sales"); err != nil || n != 1 {
		t.Fatalf("rowcount %d, err %v", n, err)
	}
	if err := p.Adopt(s.Addr(), AdoptReq{Shards: []ShardAssign{{ID: 2, MemBytes: 4 << 20, SortHeap: 1 << 20, HashHeap: 1 << 20, Parallelism: 1}},
		Tables: []TableSpec{{Name: "sales", ID: 1, Schema: salesSchema}}, Reason: "grow"}); err != nil {
		t.Fatal(err)
	}
	if info, err := p.Ping(s.Addr()); err != nil || len(info.Shards) != 3 {
		t.Fatalf("ping %+v, err %v", info, err)
	}
	for _, withStats := range []bool{true, false, true} {
		res, err := p.Exec(s.Addr(), ExecReq{ShardID: 1, Stmt: mustParse(t, "SELECT id, region FROM sales"), WithStats: withStats})
		if err != nil || res.NumRows() != 1 || !rowsOf(res)[0][1].IsNull() || (res.Stats != nil) != withStats {
			t.Fatalf("stats %v: %+v, err %v", withStats, res, err)
		}
	}
	again, err := p.Get(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer again.Release()
	if again != conn {
		t.Fatal("the requests did not share one connection")
	}
}

// TestGobFailureClosesConn: every request decodes on its own, so one
// that does not — a statement or a control request — is answered FrameErr
// on a connection that stays and then serves a Ping; only a Hello that
// does not decode ends its connection. On the client, a reply that does
// not decode fails the call and its connection is not pooled, so the next
// call dials afresh.
func TestGobFailureClosesConn(t *testing.T) {
	s := startTestServer(t, clusterfs.New())
	dial := func(hello []byte) net.Conn {
		t.Helper()
		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if err := WriteFrame(nc, FrameHello, hello); err != nil {
			t.Fatal(err)
		}
		return nc
	}
	garbage := []byte{0x05, 0xff, 0x81, 0x03, 0x01, 0x01}
	bad := dial(garbage[:2])
	if ft, msg, err := ReadFrame(bad); err != nil || ft != FrameErr {
		t.Fatalf("garbage hello answered %d %q, err %v", ft, msg, err)
	}
	if ft, _, err := ReadFrame(bad); err != io.EOF {
		t.Fatalf("after a garbage hello the server sent frame %d (err %v), want EOF", ft, err)
	}
	nc := dial(appendHello(nil, &Hello{Node: "raw"}))
	if ft, _, err := ReadFrame(nc); err != nil || ft != FrameOK {
		t.Fatalf("hello reply %d, err %v", ft, err)
	}
	for _, req := range []FrameType{FrameExec, FrameInsert, FrameAdopt, FrameRelease, FrameRowCount} {
		if err := WriteFrame(nc, req, garbage); err != nil {
			t.Fatal(err)
		}
		if ft, msg, err := ReadFrame(nc); err != nil || ft != FrameErr {
			t.Fatalf("garbage request %d answered %d %q, err %v", req, ft, msg, err)
		}
		if err := WriteFrame(nc, FramePing, nil); err != nil {
			t.Fatal(err)
		}
		if ft, _, err := ReadFrame(nc); err != nil || ft != FramePong {
			t.Fatalf("after garbage request %d: frame %d, err %v", req, ft, err)
		}
	}
	if got := s.Shards(); len(got) != 2 {
		t.Fatalf("garbage requests changed the hosted shards to %v", got)
	}

	// A server whose odd-numbered connections answer with garbage.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go fakeServe(nc, accepted.Add(1)%2 == 1)
		}
	}()
	addr := ln.Addr().String()
	calls := []struct {
		name, what string
		call       func(*Pool) error
	}{
		{"ping", "ping reply", func(p *Pool) error { _, err := p.Ping(addr); return err }},
		{"rowcount", "row count", func(p *Pool) error {
			n, err := p.RowCount(addr, 0, "t")
			if err == nil && n != 7 {
				err = fmt.Errorf("count %d, want 7", n)
			}
			return err
		}},
	}
	for i, c := range calls {
		p := NewPool("coord")
		var remote *RemoteError
		if err := c.call(p); err == nil || errors.As(err, &remote) || !strings.Contains(err.Error(), c.what) {
			t.Fatalf("%s over a garbage reply: err %v", c.name, err)
		}
		if n := len(p.idle[addr]); n != 0 {
			t.Fatalf("%s: %d connections pooled after a failed decode", c.name, n)
		}
		if err := c.call(p); err != nil {
			t.Fatalf("%s after a failed decode: %v", c.name, err)
		}
		if got, want := accepted.Load(), int32(2*i+2); got != want {
			t.Fatalf("%s: %d connections dialed, want %d", c.name, got, want)
		}
		p.Close()
	}
}

// fakeServe answers Hello, then FramePing and FrameRowCount, with a
// well-formed reply or, when garbage is set, with one that does not
// decode.
func fakeServe(nc net.Conn, garbage bool) {
	defer nc.Close()
	for {
		ft, payload, err := ReadFrame(nc)
		if err != nil {
			return
		}
		var out []byte
		rt := FrameOK
		switch ft {
		case FrameHello:
			if _, err := decode(payload, "hello", readHello); err != nil {
				return
			}
			WriteFrame(nc, FrameOK, nil)
			continue
		case FramePing:
			rt, out = FramePong, appendPingInfo(nil, &PingInfo{Node: "fake"})
		case FrameRowCount:
			if _, err := decode(payload, "row count request", readRowCountReq); err != nil {
				return
			}
			out = binary.AppendVarint(nil, 7)
		default:
			return
		}
		if garbage {
			out = []byte{0x02, 0x99, 0x99}
		}
		if WriteFrame(nc, rt, out) != nil {
			return
		}
	}
}

// TestPoolConcurrentStreams: goroutines sharing one pool each hold a
// connection's streams alone while they use it (run it under -race).
func TestPoolConcurrentStreams(t *testing.T) {
	s := startTestServer(t, clusterfs.New())
	p := NewPool("coord")
	defer p.Close()
	sel := mustParse(t, "SELECT COUNT(*), SUM(amount) FROM sales")
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				row := types.Row{types.NewInt(int64(w*rounds + r)), types.NewString(fmt.Sprint("w", w)), types.NewFloat(1)}
				if err := p.Insert(s.Addr(), w%2, "sales", 0, bucketOf([]types.Row{row})); err != nil {
					errs <- err
					return
				}
				res, err := p.Exec(s.Addr(), ExecReq{ShardID: w % 2, Stmt: sel, WithStats: r%2 == 0})
				if err != nil || res.NumRows() != 1 || (res.Stats != nil) != (r%2 == 0) {
					errs <- fmt.Errorf("worker %d round %d: %+v, err %v", w, r, res, err)
					return
				}
				if _, err := p.Ping(s.Addr()); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := int64(0)
	for shard := 0; shard < 2; shard++ {
		n, err := p.RowCount(s.Addr(), shard, "sales")
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != workers*rounds {
		t.Fatalf("%d rows, want %d", total, workers*rounds)
	}
}

// FuzzControlFrame feeds raw bytes to every control message's decoder —
// each request, each reply, FrameInsert's header and its block — and to
// every persisted blob's reader: the applied-token log, the cluster
// manifest, an encoder snapshot and a table's metadata. Hostile or
// corrupt bytes may only fail to decode, never panic. Its seeds are one
// valid encoding of each.
func FuzzControlFrame(f *testing.F) {
	for _, seed := range controlSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0x05, 0xff, 0x81, 0x03, 0x01, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		decode(data, "hello", readHello)
		decode(data, "ping reply", readPingInfo)
		decode(data, "adopt request", readAdoptReq)
		decode(data, "release request", readReleaseReq)
		decode(data, "row count request", readRowCountReq)
		decode(data, "row count", readRowCount)
		if _, rest, err := readInsert(data); err == nil {
			vec.DecodeBlock(rest)
		}
		readApplied(data)
		ReadManifest(data)
		r := types.NewReader(data)
		encoding.ReadEncoder(&r)
		columnar.OpenTable(1, salesSchema, columnar.Config{Store: blobStore(data)})
	})
}

// BenchmarkExecRoundTrip times one point SELECT with its ANALYZE record
// through Pool.Exec against a loopback server: request encode, frame,
// decode, execute, and the row block and FrameDone back.
func BenchmarkExecRoundTrip(b *testing.B) {
	s := startTestServer(b, clusterfs.New())
	p := NewPool("coord")
	defer p.Close()
	var rows []types.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewString("r"), types.NewFloat(float64(i))})
	}
	if err := p.Insert(s.Addr(), 0, "sales", 0, bucketOf(rows)); err != nil {
		b.Fatal(err)
	}
	req := ExecReq{ShardID: 0, Stmt: mustParse(b, "SELECT id, amount FROM sales WHERE id = 417"), WithStats: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Exec(s.Addr(), req)
		if err != nil || res.NumRows() != 1 {
			b.Fatalf("%+v, err %v", res, err)
		}
	}
}

// BenchmarkShardInsert times Pool.Insert of one bucket of a 50 000-row
// INSERT spread over 6 shards (8 333 rows) into a loopback server, sent as
// the coordinator sends it, typed lanes: block encode, frame, decode, the
// table's append and SaveMeta. The table is
// truncated between iterations, off the clock, so every insert lands in
// an empty table and chooses its encodings, as a load's first bucket does.
func BenchmarkShardInsert(b *testing.B) {
	s := startTestServer(b, clusterfs.New())
	p := NewPool("coord")
	defer p.Close()
	rows := salesRows(50_000 / 6)
	slot, err := s.engine(0)
	if err != nil {
		b.Fatal(err)
	}
	tbl, _ := slot.db.Table("sales")
	lanes, err := columnar.LanesOf(tbl.Schema(), rows)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Insert(s.Addr(), 0, "sales", 0, NewBucket(lanes)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := tbl.Truncate(); err != nil { // not SaveMeta: the next insert analyzes afresh
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
