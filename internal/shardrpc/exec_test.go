package shardrpc

import (
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dashdb/internal/clusterfs"
	"dashdb/internal/core"
	"dashdb/internal/sql"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
)

// writeCounter is a connection that counts its writes.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestResponseTailOneWrite serves one connection over a write-counting
// pipe: a response of at most one row block reaches the client in one
// write, block and FrameDone together, and a longer one takes a write per
// full block, as the plan produces it, plus one for the tail.
func TestResponseTailOneWrite(t *testing.T) {
	s := startTestServer(t, clusterfs.New())
	p := NewPool("seed")
	defer p.Close()
	var rows []types.Row
	for i := 0; i < 3*blockRows+500; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewString("r"), types.NewFloat(float64(i))})
	}
	if err := p.Insert(s.Addr(), 0, "sales", 0, bucketOf(rows)); err != nil {
		t.Fatal(err)
	}

	cli, srv := net.Pipe()
	counted := &writeCounter{Conn: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handleConn(counted)
	}()
	defer func() {
		cli.Close()
		<-done
	}()
	cli.SetDeadline(time.Now().Add(30 * time.Second))
	if err := WriteFrame(cli, FrameHello, appendHello(nil, &Hello{Node: "pipe"})); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := ReadFrame(cli); err != nil || ft != FrameOK {
		t.Fatalf("hello reply %d, err %v", ft, err)
	}

	// exec sends one statement and reads its response, returning the
	// server's writes and the row count of each block.
	exec := func(req ExecReq) (int64, []int) {
		t.Helper()
		payload, err := appendExecReq(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		before := counted.writes.Load()
		if err := WriteFrame(cli, FrameExec, payload); err != nil {
			t.Fatal(err)
		}
		var blocks []int
		for {
			ft, payload, err := ReadFrame(cli)
			if err != nil {
				t.Fatal(err)
			}
			switch ft {
			case FrameRows:
				rows, err := DecodeRowBlock(payload)
				if err != nil {
					t.Fatal(err)
				}
				blocks = append(blocks, len(rows))
			case FrameDone:
				var res Result
				if err := readDone(payload, &res); err != nil {
					t.Fatal(err)
				}
				if req.WithStats && res.Stats == nil {
					t.Fatal("no ANALYZE record")
				}
				return counted.writes.Load() - before, blocks
			default:
				t.Fatalf("frame %d: %s", ft, payload)
			}
		}
	}

	point := ExecReq{ShardID: 0, Stmt: mustParse(t, "SELECT id, amount FROM sales WHERE id = 417"), WithStats: true}
	if writes, blocks := exec(point); writes != 1 || len(blocks) != 1 || blocks[0] != 1 {
		t.Fatalf("point SELECT: %d writes, blocks %v; want 1 write of one 1-row block", writes, blocks)
	}
	writes, blocks := exec(ExecReq{ShardID: 0, Stmt: mustParse(t, "SELECT id FROM sales")})
	full, total := 0, 0
	for _, n := range blocks {
		if n >= blockRows {
			full++
		}
		total += n
	}
	if total != len(rows) || full < 3 {
		t.Fatalf("scan: blocks %v, want %d rows in at least 3 full blocks", blocks, len(rows))
	}
	if writes != int64(full+1) {
		t.Fatalf("scan of %d full blocks (%v): %d writes, want %d", full, blocks, writes, full+1)
	}
}

// TestStmtEncodedOnce: every call that shares a StmtWire sends the bytes
// of its first encode, and a request that pairs it with another statement
// is refused.
func TestStmtEncodedOnce(t *testing.T) {
	s := startTestServer(t, clusterfs.New())
	p := NewPool("coord")
	defer p.Close()
	st, wire := mustParse(t, "SELECT COUNT(*) FROM sales"), &StmtWire{}
	var first *byte
	for shard := range 2 {
		for range 2 {
			if _, err := p.Exec(s.Addr(), ExecReq{ShardID: shard, Stmt: st, Wire: wire}); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = &wire.wire[0]
			} else if &wire.wire[0] != first {
				t.Fatalf("shard %d: the statement was encoded again", shard)
			}
		}
	}
	other := mustParse(t, "SELECT COUNT(*) FROM sales")
	if _, err := p.Exec(s.Addr(), ExecReq{Stmt: other, Wire: wire}); err == nil {
		t.Fatal("shared bytes sent for another statement")
	}
}

// TestDoneRoundTrip: FrameDone carries a result's non-row part and, when
// asked for, its ANALYZE record, operators and all.
func TestDoneRoundTrip(t *testing.T) {
	rec := &telemetry.QueryRecord{ID: 9, SQL: "SELECT 1", Start: time.Unix(1_700_000_000, 123), Elapsed: 3 * time.Millisecond,
		Rows: 4, Dop: 2, Status: "ok", Slow: true, Plan: "SCAN T", Shards: 1,
		Ops: []telemetry.OpRecord{{Seq: 0, Depth: 0, Name: "SCAN T", Rows: 4, Batches: 1, Wall: time.Microsecond,
			HasScan: true, StridesVisited: 2, StridesSkipped: 5, SpillRuns: 1, SpillBytes: 77}}}
	res := &core.Result{Columns: []string{"A", "B"}, RowsAffected: -1, Message: "OK", Stats: rec}
	for _, withStats := range []bool{false, true} {
		payload := appendDone(nil, res, 512, withStats)
		var got Result
		if err := readDone(payload, &got); err != nil {
			t.Fatal(err)
		}
		want := Result{Result: core.Result{Columns: res.Columns, RowsAffected: -1, Message: "OK"}, SentBytes: 512}
		if withStats {
			want.Stats = rec
		}
		if got.Stats != nil && !got.Stats.Start.Equal(rec.Start) {
			t.Fatalf("start %v, want %v", got.Stats.Start, rec.Start)
		} else if got.Stats != nil {
			got.Stats.Start = rec.Start
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stats %v:\n%#v\nvs\n%#v", withStats, got, want)
		}
		if err := readDone(payload[:len(payload)-1], &Result{}); err == nil {
			t.Fatalf("stats %v: truncated payload accepted", withStats)
		}
	}
	var empty Result
	if err := readDone(appendDone(nil, &core.Result{}, 0, true), &empty); err != nil || !reflect.DeepEqual(empty, Result{}) {
		t.Fatalf("empty result: %#v, err %v", empty, err)
	}
}

// fillMsg sets every exported field of v, recursively, to a value that is
// not zero: two elements a list, a statement for a sql.Statement, a time
// on the whole microsecond. A field of a type it does not know fails the
// test, which must then learn the type.
func fillMsg(t *testing.T, v reflect.Value, seed int) {
	t.Helper()
	switch v.Type() {
	case reflect.TypeFor[time.Time]():
		v.Set(reflect.ValueOf(time.Unix(1_700_000_000+int64(seed), 1000*int64(seed))))
		return
	case reflect.TypeFor[sql.Statement]():
		v.Set(reflect.ValueOf(mustParse(t, fmt.Sprintf("SELECT COUNT(*) FROM sales WHERE id > %d", seed))))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", seed))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(-3 - seed))
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(1 + seed))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillMsg(t, v.Index(i), 2*seed+i+1)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillMsg(t, v.Elem(), seed+1)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillMsg(t, v.Field(i), seed+i)
			}
		}
	default:
		t.Fatalf("cannot fill a %s", v.Type())
	}
}

// TestBinaryMessagesEveryField fills every exported field of an ExecReq
// (but Wire, which is not sent), of an ANALYZE record, of every control
// message and of the cluster manifest, and requires them to survive their
// binary codecs, so a field added to one of them and not to its codec
// fails here.
func TestBinaryMessagesEveryField(t *testing.T) {
	var req ExecReq
	fillMsg(t, reflect.ValueOf(&req).Elem(), 0)
	req.Wire = nil
	payload, err := appendExecReq(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readExecReq(payload)
	if err != nil || !reflect.DeepEqual(got, req) {
		t.Fatalf("request did not survive the wire (err %v):\n%#v\nvs\n%#v", err, got, req)
	}

	var rec telemetry.QueryRecord
	fillMsg(t, reflect.ValueOf(&rec).Elem(), 0)
	r := types.NewReader(appendRecord(nil, &rec))
	back := readRecord(&r)
	if err := readEnd(&r, "record", false); err != nil || !reflect.DeepEqual(*back, rec) {
		t.Fatalf("record did not survive the wire (err %v):\n%#v\nvs\n%#v", err, *back, rec)
	}

	roundTrip(t, appendHello, func(b []byte) (Hello, error) { return decode(b, "hello", readHello) })
	roundTrip(t, appendPingInfo, func(b []byte) (PingInfo, error) { return decode(b, "ping reply", readPingInfo) })
	roundTrip(t, appendAdoptReq, func(b []byte) (AdoptReq, error) { return decode(b, "adopt request", readAdoptReq) })
	roundTrip(t, appendReleaseReq, func(b []byte) (ReleaseReq, error) { return decode(b, "release request", readReleaseReq) })
	roundTrip(t, appendRowCountReq, func(b []byte) (RowCountReq, error) { return decode(b, "row count request", readRowCountReq) })
	roundTrip(t, appendInsertHdr, func(b []byte) (InsertHdr, error) {
		h, rest, err := readInsert(b)
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("%d bytes left", len(rest))
		}
		return h, err
	})
	roundTrip(t, AppendManifest, ReadManifest)
}

// roundTrip fills every exported field of a T, encodes it with appendMsg
// and requires read to give it back.
func roundTrip[T any](t *testing.T, appendMsg func([]byte, *T) []byte, read func([]byte) (T, error)) {
	t.Helper()
	var msg T
	fillMsg(t, reflect.ValueOf(&msg).Elem(), 0)
	got, err := read(appendMsg(nil, &msg))
	if err != nil || !reflect.DeepEqual(got, msg) {
		t.Fatalf("%T did not survive its codec (err %v):\n%#v\nvs\n%#v", msg, err, got, msg)
	}
}
