package shardrpc

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"dashdb/internal/clusterfs"
	"dashdb/internal/encoding"
	"dashdb/internal/sql"
	"dashdb/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 5000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, FrameType(1+i%4), p); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, p := range payloads {
		ft, got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != FrameType(1+i%4) {
			t.Fatalf("frame %d: type %d", i, ft)
		}
		if len(got) != len(p) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got), len(p))
		}
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{0x00, frameVersion, 1, 0, 0, 0, 0, 0},                   // bad magic
		{frameMagic, 1, 1, 0, 0, 0, 0, 0},                        // bad version (the one before the frame types were renumbered)
		{frameMagic, 2, byte(FrameRows), 0, 0, 0, 0, 4},          // bad version (row blocks framed by column count)
		{frameMagic, frameVersion, 0, 0, 0, 0, 0, 0},             // invalid type
		{frameMagic, frameVersion, 99, 0, 0, 0, 0, 0},            // type out of range
		{frameMagic, frameVersion, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF}, // oversized
	}
	for i, c := range cases {
		if _, _, err := ReadFrame(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: accepted garbage header", i)
		}
	}
}

func sampleRows() []types.Row {
	return []types.Row{
		{types.NewInt(1), types.NewString("north"), types.NewFloat(1.5), types.NewBool(true)},
		{types.NewInt(-7), types.NewString("north"), types.NewFloat(math.NaN()), types.NewBool(false)},
		{types.NullOf(types.KindInt), types.NewString("south"), types.NullOf(types.KindFloat), types.NullOf(types.KindBool)},
		{types.NewInt(1 << 40), types.NewString("unique-once"), types.NewFloat(-0.0), types.NewBool(true)},
		{types.NewInt(0), types.NewString("north"), types.NewDate(19000), types.NewTimestamp(1e9)},
		// A 4 KB string makes a frame whose length takes several bytes.
		{types.NewString(""), types.NewString(strings.Repeat("4k", 2048)), types.Null, types.NullOf(types.KindString)},
		{types.NewInt(math.MaxInt64), types.NewString("日本語 ♥"), types.NewFloat(math.Inf(-1)), types.NullOf(types.KindTimestamp)},
		{},
	}
}

// sameRows reports whether two row sets hold identical cells: kinds,
// typed NULLs and exact float bits.
func sameRows(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, x := range a[i] {
			y := b[i][j]
			if x.Kind() != y.Kind() || x.IsNull() != y.IsNull() || x.Int() != y.Int() || x.Str() != y.Str() ||
				math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
				return false
			}
		}
	}
	return true
}

// codecTrips are the three framings of the value codec (types/codec.go),
// each as an encode-then-decode of a row set.
var codecTrips = []struct {
	name string
	trip func([]types.Row) ([]types.Row, error)
}{
	{"block", func(rows []types.Row) ([]types.Row, error) {
		block, err := EncodeRowBlock(nil, rows)
		if err != nil {
			return nil, err
		}
		return DecodeRowBlock(block)
	}},
	{"stream", func(rows []types.Row) ([]types.Row, error) {
		var buf bytes.Buffer
		w := encoding.NewRowWriter(&buf)
		total := 0
		for _, r := range rows {
			n, err := w.WriteRow(r)
			if err != nil {
				return nil, err
			}
			total += n
		}
		if total != buf.Len() {
			return nil, fmt.Errorf("WriteRow reported %d bytes, wrote %d", total, buf.Len())
		}
		var got []types.Row
		for rd := encoding.NewRowReader(&buf); ; {
			r, err := rd.ReadRow()
			if err == io.EOF {
				return got, nil
			}
			if err != nil {
				return nil, err
			}
			got = append(got, r)
		}
	}},
	{"gob", func(rows []types.Row) ([]types.Row, error) {
		got := make([]types.Row, len(rows))
		for i, r := range rows {
			got[i] = make(types.Row, len(r))
			for j, v := range r {
				b, err := v.GobEncode()
				if err == nil {
					err = got[i][j].GobDecode(b)
				}
				if err != nil {
					return nil, err
				}
			}
		}
		return got, nil
	}},
}

func TestRowBlockRoundTrip(t *testing.T) {
	rows := sampleRows()
	for _, c := range codecTrips {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.trip(rows)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(got, rows) {
				t.Fatalf("got %v, want %v", got, rows)
			}
		})
	}
	// The repeated "north" strings must have earned a dictionary slot:
	// the block stores the literal once plus codes.
	block, err := EncodeRowBlock(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(block, []byte("north")); n != 1 {
		t.Fatalf("dictionary not applied: %d inline copies of repeated string", n)
	}
	if n := bytes.Count(block, []byte("unique-once")); n != 1 {
		t.Fatalf("unique string should ship inline once, found %d", n)
	}
}

func TestRowBlockEmpty(t *testing.T) {
	block, err := EncodeRowBlock(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DecodeRowBlock(block)
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
}

// TestDecodersRejectBadCells: the cell decoder refuses what the encoder
// never writes, through gob, a row block and a spill stream alike.
func TestDecodersRejectBadCells(t *testing.T) {
	for _, cell := range [][]byte{
		{0xFF},                             // NULL, dictionary code, Kind(63)
		{0xBF},                             // NULL of Kind(63)
		{byte(types.KindBool), 10},         // BOOLEAN payload 5
		{byte(types.KindString) | 0x40, 0}, // dictionary code outside a block
	} {
		var v types.Value
		if err := v.GobDecode(cell); err == nil {
			t.Errorf("gob % x: accepted %v of %v", cell, v, v.Kind())
		}
		frame := append([]byte{byte(len(cell))}, cell...)
		if rows, err := DecodeRowBlock(append([]byte{1, 0}, frame...)); err == nil {
			t.Errorf("block of % x: accepted %v", cell, rows)
		}
		if row, err := encoding.NewRowReader(bytes.NewReader(frame)).ReadRow(); err == nil {
			t.Errorf("stream of % x: accepted %v", cell, row)
		}
	}
}

// FuzzShuffleFrame fuzzes the network-facing decoders with raw bytes:
// they must never panic or over-allocate, only return errors, and whatever
// the block, stream and gob decoders accept must survive a round trip.
func FuzzShuffleFrame(f *testing.F) {
	// Not the 4 KB row: the fuzzer minimizes every new input it finds, and
	// minimizing kilobytes leaves a 10-second run no time to fuzz.
	block, _ := EncodeRowBlock(nil, sampleRows()[:5])
	f.Add(block)
	var buf bytes.Buffer
	WriteFrame(&buf, FrameShuffleData, appendShuffleHdr(nil, shuffleHdr{Query: 9, Stage: 1, Part: 2, Sender: 3}))
	f.Add(buf.Bytes())
	f.Add([]byte{frameMagic, frameVersion, byte(FrameRows), 0, 0, 0, 0, 4, 1, 2, 3, 4})
	f.Add([]byte{0xFF})
	f.Add([]byte{byte(types.KindBool), 10})
	f.Add([]byte{1, 0, 1, 0xBF})
	f.Fuzz(func(t *testing.T, data []byte) {
		ReadFrame(bytes.NewReader(data))
		if _, rest, err := decodeShuffleHdr(data); err == nil {
			DecodeRowBlock(rest)
		}
		var accepted [3][]types.Row // in codecTrips order
		if rows, err := DecodeRowBlock(data); err == nil {
			accepted[0] = rows
		}
		for rd := encoding.NewRowReader(bytes.NewReader(data)); ; {
			row, err := rd.ReadRow()
			if err != nil {
				break
			}
			accepted[1] = append(accepted[1], row)
		}
		var v types.Value
		if v.GobDecode(data) == nil {
			accepted[2] = []types.Row{{v}}
		}
		for i, c := range codecTrips {
			if got, err := c.trip(accepted[i]); err != nil || !sameRows(got, accepted[i]) {
				t.Fatalf("%s: accepted %v, round trip gives %v (err %v)", c.name, accepted[i], got, err)
			}
		}
	})
}

// TestWireStatementRoundTrip gob-ships a rewritten AST the way the
// coordinator does and checks the tree survives (the types.Value gob
// codec carries the literals).
func TestWireStatementRoundTrip(t *testing.T) {
	stmts := []string{
		"SELECT region, SUM(amount), COUNT(*) FROM sales WHERE amount > 10.5 AND region <> 'x' GROUP BY region ORDER BY 2 DESC",
		"SELECT a.id, b.v FROM a JOIN b ON a.id = b.id WHERE b.v IN (1, 2, 3)",
		"SELECT CASE WHEN x IS NULL THEN 0 ELSE x + 1 END FROM t",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
	}
	for _, src := range stmts {
		st, err := sql.Parse(src, sql.DialectANSI)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		payload, err := encodeGob(&ExecReq{ShardID: 3, Stmt: st, SQL: src})
		if err != nil {
			t.Fatalf("%s: encode: %v", src, err)
		}
		var got ExecReq
		rest, err := decodeGob(payload, &got)
		if err != nil {
			t.Fatalf("%s: decode: %v", src, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d trailing bytes", src, len(rest))
		}
		if !reflect.DeepEqual(st, got.Stmt) {
			t.Fatalf("%s: AST did not survive the wire:\n%#v\nvs\n%#v", src, st, got.Stmt)
		}
	}
}

func TestDecodeGobTrailingBytes(t *testing.T) {
	hdr, err := encodeGob(&InsertHdr{ShardID: 1, Table: "t", NRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	block, err := EncodeRowBlock(hdr, sampleRows()[:2])
	if err != nil {
		t.Fatal(err)
	}
	var got InsertHdr
	rest, err := decodeGob(block, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != "t" || got.NRows != 2 {
		t.Fatalf("header %+v", got)
	}
	rows, err := DecodeRowBlock(rest)
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
}

// startTestServer brings up a server hosting two shards with one table.
func startTestServer(t *testing.T, fs *clusterfs.FS) *Server {
	t.Helper()
	s := NewServer("testnode", fs)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	req := AdoptReq{
		Shards: []ShardAssign{
			{ID: 0, MemBytes: 8 << 20, SortHeap: 1 << 20, HashHeap: 1 << 20, Parallelism: 2},
			{ID: 1, MemBytes: 8 << 20, SortHeap: 1 << 20, HashHeap: 1 << 20, Parallelism: 2},
		},
		Tables: []TableSpec{{
			Name: "sales",
			ID:   1,
			Schema: types.Schema{
				{Name: "id", Kind: types.KindInt},
				{Name: "region", Kind: types.KindString, Nullable: true},
				{Name: "amount", Kind: types.KindFloat, Nullable: true},
			},
			DistributeBy: "id",
		}},
		Reason: "bootstrap",
	}
	if err := s.Adopt(req); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServerExecInsertRoundTrip(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()

	rows := []types.Row{
		{types.NewInt(1), types.NewString("north"), types.NewFloat(10)},
		{types.NewInt(2), types.NewString("south"), types.NewFloat(20)},
	}
	if err := p.Insert(s.Addr(), 0, "sales", 1, rows); err != nil {
		t.Fatal(err)
	}
	n, err := p.RowCount(s.Addr(), 0, "sales")
	if err != nil || n != 2 {
		t.Fatalf("rowcount %d err %v", n, err)
	}
	st, err := sql.Parse("SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY region", sql.DialectANSI)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: st, WithStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "north" {
		t.Fatalf("rows %v", res.Rows)
	}
	if res.Stats == nil {
		t.Fatal("no shard ANALYZE record")
	}
	// Statement errors surface as RemoteError, and the connection stays
	// usable for the next request.
	bad, _ := sql.Parse("SELECT nope FROM missing", sql.DialectANSI)
	if _, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: bad}); err == nil {
		t.Fatal("expected remote error")
	} else if !strings.Contains(strings.ToLower(err.Error()), "missing") {
		t.Fatalf("unexpected error %v", err)
	}
	if _, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: st}); err != nil {
		t.Fatalf("connection unusable after remote error: %v", err)
	}
	// Ping reports hosted shards.
	info, err := p.Ping(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Shards) != 2 || info.Node != "testnode" {
		t.Fatalf("ping %+v", info)
	}
}

func TestAdoptAcrossServers(t *testing.T) {
	fs := clusterfs.New()
	s1 := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	rows := []types.Row{
		{types.NewInt(1), types.NewString("north"), types.NewFloat(10)},
		{types.NewInt(2), types.NewString("south"), types.NewFloat(20)},
	}
	if err := p.Insert(s1.Addr(), 1, "sales", 2, rows); err != nil {
		t.Fatal(err)
	}
	// "Kill" server 1; a second server over the SAME filesystem adopts
	// shard 1 with smaller budgets and sees the data (Figure 9).
	s1.Close()
	s2 := NewServer("survivor", fs)
	if err := s2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	err := s2.Adopt(AdoptReq{
		Shards: []ShardAssign{{ID: 1, MemBytes: 4 << 20, SortHeap: 512 << 10, HashHeap: 512 << 10, Parallelism: 1}},
		Tables: []TableSpec{{
			Name: "sales", ID: 1,
			Schema: types.Schema{
				{Name: "id", Kind: types.KindInt},
				{Name: "region", Kind: types.KindString, Nullable: true},
				{Name: "amount", Kind: types.KindFloat, Nullable: true},
			},
		}},
		Reason: "failover",
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.RowCount(s2.Addr(), 1, "sales")
	if err != nil || n != 2 {
		t.Fatalf("adopted rowcount %d err %v", n, err)
	}
}

func TestPoolReusesConnections(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	c1, err := p.Get(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c1.Release()
	c2, err := p.Get(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("healthy connection was not reused")
	}
	c2.Fail()
	c2.Release()
	c3, err := p.Get(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Release()
	if c3 == c2 {
		t.Fatal("broken connection was recycled")
	}
}

// TestInsertTokenReplay: a re-sent insert with the same token must not
// duplicate rows — the lost-reply failover retry case. The applied log
// lives on clusterfs, so the dedup must also hold when another server
// adopts the shard after a node death.
func TestInsertTokenReplay(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	rows := []types.Row{
		{types.NewInt(1), types.NewString("north"), types.NewFloat(10)},
		{types.NewInt(2), types.NewString("south"), types.NewFloat(20)},
	}
	for i := 0; i < 3; i++ {
		if err := p.Insert(s.Addr(), 0, "sales", 77, rows); err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	if n, err := p.RowCount(s.Addr(), 0, "sales"); err != nil || n != 2 {
		t.Fatalf("replayed insert duplicated rows: n=%d err=%v", n, err)
	}
	// Token 0 opts out of dedup.
	if err := p.Insert(s.Addr(), 0, "sales", 0, rows); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.RowCount(s.Addr(), 0, "sales"); n != 4 {
		t.Fatalf("token-0 insert should append: n=%d", n)
	}
	// Kill the server; an adopter over the same filesystem must still
	// recognize the token.
	s.Close()
	s2 := NewServer("survivor", fs)
	if err := s2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Adopt(AdoptReq{
		Shards: []ShardAssign{{ID: 0, MemBytes: 4 << 20, SortHeap: 512 << 10, HashHeap: 512 << 10, Parallelism: 1}},
		Tables: []TableSpec{{
			Name: "sales", ID: 1,
			Schema: types.Schema{
				{Name: "id", Kind: types.KindInt},
				{Name: "region", Kind: types.KindString, Nullable: true},
				{Name: "amount", Kind: types.KindFloat, Nullable: true},
			},
		}},
		Reason: "failover",
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(s2.Addr(), 0, "sales", 77, rows); err != nil {
		t.Fatal(err)
	}
	if n, err := p.RowCount(s2.Addr(), 0, "sales"); err != nil || n != 4 {
		t.Fatalf("adopter re-applied a logged token: n=%d err=%v", n, err)
	}
}

// TestExecTokenReplay: non-idempotent DML retried with the same token
// must acknowledge with the recorded affected count instead of applying
// twice (UPDATE amount = amount + 1 must not add 2).
func TestExecTokenReplay(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	if err := p.Insert(s.Addr(), 0, "sales", 5, []types.Row{
		{types.NewInt(1), types.NewString("north"), types.NewFloat(10)},
	}); err != nil {
		t.Fatal(err)
	}
	upd, err := sql.Parse("UPDATE sales SET amount = amount + 1 WHERE id = 1", sql.DialectANSI)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: upd, Token: 9})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: upd, Token: 9})
	if err != nil {
		t.Fatal(err)
	}
	if replay.RowsAffected != first.RowsAffected {
		t.Fatalf("replay affected %d, first %d", replay.RowsAffected, first.RowsAffected)
	}
	check := func(want float64) {
		t.Helper()
		q, _ := sql.Parse("SELECT amount FROM sales WHERE id = 1", sql.DialectANSI)
		res, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: q})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Float(); got != want {
			t.Fatalf("amount %v, want %v", got, want)
		}
	}
	check(11) // applied once, not twice
	// A fresh token applies again.
	if _, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: upd, Token: 10}); err != nil {
		t.Fatal(err)
	}
	check(12)
}

// TestExecPersistsOnlyTargetTable: after a write statement the server
// saves the metadata of the table it changed, not of every table on the
// shard — and that is still enough for another server to adopt the
// shard and see the write.
func TestExecPersistsOnlyTargetTable(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	shard0 := ShardAssign{ID: 0, MemBytes: 8 << 20, SortHeap: 1 << 20, HashHeap: 1 << 20, Parallelism: 2}
	tables := []TableSpec{
		{Name: "sales", ID: 1, Schema: types.Schema{
			{Name: "id", Kind: types.KindInt},
			{Name: "region", Kind: types.KindString, Nullable: true},
			{Name: "amount", Kind: types.KindFloat, Nullable: true},
		}},
		{Name: "audit", ID: 2, Schema: types.Schema{{Name: "id", Kind: types.KindInt}}},
	}
	if err := s.Adopt(AdoptReq{Shards: []ShardAssign{shard0}, Tables: tables}); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(s.Addr(), 0, "sales", 0, []types.Row{{types.NewInt(1), types.NewString("north"), types.NewFloat(10)}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(s.Addr(), 0, "audit", 0, []types.Row{{types.NewInt(7)}}); err != nil {
		t.Fatal(err)
	}
	upd, err := sql.Parse("UPDATE sales SET amount = amount + 1 WHERE id = 1", sql.DialectANSI)
	if err != nil {
		t.Fatal(err)
	}
	before := fs.Stats().Writes
	if _, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: upd}); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().Writes - before; got != 1 {
		t.Fatalf("UPDATE of one table made %d clusterfs writes, want 1 (that table's metadata)", got)
	}

	s2 := NewServer("other", fs)
	if err := s2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Adopt(AdoptReq{Shards: []ShardAssign{shard0}, Tables: tables}); err != nil {
		t.Fatal(err)
	}
	q, _ := sql.Parse("SELECT amount FROM sales WHERE id = 1", sql.DialectANSI)
	res, err := p.Exec(s2.Addr(), ExecReq{ShardID: 0, Stmt: q})
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Float() != 11 {
		t.Fatalf("adopter reads %v (err %v), want the updated amount 11", res, err)
	}
}

// TestShuffleDropFrame: FrameShuffleDrop discards every inbox of one
// query and leaves other queries' inboxes alone.
func TestShuffleDropFrame(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	rows := []types.Row{{types.NewInt(1)}}
	if err := p.SendShuffle(s.Addr(), shuffleHdr{Query: 7, Stage: 0, Part: 1, Sender: 0}, rows); err != nil {
		t.Fatal(err)
	}
	if err := p.SendShuffle(s.Addr(), shuffleHdr{Query: 8, Stage: 0, Part: 0, Sender: 0}, rows); err != nil {
		t.Fatal(err)
	}
	if got := s.Router().InboxCount(); got != 2 {
		t.Fatalf("inboxes %d, want 2", got)
	}
	if err := p.DropShuffle(s.Addr(), 7); err != nil {
		t.Fatal(err)
	}
	if got := s.Router().InboxCount(); got != 1 {
		t.Fatalf("inboxes after drop %d, want 1 (query 8 untouched)", got)
	}
}

// waitNoInboxes waits out the deferred per-partition drop, which runs
// after the reply is written.
func waitNoInboxes(t *testing.T, s *Server, when string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.Router().InboxCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s: server still holds %d shuffle inboxes", when, s.Router().InboxCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestExecShuffleExchange drives both sides of an exchange through the
// one statement frame: an ExecReq whose Exchange has an Output
// hash-partitions its rows to the partition owners instead of returning
// them, one whose Exchange has Inputs reads its partition as a table. The reading statement runs under the
// shard's current grant — after a failover re-adopts the shard with 8KB
// heaps and DOP 1 the same sort spills and reports DOP 1 — and the
// partition's inboxes are dropped when it ends, in error too.
func TestExecShuffleExchange(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "region", Kind: types.KindString, Nullable: true},
		{Name: "amount", Kind: types.KindFloat, Nullable: true},
	}
	var rows []types.Row
	for i := 0; i < 3000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewString("r"), types.NewFloat(float64(i % 97))})
	}
	if err := p.Insert(s.Addr(), 0, "sales", 0, rows); err != nil {
		t.Fatal(err)
	}
	scan, _ := sql.Parse("SELECT * FROM sales", sql.DialectANSI)
	sorted, _ := sql.Parse("SELECT id, amount FROM part ORDER BY amount DESC, id", sql.DialectANSI)
	parts := []PartLoc{{ShardID: 0}, {Addr: s.Addr(), ShardID: 1}} // one loopback, one through the socket

	// exchange shuffles shard 0's table on id as query q and sorts each
	// partition on the shard that owns it.
	exchange := func(q uint64) (read int, spills int64, dop int) {
		t.Helper()
		sent, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: scan, Exchange: &Exchange{Query: q,
			Output: &ShuffleOutput{Stage: 0, Keys: []int{0}, Parts: parts, Sender: 0}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(sent.Rows) != 0 || sent.RowsAffected != int64(len(rows)) {
			t.Fatalf("shuffling statement returned %d rows and reported %d shuffled, want 0 and %d", len(sent.Rows), sent.RowsAffected, len(rows))
		}
		for part := range parts {
			res, err := p.Exec(s.Addr(), ExecReq{ShardID: part, Stmt: sorted, WithStats: true, Exchange: &Exchange{Query: q, Part: part,
				Senders: 1, Inputs: []ShuffleInput{{Name: "part", Schema: schema, Stage: 0}}}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(res.Rows); i++ {
				if res.Rows[i-1][1].Float() < res.Rows[i][1].Float() {
					t.Fatalf("partition %d is not sorted at row %d", part, i)
				}
			}
			read += len(res.Rows)
			if part == 0 {
				dop = res.Stats.Dop
				for _, op := range res.Stats.Ops {
					spills += op.SpillRuns
				}
			}
		}
		waitNoInboxes(t, s, "after the exchange")
		return read, spills, dop
	}
	if read, spills, dop := exchange(41); read != len(rows) || spills != 0 || dop != 2 {
		t.Fatalf("1MB heaps, DOP 2: read %d rows with %d spill runs at DOP %d, want %d, 0 and 2", read, spills, dop, len(rows))
	}
	starved := ShardAssign{ID: 0, MemBytes: 1 << 20, SortHeap: 8 << 10, HashHeap: 8 << 10, Parallelism: 1}
	if err := s.Adopt(AdoptReq{Shards: []ShardAssign{starved}, Tables: []TableSpec{{Name: "sales", ID: 1, Schema: schema}}, Reason: "failover"}); err != nil {
		t.Fatal(err)
	}
	if read, spills, dop := exchange(42); read != len(rows) || spills == 0 || dop != 1 {
		t.Fatalf("8KB heaps, DOP 1: read %d rows with %d spill runs at DOP %d, want %d, some and 1", read, spills, dop, len(rows))
	}

	// A reading statement that fails still frees its partition.
	for _, batch := range [][]types.Row{rows[:10], nil} { // rows, then the sender's EOF
		if err := p.SendShuffle(s.Addr(), shuffleHdr{Query: 43, Stage: 0, Part: 0}, batch); err != nil {
			t.Fatal(err)
		}
	}
	bad, _ := sql.Parse("SELECT nope FROM part", sql.DialectANSI)
	_, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: bad, Exchange: &Exchange{Query: 43,
		Senders: 1, Inputs: []ShuffleInput{{Name: "part", Schema: schema, Stage: 0}}}})
	if err == nil || !strings.Contains(strings.ToLower(err.Error()), "nope") {
		t.Fatalf("statement over a missing column: err %v", err)
	}
	waitNoInboxes(t, s, "after a failed reading statement")

	// Shuffle fields belong to SELECTs only.
	del, _ := sql.Parse("DELETE FROM sales", sql.DialectANSI)
	if _, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Stmt: del, Exchange: &Exchange{Query: 44, Output: &ShuffleOutput{Parts: parts}}}); err == nil {
		t.Fatal("DELETE with a shuffle output was accepted")
	}
	if n, err := p.RowCount(s.Addr(), 0, "sales"); err != nil || n != int64(len(rows)) {
		t.Fatalf("rows after the refused DELETE: %d err %v", n, err)
	}
}

// TestShuffleRecvTimeout: with a dead peer (no EOF ever arrives), Recv
// must return the timeout error rather than blocking forever — the
// timer broadcast must not be lost between the deadline check and
// cond.Wait.
func TestShuffleRecvTimeout(t *testing.T) {
	r := NewShuffleRouter()
	r.Wait = 50 * time.Millisecond
	src := r.Source(1, 0, 0, 2) // two senders, neither will ever EOF
	done := make(chan error, 1)
	go func() {
		_, err := src.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned success with senders outstanding")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv blocked far past its timeout (lost wakeup)")
	}
}

func TestIsTransient(t *testing.T) {
	if IsTransient(&RemoteError{Addr: "x", Msg: "boom"}) {
		t.Fatal("remote errors must not retry")
	}
	if !IsTransient(errFake("connection refused")) {
		t.Fatal("dial refusal should retry")
	}
}

type errFake string

func (e errFake) Error() string { return string(e) }
