package shardrpc

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"dashdb/internal/clusterfs"
	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
)

// salesSchema is the schema of the table every test server hosts.
var salesSchema = types.Schema{
	{Name: "id", Kind: types.KindInt},
	{Name: "region", Kind: types.KindString, Nullable: true},
	{Name: "amount", Kind: types.KindFloat, Nullable: true},
}

// salesRows returns n rows of salesSchema shaped like the benchmark's: a
// region of four values, NULL every seventh row, and amounts in cents.
func salesRows(n int) []types.Row {
	regions := []string{"north", "south", "east", "west"}
	rows := make([]types.Row, n)
	for i := range rows {
		region := types.NewString(regions[i%len(regions)])
		if i%7 == 0 {
			region = types.Null
		}
		rows[i] = types.Row{types.NewInt(int64(6 * i)), region, types.NewFloat(float64(i%10_000) / 100)}
	}
	return rows
}

// blobStore is a page store whose every page holds the one blob.
type blobStore []byte

func (b blobStore) ReadPage(page.ID) ([]byte, error) { return b, nil }
func (blobStore) WritePage(page.ID, []byte) error    { return nil }
func (blobStore) DeletePage(page.ID) error           { return nil }
func (blobStore) DeletePages(uint32) error           { return nil }

// lastWrite is a page store that keeps the page it was last asked to
// write.
type lastWrite struct {
	columnar.PageStore
	id   page.ID
	last []byte
}

func (s *lastWrite) WritePage(id page.ID, data []byte) error {
	s.id, s.last = id, bytes.Clone(data)
	return s.PageStore.WritePage(id, data)
}

// controlSeeds returns one valid encoding of every control message and
// persisted blob.
func controlSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	insert, err := EncodeRowBlock(appendInsertHdr(nil, &InsertHdr{ShardID: 1, Table: "t", NRows: 2, Token: 5}), sampleRows()[:2])
	if err != nil {
		tb.Fatal(err)
	}
	specs := []TableSpec{{Name: "sales", ID: 1, Schema: salesSchema, DistributeBy: "id"}, {Name: "dim", ID: 2, Schema: salesSchema[:1], Replicated: true}}
	dict := encoding.BuildDict(types.KindString, []types.Value{types.NewString("north"), types.NewString("south"), types.NewString("north")})
	dict.Encode(types.NewString("east"))
	snapshot, err := encoding.AppendEncoder(nil, dict)
	if err != nil {
		tb.Fatal(err)
	}
	store := &lastWrite{PageStore: columnar.NewMemStore()}
	tbl := columnar.NewTable(1, "sales", salesSchema, columnar.Config{Store: store})
	lanes, err := columnar.LanesOf(salesSchema, salesRows(1500))
	if err == nil {
		_, err = tbl.Append(lanes)
	}
	if err == nil {
		err = tbl.SaveMeta()
	}
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		appendHello(nil, &Hello{Node: "coord"}),
		appendPingInfo(nil, &PingInfo{Node: "n1", Shards: []int{0, 3}}),
		appendAdoptReq(nil, &AdoptReq{Shards: []ShardAssign{{ID: 1, MemBytes: 4 << 20, SortHeap: 1 << 20, HashHeap: 1 << 20, Parallelism: 2}}, Tables: specs, Reason: "grow"}),
		appendReleaseReq(nil, &ReleaseReq{Shards: []int{2}}),
		appendRowCountReq(nil, &RowCountReq{ShardID: 1, Table: "sales"}),
		insert,
		appendApplied(nil, []appliedEntry{{Token: 9, RowsAffected: 2}, {Token: 12, RowsAffected: -1}}),
		AppendManifest(nil, &Manifest{NShards: 6, Tables: specs}),
		snapshot,
		store.last,
	}
}

// TestAppliedLogFailsClosed: a shard whose applied-token log does not read
// refuses a tokened statement with an error naming the shard and the log,
// where reading the log as empty would apply a retry a second time. A
// statement without a token does not read the log and runs.
func TestAppliedLogFailsClosed(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	rows := salesRows(2)
	if err := p.Insert(s.Addr(), 0, "sales", 41, bucketOf(rows)); err != nil {
		t.Fatal(err)
	}
	log, err := fs.ReadFile(appliedPath(0))
	if err != nil {
		t.Fatal(err)
	}
	fs.WriteFile(appliedPath(0), log[:len(log)-1])
	named := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "shard 0") && strings.Contains(err.Error(), appliedPath(0))
	}
	if err := p.Insert(s.Addr(), 0, "sales", 41, bucketOf(rows)); !named(err) {
		t.Fatalf("retried insert over a corrupt log: err %v", err)
	}
	if _, err := p.Exec(s.Addr(), ExecReq{ShardID: 0, Token: 42, Stmt: mustParse(t, "DELETE FROM sales")}); !named(err) {
		t.Fatalf("tokened DELETE over a corrupt log: err %v", err)
	}
	if n, err := p.RowCount(s.Addr(), 0, "sales"); err != nil || n != 2 {
		t.Fatalf("%d rows after the retry (err %v), want 2", n, err)
	}
	if err := p.Insert(s.Addr(), 0, "sales", 0, bucketOf(rows[:1])); err != nil {
		t.Fatalf("insert without a token: %v", err)
	}
	if n, err := p.RowCount(s.Addr(), 0, "sales"); err != nil || n != 3 {
		t.Fatalf("%d rows, want 3 (err %v)", n, err)
	}
}

// TestGobBlobsRefused: each blob an earlier, gob-encoded format wrote — a
// table's metadata, an encoder snapshot, an applied-token log and the
// cluster manifest — is refused with an error that names the format, not
// misread, here from a filesystem kept in a directory.
func TestGobBlobsRefused(t *testing.T) {
	fs, err := clusterfs.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gobOf := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	type appliedLog struct{ Recent []appliedEntry }
	type manifest struct {
		NShards int
		Tables  []TableSpec
	}
	type encSnapshot struct {
		Tag, Kind uint8
		Base      int64
		Limit     uint64
		Scale     float64
		Parts     [][]int64
		Ext       []int64
	}
	type colMeta struct {
		Encoder              []byte
		Gen                  uint32
		OpenCodes, OpenNulls []uint64
	}
	type tableMetaBlob struct {
		Name                 string
		Rows, Live, RawBytes int
		GenSeq               uint32
		Deleted              []int
		Cols                 []colMeta
	}
	snap := gobOf(encSnapshot{Tag: 1, Kind: uint8(types.KindInt), Base: -5, Limit: 900})
	meta := gobOf(tableMetaBlob{Name: "sales", Rows: 3, Live: 3, Cols: []colMeta{{Encoder: snap, OpenCodes: []uint64{0, 1, 2}, OpenNulls: []uint64{0}}}})
	for _, c := range []struct {
		name, path string // a path: the blob is read back from fs
		blob       []byte
		read       func([]byte) error
	}{
		{"applied-token log", appliedPath(0), gobOf(appliedLog{Recent: []appliedEntry{{Token: 41, RowsAffected: 2}}}),
			func(b []byte) error { _, err := readApplied(b); return err }},
		{"cluster manifest", "cluster/manifest", gobOf(manifest{NShards: 6, Tables: []TableSpec{{Name: "sales", ID: 1, Schema: salesSchema}}}),
			func(b []byte) error { _, err := ReadManifest(b); return err }},
		{"encoder snapshot", "", snap, func(b []byte) error {
			r := types.NewReader(b)
			encoding.ReadEncoder(&r)
			return r.Err()
		}},
		{"table metadata", "", meta,
			func(b []byte) error {
				_, err := columnar.OpenTable(1, salesSchema[:1], columnar.Config{Store: blobStore(b)})
				return err
			}},
	} {
		blob := c.blob
		if c.path != "" {
			fs.WriteFile(c.path, blob)
			if blob, err = fs.ReadFile(c.path); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.read(blob); err == nil || !strings.Contains(err.Error(), c.name+" is gob-encoded") {
			t.Errorf("%s: err %v", c.name, err)
		}
	}

	s := NewServer("dir", fs)
	defer s.Close()
	// Only a server that listens reads the token log.
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Adopt(AdoptReq{Shards: []ShardAssign{{ID: 0, MemBytes: 8 << 20, Parallelism: 1}},
		Tables: []TableSpec{{Name: "sales", ID: 1, Schema: salesSchema}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.handleInsert(InsertHdr{ShardID: 0, Table: "sales", Token: 41}, nil); err == nil || !strings.Contains(err.Error(), "applied-token log is gob-encoded") {
		t.Fatalf("token replayed over a gob-era log: err %v", err)
	}
	// A shard whose table metadata is gob-era is not adopted, rather than
	// opened as an empty table.
	store := &lastWrite{PageStore: fs.ShardStore(1)}
	if err := columnar.NewTable(1, "sales", salesSchema, columnar.Config{Store: store}).SaveMeta(); err != nil {
		t.Fatal(err)
	}
	if err := store.PageStore.WritePage(store.id, meta); err != nil {
		t.Fatal(err)
	}
	err = s.Adopt(AdoptReq{Shards: []ShardAssign{{ID: 1, MemBytes: 8 << 20, Parallelism: 1}},
		Tables: []TableSpec{{Name: "sales", ID: 1, Schema: salesSchema}}})
	if err == nil || !strings.Contains(err.Error(), "table metadata is gob-encoded") {
		t.Fatalf("adopting a shard with gob-era table metadata: err %v", err)
	}
}

// TestShardInsertBytesWritten pins what one shard INSERT of a
// benchmark-shaped bucket — the 8 333 rows a shard takes of a 50 000-row
// load over six — writes to the clustered filesystem: the strides it
// seals, the table's metadata (SaveMeta) and the applied-token log
// (markApplied).
func TestShardInsertBytesWritten(t *testing.T) {
	fs := clusterfs.New()
	s := startTestServer(t, fs)
	p := NewPool("coord")
	defer p.Close()
	lanes, err := columnar.LanesOf(salesSchema, salesRows(50_000/6))
	if err != nil {
		t.Fatal(err)
	}
	before := fs.Stats()
	if err := p.Insert(s.Addr(), 0, "sales", 7, NewBucket(lanes)); err != nil {
		t.Fatal(err)
	}
	after := fs.Stats()
	size := func(prefix string) int {
		t.Helper()
		paths := fs.List(prefix)
		if len(paths) != 1 {
			t.Fatalf("%s holds %v", prefix, paths)
		}
		data, err := fs.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	meta, log := size("shards/0000/pages/T00000001/C65535/"), size(appliedPath(0))
	total := int(after.BytesWritten - before.BytesWritten)
	// The eight sealed strides' pages are 6 016 B of it, each page its
	// packed words, ⌊64/w⌋ codes of w bits a word, plus a 32 B header: id
	// 8 × 168 B (ids climb 6 a row, so every code lies on its stride's
	// line: a line page of 16 words of width 1 and the line's 8 B), region
	// 8 × 416 B (codes 0–3: 2 bits, 32 words, and a 128 B NULL bitmap, as a
	// NULL falls every seventh row) and amount 8 × 168 B (codes climb 1 a
	// row: line pages too). As frames of reference, id's offsets from the
	// stride's first id span 6 138 (13 bits, 256 words: 2 080 B a page) and
	// amount's 1 023 (10 bits, 171 words: 1 400 B). With a spare bit in
	// every cell the pages were 9 152 B (10 325 B in all), as frames of
	// reference 34 432 B, and packed at column-global widths with a bitmap
	// on every page 43 184 B. The gob formats wrote the same pages with
	// 2 283 B of metadata and a 143 B log.
	//
	// The metadata is 619 B: 284 B of encoders, synopsis entries and
	// counters, and the 141 open rows as each column's tail page behind a
	// uvarint 0 and its length (335 B): id's and amount's line pages, 3
	// words of width 1, the line's 8 B and the header (64 B each), and
	// region's 5 words of 2 bits, its NULL bitmap and the header (200 B).
	// Held as one uvarint code a row and uvarint NULL words, the same open
	// rows took 881 B, and the metadata 1 165 B.
	const wantMeta, wantLog, wantTotal = 619, 8, 6_643
	if meta != wantMeta || log != wantLog || total != wantTotal {
		t.Fatalf("metadata %d B, token log %d B, all writes %d B; want %d, %d, %d", meta, log, total, wantMeta, wantLog, wantTotal)
	}
}
