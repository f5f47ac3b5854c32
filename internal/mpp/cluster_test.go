package mpp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"dashdb/internal/clusterfs"
	"dashdb/internal/core"
	"dashdb/internal/mem"
	"dashdb/internal/shardrpc"
	"dashdb/internal/sql"
	"dashdb/internal/types"
)

// The coordinator's behaviour must not depend on how it reaches its
// shards, so every test in this file runs once per shard client: the
// in-process engines of NewCluster/Restore and shardrpc servers on
// loopback sockets behind NewNetCluster/OpenNetCluster.

// harness forms clusters over one shard client and finds their engines.
type harness struct {
	t       testing.TB
	socket  bool
	servers []*shardrpc.Server
}

func forEachClient(t *testing.T, test func(t *testing.T, h *harness)) {
	for _, socket := range []bool{false, true} {
		name := "local"
		if socket {
			name = "socket"
		}
		t.Run(name, func(t *testing.T) { test(t, &harness{t: t, socket: socket}) })
	}
}

// host makes a node spec usable: a socket cluster needs a shard server
// running behind it.
func (h *harness) host(fs *clusterfs.FS, n NetNode) NetNode {
	if !h.socket {
		return n
	}
	srv := shardrpc.NewServer(n.Name, fs)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		h.t.Fatalf("start %s: %v", n.Name, err)
	}
	h.t.Cleanup(srv.Close)
	h.servers = append(h.servers, srv)
	n.Addr = srv.Addr()
	return n
}

func (h *harness) hostAll(fs *clusterfs.FS, nodes []NetNode) []NetNode {
	out := make([]NetNode, len(nodes))
	for i, n := range nodes {
		out[i] = h.host(fs, n)
	}
	return out
}

// form boots a fresh cluster with shardsPerNode shards per node.
func (h *harness) form(nodes []NetNode, shardsPerNode int, fs *clusterfs.FS) *NetCluster {
	h.t.Helper()
	nodes = h.hostAll(fs, nodes)
	var c *NetCluster
	var err error
	if h.socket {
		c, err = NewNetCluster(nodes, len(nodes)*shardsPerNode, fs)
	} else {
		c, err = NewCluster(nodes, shardsPerNode, fs)
	}
	if err != nil {
		h.t.Fatalf("form cluster: %v", err)
	}
	h.t.Cleanup(c.Close)
	return c
}

// reopen builds a cluster from the manifest on fs over a new node list.
func (h *harness) reopen(nodes []NetNode, fs *clusterfs.FS) (*NetCluster, error) {
	nodes = h.hostAll(fs, nodes)
	var c *NetCluster
	var err error
	if h.socket {
		c, err = OpenNetCluster(nodes, fs)
	} else {
		c, err = Restore(nodes, fs)
	}
	if err == nil {
		h.t.Cleanup(c.Close)
	}
	return c, err
}

// engine finds the engine currently serving a shard of c.
func (h *harness) engine(c *NetCluster, shard int) *core.DB {
	h.t.Helper()
	if !h.socket {
		return c.ShardEngines()[shard]
	}
	addrs, err := c.shardAddrs()
	if err != nil {
		h.t.Fatal(err)
	}
	for _, srv := range h.servers {
		if db, ok := srv.Engine(shard); ok && srv.Addr() == addrs[shard] {
			return db
		}
	}
	h.t.Fatalf("no server hosts shard %d", shard)
	return nil
}

func fourNodes() []NetNode {
	return []NetNode{
		{Name: "A", Cores: 8, MemBytes: 64 << 20},
		{Name: "B", Cores: 8, MemBytes: 64 << 20},
		{Name: "C", Cores: 8, MemBytes: 64 << 20},
		{Name: "D", Cores: 8, MemBytes: 64 << 20},
	}
}

func salesSchema() types.Schema {
	return types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "region", Kind: types.KindString, Nullable: true},
		{Name: "amount", Kind: types.KindFloat, Nullable: true},
	}
}

// seedSales creates the sales table and loads rows of it: id = i, region
// cycling over four names, amount = i%100 + frac.
func seedSales(t testing.TB, c *NetCluster, rows int, frac float64) {
	t.Helper()
	if err := c.CreateTable("sales", salesSchema(), TableOptions{DistributeBy: "id"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	regions := []string{"north", "south", "east", "west"}
	var batch []types.Row
	for i := 0; i < rows; i++ {
		batch = append(batch, types.Row{
			types.NewInt(int64(i)),
			types.NewString(regions[i%4]),
			types.NewFloat(float64(i%100) + frac),
		})
	}
	if err := c.Insert("sales", batch); err != nil {
		t.Fatalf("insert: %v", err)
	}
}

// salesCluster is the Figure 9 shape: 4 servers x 6 shards, sales loaded.
func (h *harness) salesCluster(rows int) *NetCluster {
	h.t.Helper()
	c := h.form(fourNodes(), 6, clusterfs.New())
	seedSales(h.t, c, rows, 0)
	return c
}

func TestShardLayout(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(0)
		if c.NShards() != 24 {
			t.Fatalf("shards %d want 24", c.NShards())
		}
		if got := c.Assignment(); got != "A:6 B:6 C:6 D:6" {
			t.Fatalf("assignment %q", got)
		}
	})
	// NewCluster clamps the shard count at the cumulative cores.
	c, err := NewCluster([]NetNode{{Name: "X", Cores: 2, MemBytes: 1 << 20}}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NShards() != 2 {
		t.Fatalf("core clamp: %d shards", c.NShards())
	}
}

func TestInsertRouting(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(4800)
		total, err := c.Rows("sales")
		if err != nil || total != 4800 {
			t.Fatalf("rows %d err %v", total, err)
		}
		// Hash distribution should put data on every shard, roughly evenly.
		for s := 0; s < c.NShards(); s++ {
			tbl, _ := h.engine(c, s).Table("sales")
			if n := tbl.Rows(); n < 100 || n > 300 {
				t.Fatalf("shard %d has %d rows: skewed distribution", s, n)
			}
		}
	})
}

func TestFastPathAggregates(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(4000)
		r, err := c.Query(`SELECT COUNT(*), SUM(amount), MIN(id), MAX(id), AVG(amount) FROM sales`)
		if err != nil {
			t.Fatal(err)
		}
		row := r.Rows[0]
		if row[0].Int() != 4000 {
			t.Fatalf("count %v", row[0])
		}
		wantSum := 0.0
		for i := 0; i < 4000; i++ {
			wantSum += float64(i % 100)
		}
		if row[1].Float() != wantSum {
			t.Fatalf("sum %v want %v", row[1], wantSum)
		}
		if row[2].Int() != 0 || row[3].Int() != 3999 {
			t.Fatalf("min/max %v %v", row[2], row[3])
		}
		if row[4].Float() != wantSum/4000 {
			t.Fatalf("avg %v", row[4])
		}
		if c.Stats().FastPathQueries != 1 {
			t.Fatalf("fast path not used: %+v", c.Stats())
		}
	})
}

func TestFastPathGroupBy(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(4000)
		r, err := c.Query(`SELECT region, COUNT(*) cnt, AVG(amount) a FROM sales WHERE id < 2000 GROUP BY region ORDER BY region`)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 4 {
			t.Fatalf("groups %d", len(r.Rows))
		}
		if r.Rows[0][0].Str() != "east" || r.Rows[0][1].Int() != 500 {
			t.Fatalf("group row %v", r.Rows[0])
		}
		if r.Stats == nil || r.Stats.Shards != 24 {
			t.Fatalf("scatter result must carry stats merged over 24 shards: %+v", r.Stats)
		}
		if c.Stats().FastPathQueries != 1 {
			t.Fatalf("expected fast path: %+v", c.Stats())
		}
	})
}

func TestPlainSelectScatter(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(1000)
		r, err := c.Query(`SELECT id, region FROM sales WHERE id < 10 ORDER BY id`)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 10 {
			t.Fatalf("rows %d", len(r.Rows))
		}
		for i, row := range r.Rows {
			if row[0].Int() != int64(i) {
				t.Fatalf("order broken at %d: %v", i, row)
			}
		}
		r, err = c.Query(`SELECT id FROM sales ORDER BY id DESC LIMIT 3 OFFSET 1`)
		if err != nil || len(r.Rows) != 3 || r.Rows[0][0].Int() != 998 {
			t.Fatalf("limit/offset: %v err %v", r.Rows, err)
		}
	})
}

func TestGatherPathFallback(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(1000)
		// MEDIAN is not decomposable → gather path.
		r, err := c.Query(`SELECT MEDIAN(amount) FROM sales`)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rows[0][0].IsNull() {
			t.Fatalf("median %v", r.Rows[0])
		}
		if st := c.Stats(); st.GatherPathQueries != 1 || st.FastPathQueries != 0 {
			t.Fatalf("expected gather path: %+v", st)
		}
		// COUNT(DISTINCT) also needs gather.
		r, err = c.Query(`SELECT COUNT(DISTINCT region) FROM sales`)
		if err != nil || r.Rows[0][0].Int() != 4 {
			t.Fatalf("count distinct %v err %v", r.Rows, err)
		}
		// Subquery → gather.
		r, err = c.Query(`SELECT COUNT(*) FROM sales WHERE amount > (SELECT AVG(amount) FROM sales)`)
		if err != nil {
			t.Fatal(err)
		}
		if n := r.Rows[0][0].Int(); n == 0 || n == 1000 {
			t.Fatalf("subquery count %d", n)
		}
	})
}

// shardStatements sums the statements the shard engines of c have run.
func (h *harness) shardStatements(c *NetCluster) uint64 {
	h.t.Helper()
	var n uint64
	for s := 0; s < c.NShards(); s++ {
		n += h.engine(c, s).Telemetry().Totals().Queries
	}
	return n
}

// TestStatementRunsOnce: the placement is decided before anything is
// sent. A statement that fails on a shard fails there, once — it is not
// run again through the next path, pulling the table on its way — and a
// statement only gather can answer reaches gather without a scatter
// having run first: either way every shard sees one statement.
func TestStatementRunsOnce(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(1000)
		before := h.shardStatements(c)
		_, err := c.Query(`SELECT id, amount/(id-id) FROM sales`)
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("err %v, want division by zero", err)
		}
		if st := c.Stats(); st.GatherPathQueries != 0 || st.ShuffleJoins != 0 || st.FastPathQueries != 1 {
			t.Fatalf("failed statement took paths %+v, want one scatter and nothing after it", st)
		}
		if n := h.shardStatements(c) - before; n != 24 {
			t.Fatalf("failed statement ran %d shard statements, want 24 (one per shard)", n)
		}

		before = h.shardStatements(c)
		r, err := c.Query(`SELECT id FROM sales ORDER BY amount, id LIMIT 3`)
		if err != nil || renderRows(r.Rows) != "0\n100\n200\n" {
			t.Fatalf("rows %v err %v", r, err)
		}
		if st := c.Stats(); st.GatherPathQueries != 1 || st.ShuffleJoins != 0 || st.FastPathQueries != 1 {
			t.Fatalf("ORDER BY a column not selected took paths %+v, want gather alone", st)
		}
		if n := h.shardStatements(c) - before; n != 24 {
			t.Fatalf("gathered statement ran %d shard statements, want 24 (no scatter before the gather)", n)
		}
	})
}

// TestGatherShipsEachTableOnce: a gathered statement that names a table
// twice — a self-join where there is no shuffle, a subquery beside the
// outer block — binds one input for it and pulls it from every shard once.
func TestGatherShipsEachTableOnce(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(240)
		queries := map[string]int64{`SELECT COUNT(*) FROM sales WHERE amount > (SELECT AVG(amount) FROM sales)`: 110}
		if !h.socket {
			queries[`SELECT COUNT(*) FROM sales a JOIN sales b ON a.id = b.id`] = 240
		}
		gathered := uint64(0)
		for q, want := range queries {
			before := h.shardStatements(c)
			r, err := c.Query(q)
			if err != nil || r.Rows[0][0].Int() != want {
				t.Fatalf("%s: %v err %v, want %d", q, r, err, want)
			}
			gathered++
			if st := c.Stats(); st.GatherPathQueries != gathered || st.FastPathQueries != 0 || st.ShuffleJoins != 0 {
				t.Fatalf("%s took paths %+v, want gather", q, st)
			}
			if n := h.shardStatements(c) - before; n != 24 {
				t.Fatalf("%s ran %d shard statements, want 24: the table crosses the wire once", q, n)
			}
		}
	})
}

// referenceOf loads a cluster's tables into one engine: the answer every
// distributed statement must equal.
func referenceOf(t *testing.T, c *NetCluster) *core.Session {
	t.Helper()
	one := core.Open(core.Config{BufferPoolBytes: 16 << 20})
	t.Cleanup(func() { one.Close() })
	for _, spec := range c.Tables() {
		rows, err := c.TableRows(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := one.CreateTable(spec.Name, spec.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	return one.NewSession()
}

// sameAnswer requires a cluster result to equal the one-engine result:
// column names, row order, and every value's kind and rendering.
func sameAnswer(t *testing.T, q string, got, want *core.Result) {
	t.Helper()
	if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
		t.Errorf("%s\ncolumns %v, one engine %v", q, got.Columns, want.Columns)
	}
	if g, w := renderRows(got.Rows), renderRows(want.Rows); g != w {
		t.Errorf("%s\ncluster:\n%sone engine:\n%s", q, g, w)
		return
	}
	for i, row := range got.Rows {
		for j, v := range row {
			if w := want.Rows[i][j]; v.Kind() != w.Kind() {
				t.Errorf("%s\nrow %d column %d is %v %v, one engine %v %v", q, i, j, v.Kind(), v, w.Kind(), w)
			}
		}
	}
}

// TestAvgMergeCorners: AVG through the compiled merge statement —
// CAST(SUM(sums) AS DOUBLE) / SUM(counts) — equals one engine bit for bit
// where a hand-rolled merge tends not to: no integer division over INT,
// NULL (not division by zero) over no rows and over an all-NULL group,
// and COUNT(*) over no rows is one row holding 0.
func TestAvgMergeCorners(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(1000)
		var void []types.Row
		for i := 0; i < 30; i++ {
			void = append(void, types.Row{types.NewInt(int64(5000 + i)), types.NewString("void"), types.NullOf(types.KindFloat)})
		}
		if err := c.Insert("sales", void); err != nil {
			t.Fatal(err)
		}
		ref := referenceOf(t, c)
		queries := []string{
			`SELECT AVG(id) FROM sales WHERE id < 1000`,
			`SELECT AVG(amount) FROM sales WHERE id < 0`,
			`SELECT AVG(amount), SUM(amount), MIN(amount), COUNT(amount), COUNT(*) FROM sales WHERE id < 0`,
			`SELECT region, AVG(amount), SUM(amount), MAX(amount), COUNT(amount), COUNT(*) FROM sales GROUP BY region ORDER BY region`,
			`SELECT COUNT(*) FROM sales WHERE id < 0`,
		}
		for _, q := range queries {
			want, err := ref.Exec(q)
			if err != nil {
				t.Fatalf("one engine %s: %v", q, err)
			}
			got, err := c.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			sameAnswer(t, q, got, want)
		}
		if r, _ := c.Query(queries[0]); r.Rows[0][0].Float() != 499.5 {
			t.Errorf("AVG(id) = %v, want 499.5", r.Rows[0][0])
		}
		if r, _ := c.Query(queries[1]); !r.Rows[0][0].IsNull() {
			t.Errorf("AVG over no rows = %v, want NULL", r.Rows[0][0])
		}
		if st := c.Stats(); st.FastPathQueries != uint64(len(queries))+2 || st.GatherPathQueries != 0 {
			t.Errorf("paths %+v, want every statement scattered", st)
		}
	})
}

// TestWholeTableExpressionsGather: a subquery or Oracle's ROWNUM anywhere
// in the statement — under a CAST, an IS TRUE, an IS NOT NULL, inside a
// JOIN's ON — means a shard would answer it over its own slice, so the
// statement must be gathered and answer as one engine does over the same
// rows. (Scattered, the first three counts below come back 16, ROWNUM <= 5
// returns five rows per shard.)
func TestWholeTableExpressionsGather(t *testing.T) {
	schema := types.Schema{{Name: "id", Kind: types.KindInt}, {Name: "x", Kind: types.KindInt}}
	var tRows, dRows []types.Row
	for i := int64(1); i <= 40; i++ {
		tRows = append(tRows, types.Row{types.NewInt(i), types.NewInt(i * i)})
		dRows = append(dRows, types.Row{types.NewInt(i)})
	}
	const avg = "(SELECT AVG(x) FROM t)"
	cases := []struct {
		d    sql.Dialect
		q    string
		want int64 // the one count, or the number of rows
	}{
		{sql.DialectANSI, "SELECT COUNT(*) FROM t WHERE x > " + avg, 17},
		{sql.DialectANSI, "SELECT COUNT(*) FROM t WHERE x > CAST(" + avg + " AS DOUBLE)", 17},
		{sql.DialectANSI, "SELECT COUNT(*) FROM t WHERE (x > " + avg + ") IS TRUE", 17},
		{sql.DialectANSI, "SELECT COUNT(*) FROM t JOIN d ON t.id = d.id AND t.x > " + avg, 17},
		{sql.DialectANSI, "SELECT COUNT(*) FROM t WHERE (SELECT MIN(x) FROM t WHERE id = 1) IS NOT NULL AND x = 1600", 1},
		{sql.DialectOracle, "SELECT COUNT(*) FROM t WHERE ROWNUM <= 5", 5},
		{sql.DialectOracle, "SELECT id FROM t WHERE ROWNUM <= 5", 5},
	}

	one := core.Open(core.Config{BufferPoolBytes: 4 << 20})
	defer one.Close()
	ref := one.NewSession()
	for _, ddl := range []string{"CREATE TABLE t (id BIGINT, x BIGINT)", "CREATE TABLE d (id BIGINT)"} {
		if _, err := ref.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for name, rows := range map[string][]types.Row{"t": tRows, "d": dRows} {
		tbl, _ := one.Catalog().Table(name)
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}

	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.form(fourNodes()[:2], 2, clusterfs.New())
		if err := c.CreateTable("t", schema, TableOptions{DistributeBy: "id"}); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateTable("d", schema[:1], TableOptions{Replicated: true}); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert("t", tRows); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert("d", dRows); err != nil {
			t.Fatal(err)
		}
		for i, tc := range cases {
			ref.SetDialect(tc.d)
			want, err := ref.Exec(tc.q)
			if err != nil {
				t.Fatalf("one engine %q: %v", tc.q, err)
			}
			got, err := c.QueryDialect(tc.q, tc.d)
			if err != nil {
				t.Fatalf("%q: %v", tc.q, err)
			}
			if len(got.Rows) == 1 {
				if renderRows(got.Rows) != renderRows(want.Rows) || got.Rows[0][0].Int() != tc.want {
					t.Errorf("%q: cluster %v, one engine %v, want %d", tc.q, got.Rows, want.Rows, tc.want)
				}
			} else if len(got.Rows) != len(want.Rows) || int64(len(got.Rows)) != tc.want {
				t.Errorf("%q: cluster %d rows, one engine %d, want %d", tc.q, len(got.Rows), len(want.Rows), tc.want)
			}
			if st := c.Stats(); st.GatherPathQueries != uint64(i+1) || st.FastPathQueries != 0 || st.ShuffleJoins != 0 {
				t.Errorf("%q was not gathered: %+v", tc.q, st)
			}
		}
	})
}

func TestColocatedJoinWithReplicatedDimension(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(2000)
		dim := types.Schema{
			{Name: "region", Kind: types.KindString},
			{Name: "zone", Kind: types.KindString},
		}
		if err := c.CreateTable("regions", dim, TableOptions{Replicated: true}); err != nil {
			t.Fatal(err)
		}
		err := c.Insert("regions", []types.Row{
			{types.NewString("north"), types.NewString("Z1")},
			{types.NewString("south"), types.NewString("Z1")},
			{types.NewString("east"), types.NewString("Z2")},
			{types.NewString("west"), types.NewString("Z2")},
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Query(`
			SELECT r.zone, COUNT(*) FROM sales s JOIN regions r ON s.region = r.region
			GROUP BY r.zone ORDER BY r.zone`)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 2 || r.Rows[0][1].Int() != 1000 || r.Rows[1][1].Int() != 1000 {
			t.Fatalf("join groups %v", r.Rows)
		}
		if c.Stats().FastPathQueries == 0 {
			t.Fatalf("co-located join should be fast path: %+v", c.Stats())
		}
	})
}

func TestReplicatedTableCounts(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(0)
		dim := types.Schema{{Name: "k", Kind: types.KindInt}}
		if err := c.CreateTable("d", dim, TableOptions{Replicated: true}); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert("d", []types.Row{{types.NewInt(1)}, {types.NewInt(2)}}); err != nil {
			t.Fatal(err)
		}
		n, err := c.Rows("d")
		if err != nil || n != 2 {
			t.Fatalf("replicated rows %d err %v", n, err)
		}
		// Scattering a COUNT over a replicated table would multiply it by
		// the shard count; accept only the true count.
		r, err := c.Query(`SELECT COUNT(*) FROM d`)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rows[0][0].Int() != 2 {
			t.Fatalf("replicated COUNT = %v, want 2", r.Rows[0][0])
		}
		rows, err := c.TableRows("d")
		if err != nil || len(rows) != 2 {
			t.Fatalf("TableRows of a replicated table: %d rows err %v, want one copy", len(rows), err)
		}
	})
}

func TestDMLBroadcast(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(1000)
		r, err := c.Query(`DELETE FROM sales WHERE id < 100`)
		if err != nil || r.RowsAffected != 100 {
			t.Fatalf("delete %v err %v", r, err)
		}
		total, _ := c.Rows("sales")
		if total != 900 {
			t.Fatalf("rows after delete %d", total)
		}
		r, err = c.Query(`UPDATE sales SET amount = 0 WHERE region = 'north'`)
		if err != nil || r.RowsAffected != 225 {
			t.Fatalf("update %v err %v, want 225 rows affected", r, err)
		}
		cnt, err := c.Query(`SELECT COUNT(*) FROM sales WHERE amount = 0`)
		if err != nil {
			t.Fatal(err)
		}
		if cnt.Rows[0][0].Int() < r.RowsAffected {
			t.Fatalf("update not visible: %v vs %v", cnt.Rows[0][0], r.RowsAffected)
		}
	})
}

// TestWritePathClusterfsWrites pins the one deliberate difference
// between the shard clients: a shard server saves the written table's
// metadata to the clustered filesystem after every statement (another
// process may adopt the shard at any moment), in-process engines write
// nothing until a stride seals or Checkpoint runs.
func TestWritePathClusterfsWrites(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		fs := clusterfs.New()
		c := h.form(fourNodes()[:2], 2, fs)
		seedSales(t, c, 400, 0)
		before := fs.Stats().Writes
		for _, stmt := range []string{
			`INSERT INTO sales VALUES (1000, 'north', 1)`,
			`UPDATE sales SET amount = 2 WHERE id < 40`,
			`DELETE FROM sales WHERE id >= 390`,
		} {
			if _, err := c.Query(stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		if err := c.Insert("sales", []types.Row{{types.NewInt(1001), types.NewString("east"), types.NewFloat(3)}}); err != nil {
			t.Fatal(err)
		}
		writes := fs.Stats().Writes - before
		if h.socket && writes == 0 {
			t.Fatal("shard servers must persist written tables")
		}
		if !h.socket && writes != 0 {
			t.Fatalf("in-process write path made %d clusterfs writes, want 0", writes)
		}
	})
}

func TestSQLSurface(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.form(fourNodes(), 2, clusterfs.New())
		if _, err := c.Query(`CREATE TABLE t1 (a BIGINT NOT NULL, b VARCHAR(10))`); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query(`INSERT INTO t1 VALUES (1, 'x'), (2, 'y'), (3, 'z')`); err != nil {
			t.Fatal(err)
		}
		r, err := c.Query(`SELECT COUNT(*) FROM t1`)
		if err != nil || r.Rows[0][0].Int() != 3 {
			t.Fatalf("ddl roundtrip %v err %v", r, err)
		}
		// A value of another kind is placed by the value the shard stores (the
		// INT 12, not the string '12'), where a lookup pinned to 12 asks.
		if _, err := c.Query(`INSERT INTO t1 VALUES ('12', 'w')`); err != nil {
			t.Fatal(err)
		}
		if r, err := c.Query(`SELECT b FROM t1 WHERE a = 12`); err != nil || renderRows(r.Rows) != "w\n" {
			t.Fatalf("pinned lookup of a coerced key: %v err %v", r, err)
		}
		if _, err := c.Query(`DELETE FROM t1 WHERE a = 2 OR a = 12`); err != nil {
			t.Fatal(err)
		}
		r, err = c.Query(`SELECT COUNT(*) FROM t1`)
		if err != nil || r.Rows[0][0].Int() != 2 {
			t.Fatalf("count after delete %v err %v", r, err)
		}
		if _, err := c.Query(`DROP TABLE t1`); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query(`SELECT * FROM t1`); err == nil {
			t.Fatal("dropped table queryable")
		}
	})
}

func TestQueryErrors(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(10)
		if _, err := c.Query(`SELECT * FROM missing`); err == nil {
			t.Fatal("missing table must error")
		}
		if _, err := c.Query(`SELEC bogus`); err == nil {
			t.Fatal("parse error must surface")
		}
		if err := c.CreateTable("sales", salesSchema(), TableOptions{}); err == nil {
			t.Fatal("duplicate create must error")
		}
		if err := c.CreateTable("x", salesSchema(), TableOptions{DistributeBy: "nope"}); err == nil {
			t.Fatal("bad distribution column must error")
		}
		if err := c.Insert("missing", nil); err == nil {
			t.Fatal("insert into missing table must error")
		}
		// A row stays on the shard its distribution value hashed to, where
		// a statement pinned to its new value would not look.
		for q, d := range map[string]sql.Dialect{
			`UPDATE sales SET amount = 1, id = id + 1 WHERE id = 3`: sql.DialectANSI,
			`BEGIN UPDATE sales SET ID = 1; END`:                    sql.DialectOracle,
		} {
			if _, err := c.QueryDialect(q, d); err == nil || !strings.Contains(err.Error(), "distribution column") {
				t.Fatalf("%s: err %v, want the distribution column refused", q, err)
			}
		}
		if r, err := c.Query(`SELECT COUNT(*) FROM sales WHERE id = 3 AND amount = 3`); err != nil || r.Rows[0][0].Int() != 1 {
			t.Fatalf("refused UPDATE changed rows: %v err %v", r, err)
		}
	})
}

// grants reads every shard's applied resources off its engine.
func (h *harness) grants(c *NetCluster) []shardrpc.ShardAssign {
	out := make([]shardrpc.ShardAssign, c.NShards())
	for s := range out {
		db := h.engine(c, s)
		out[s] = shardrpc.ShardAssign{
			ID:          s,
			MemBytes:    int64(db.Pool().Capacity()),
			SortHeap:    db.MemBroker().Budget(mem.SortHeap),
			HashHeap:    db.MemBroker().Budget(mem.HashHeap),
			Parallelism: db.Config().Parallelism,
		}
	}
	return out
}

// TestFigure9Failover reproduces the paper's Figure 9: 4 servers × 6
// shards; server D fails; A, B, C now serve 8 shards each with smaller
// per-shard pool, heaps and parallelism; the cluster keeps answering
// queries with identical results; D rejoins and the grants grow back.
func TestFigure9Failover(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(4800)
		before, err := c.Query(`SELECT COUNT(*), SUM(amount) FROM sales`)
		if err != nil {
			t.Fatal(err)
		}
		// 64 MiB node / 6 shards: 40% pool, 15% each heap, 8 cores / 6.
		slice := float64((64 << 20) / 6)
		want := shardrpc.ShardAssign{MemBytes: int64(slice * 0.40), SortHeap: int64(slice * 0.15), HashHeap: int64(slice * 0.15), Parallelism: 1}
		check := func(when string) {
			t.Helper()
			got, planned := h.grants(c), c.ShardAssigns()
			for s := range got {
				want.ID = s
				if got[s] != want || planned[s] != want {
					t.Fatalf("%s: shard %d runs with %+v, coordinator granted %+v, want %+v", when, s, got[s], planned[s], want)
				}
			}
		}
		check("bootstrap")

		if err := c.FailNode("D"); err != nil {
			t.Fatal(err)
		}
		if got := c.Assignment(); got != "A:8 B:8 C:8" {
			t.Fatalf("post-failover assignment %q", got)
		}
		slice = float64((64 << 20) / 8)
		want = shardrpc.ShardAssign{MemBytes: int64(slice * 0.40), SortHeap: int64(slice * 0.15), HashHeap: int64(slice * 0.15), Parallelism: 1}
		check("failover")
		after, err := c.Query(`SELECT COUNT(*), SUM(amount) FROM sales`)
		if err != nil {
			t.Fatal(err)
		}
		if types.Compare(before.Rows[0][0], after.Rows[0][0]) != 0 ||
			types.Compare(before.Rows[0][1], after.Rows[0][1]) != 0 {
			t.Fatalf("results changed across failover: %v vs %v", before.Rows[0], after.Rows[0])
		}

		// Reinstate D with more cores (elastic growth): back to 6 shards
		// each, and D's shards run at its own parallelism.
		if err := c.AddNode(h.host(c.FS(), NetNode{Name: "D", Cores: 12, MemBytes: 64 << 20})); err != nil {
			t.Fatal(err)
		}
		if got := c.Assignment(); got != "A:6 B:6 C:6 D:6" {
			t.Fatalf("post-rejoin assignment %q", got)
		}
		dop2 := 0
		for _, g := range h.grants(c) {
			if g.Parallelism == 2 {
				dop2++
			}
			if g.MemBytes != int64(float64((64<<20)/6)*0.40) {
				t.Fatalf("post-rejoin shard %d pool %d did not grow back", g.ID, g.MemBytes)
			}
		}
		if dop2 != 6 {
			t.Fatalf("%d shards run at parallelism 2, want D's 6", dop2)
		}
		if n, err := c.Rows("sales"); err != nil || n != 4800 {
			t.Fatalf("rows after rejoin %d err %v", n, err)
		}
		if st := c.Stats(); st.Failovers != 1 || st.Reshards != 1 {
			t.Fatalf("re-association counters %+v, want 1 failover and 1 reshard", st)
		}
	})
}

// TestReassociationUnderLoad: in-process engines are resized live, so
// statements running while shards re-associate must neither fail nor
// see a different answer (and, under -race, must not race the resize).
// Shard servers reopen the engine instead, which may fail an in-flight
// statement; that path is covered by the kill-a-server tests.
func TestReassociationUnderLoad(t *testing.T) {
	c := (&harness{t: t}).salesCluster(2400)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := c.Query(`SELECT region, COUNT(*) AS n FROM sales GROUP BY region ORDER BY region`)
				if err != nil || len(r.Rows) != 4 || r.Rows[0][1].Int() != 600 {
					t.Errorf("query during re-association: %v err %v", r, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if err := c.FailNode("D"); err != nil {
			t.Error(err)
		}
		if err := c.AddNode(NetNode{Name: "D", Cores: 8, MemBytes: 64 << 20}); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestGrowShrink(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		fs := clusterfs.New()
		c := h.form(fourNodes()[:2], 2, fs)
		seedSales(t, c, 200, 0)
		if err := c.AddNode(h.host(fs, NetNode{Name: "C", Cores: 8, MemBytes: 64 << 20})); err != nil {
			t.Fatalf("grow: %v", err)
		}
		if got := c.Assignment(); got != "A:2 B:1 C:1" {
			t.Fatalf("assignment after grow %q", got)
		}
		if h.socket {
			if got := len(h.servers[2].Shards()); got != 1 {
				t.Fatalf("grown server hosts %d shards, want 1", got)
			}
		}
		res, err := c.Query("SELECT COUNT(*) AS n FROM sales")
		if err != nil || res.Rows[0][0].Int() != 200 {
			t.Fatalf("count after grow: %v %v", res, err)
		}
		if err := c.RemoveNode("C"); err != nil {
			t.Fatalf("shrink: %v", err)
		}
		if got := c.Assignment(); got != "A:2 B:2" {
			t.Fatalf("assignment after shrink %q", got)
		}
		if h.socket {
			if got := len(h.servers[2].Shards()); got != 0 {
				t.Fatalf("shrunk server still hosts %d shards", got)
			}
		}
		if n, err := c.Rows("sales"); err != nil || n != 200 {
			t.Fatalf("rows after shrink=%d err=%v", n, err)
		}
		if st := c.Stats(); st.Reshards != 2 {
			t.Fatalf("reshards %d, want 2", st.Reshards)
		}
	})
}

func TestElasticGuards(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.form([]NetNode{{Name: "A", Cores: 2, MemBytes: 8 << 20}}, 2, clusterfs.New())
		if err := c.RemoveNode("A"); err == nil {
			t.Fatal("removing the last node must fail")
		}
		if err := c.FailNode("A"); err == nil {
			t.Fatal("failing the last node must fail")
		}
		if err := c.FailNode("Z"); err == nil {
			t.Fatal("failing an unknown node must fail")
		}
		if got := c.Assignment(); got != "A:2" {
			t.Fatalf("refused operations changed the assignment: %q", got)
		}
		if err := c.AddNode(NetNode{Name: "A", Cores: 8, MemBytes: 1 << 20}); err == nil {
			t.Fatal("adding a live duplicate node must fail")
		}
	})
}

func TestClusterFSPersistsPages(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		fs := clusterfs.New()
		c := h.form(fourNodes(), 2, fs)
		if err := c.CreateTable("sales", salesSchema(), TableOptions{}); err != nil {
			t.Fatal(err)
		}
		var batch []types.Row
		for i := 0; i < 20000; i++ {
			batch = append(batch, types.Row{types.NewInt(int64(i)), types.NewString("x"), types.NewFloat(1)})
		}
		if err := c.Insert("sales", batch); err != nil {
			t.Fatal(err)
		}
		if len(fs.List("shards/")) == 0 {
			t.Fatal("no pages written to the clustered filesystem")
		}
		// Snapshot (portability / DR story).
		if snap := fs.Snapshot(); snap.TotalBytes() == 0 || snap.TotalBytes() != fs.TotalBytes() {
			t.Fatalf("snapshot holds %d bytes, filesystem %d", snap.TotalBytes(), fs.TotalBytes())
		}
	})
}

// Property: for random row sets, hash routing lands every row on exactly
// one shard and cluster-wide aggregates equal local computation, before
// and after a failover.
func TestRoutingConservationProperty(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			c := h.form(fourNodes(), 3, clusterfs.New())
			if err := c.CreateTable("t", types.Schema{
				{Name: "k", Kind: types.KindInt},
				{Name: "v", Kind: types.KindInt, Nullable: true},
			}, TableOptions{DistributeBy: "k"}); err != nil {
				return false
			}
			n := rng.Intn(3000) + 100
			var rows []types.Row
			wantSum := int64(0)
			for i := 0; i < n; i++ {
				v := int64(rng.Intn(1000))
				wantSum += v
				rows = append(rows, types.Row{types.NewInt(int64(rng.Int31())), types.NewInt(v)})
			}
			if err := c.Insert("t", rows); err != nil {
				return false
			}
			check := func() bool {
				total := 0
				for s := 0; s < c.NShards(); s++ {
					tbl, _ := h.engine(c, s).Table("t")
					total += tbl.Rows()
				}
				if total != n {
					return false
				}
				r, err := c.Query(`SELECT COUNT(*), SUM(v) FROM t`)
				if err != nil {
					return false
				}
				return r.Rows[0][0].Int() == int64(n) && r.Rows[0][1].Int() == wantSum
			}
			if !check() {
				return false
			}
			if err := c.FailNode("B"); err != nil {
				return false
			}
			return check()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
			t.Error(err)
		}
	})
}

// TestCheckpointSnapshotRestore exercises the §II.E portability flow:
// checkpoint a loaded cluster, snapshot the clustered filesystem, and
// restore onto an ENTIRELY DIFFERENT physical topology (3 bigger nodes
// instead of 4) — queries answer identically and the restored cluster
// accepts new writes and failovers.
func TestCheckpointSnapshotRestore(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		src := h.salesCluster(5000)
		dim := types.Schema{{Name: "region", Kind: types.KindString}, {Name: "zone", Kind: types.KindString}}
		if err := src.CreateTable("regions", dim, TableOptions{Replicated: true}); err != nil {
			t.Fatal(err)
		}
		if err := src.Insert("regions", []types.Row{
			{types.NewString("north"), types.NewString("Z1")},
			{types.NewString("south"), types.NewString("Z2")},
		}); err != nil {
			t.Fatal(err)
		}
		before, err := src.Query(`SELECT COUNT(*), SUM(amount) FROM sales`)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// "Copy the clustered filesystem and docker run on new hardware."
		snap := src.FS().Snapshot()
		restored, err := h.reopen([]NetNode{
			{Name: "X", Cores: 16, MemBytes: 128 << 20},
			{Name: "Y", Cores: 16, MemBytes: 128 << 20},
			{Name: "Z", Cores: 16, MemBytes: 128 << 20},
		}, snap)
		if err != nil {
			t.Fatal(err)
		}
		if got := restored.Assignment(); got != "X:8 Y:8 Z:8" {
			t.Fatalf("restored assignment %q: the manifest fixes 24 shards", got)
		}
		after, err := restored.Query(`SELECT COUNT(*), SUM(amount) FROM sales`)
		if err != nil {
			t.Fatal(err)
		}
		if types.Compare(before.Rows[0][0], after.Rows[0][0]) != 0 ||
			types.Compare(before.Rows[0][1], after.Rows[0][1]) != 0 {
			t.Fatalf("restore changed results: %v vs %v", before.Rows[0], after.Rows[0])
		}
		if n, err := restored.Rows("sales"); err != nil || n != 5000 {
			t.Fatalf("restored rows=%d err=%v", n, err)
		}
		// Replicated dimension still joins.
		r, err := restored.Query(`SELECT COUNT(*) FROM sales s JOIN regions r ON s.region = r.region`)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rows[0][0].Int() != 2500 { // north + south halves
			t.Fatalf("restored join %v", r.Rows[0])
		}
		// The restored cluster is live: writes, DDL and failover work.
		if _, err := restored.Query(`INSERT INTO sales VALUES (99999, 'north', 1)`); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.Query(`CREATE TABLE fresh (a BIGINT NOT NULL)`); err != nil {
			t.Fatal(err)
		}
		if err := restored.FailNode("Z"); err != nil {
			t.Fatal(err)
		}
		r, err = restored.Query(`SELECT COUNT(*) FROM sales`)
		if err != nil || r.Rows[0][0].Int() != 5001 {
			t.Fatalf("post-restore failover: %v err %v", r, err)
		}
		// The source keeps working on its own filesystem, unaffected.
		if n, err := src.Rows("sales"); err != nil || n != 5000 {
			t.Fatalf("source rows=%d err=%v", n, err)
		}
		// Restore guards.
		if _, err := h.reopen(nil, snap); err == nil {
			t.Fatal("restore with no nodes must fail")
		}
		if _, err := h.reopen([]NetNode{{Name: "A", Cores: 4, MemBytes: 1 << 20}}, clusterfs.New()); err == nil {
			t.Fatal("restore without manifest must fail")
		}
	})
}

func TestClusterQueryHistoryMergesShardStats(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.salesCluster(10_000)
		// Fast path: parallel partitioned aggregate scattered to all 24 shards.
		if _, err := c.Query(`SELECT region, COUNT(*), SUM(amount) FROM sales WHERE id < 5000 GROUP BY region`); err != nil {
			t.Fatal(err)
		}
		// Gather path: MEDIAN has no partial form, rows ship to the coordinator.
		if _, err := c.Query(`SELECT MEDIAN(amount) FROM sales`); err != nil {
			t.Fatal(err)
		}
		hist := c.reg.History()
		if len(hist) != 2 {
			t.Fatalf("history has %d records, want 2", len(hist))
		}
		agg := hist[0]
		if agg.Shards != 24 {
			t.Fatalf("fast-path record shards=%d, want 24", agg.Shards)
		}
		if agg.Status != "ok" || agg.Rows != 4 {
			t.Fatalf("fast-path record %+v", agg)
		}
		var scanRows, visited int64
		for _, op := range agg.Ops {
			if op.HasScan {
				scanRows += op.Rows
				visited += op.StridesVisited
			}
		}
		if scanRows == 0 || visited == 0 {
			t.Fatalf("merged record lost scan counters: rows=%d visited=%d", scanRows, visited)
		}
		med := hist[1]
		if med.Shards != 24 || med.Status != "ok" {
			t.Fatalf("gather-path record %+v", med)
		}
		if med.SQL == "" || agg.SQL == "" {
			t.Fatal("history records must carry the SQL text")
		}
		if med.ID == agg.ID {
			t.Fatal("history records must get distinct cluster-level IDs")
		}
	})
}

func BenchmarkMPPFastPathAggregate(b *testing.B) {
	c := (&harness{t: b}).salesCluster(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(`SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region`); err != nil {
			b.Fatal(err)
		}
	}
}

func renderRows(rows []types.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// parityColumns boots the three clusters every parity test compares:
// one shard behind a socket (the single-node reference), three shards
// behind sockets, and three shards in-process (whose distributed joins
// gather instead of shuffling).
func parityColumns(t *testing.T, node NetNode) map[string]*NetCluster {
	nodes := func(n int) []NetNode {
		out := make([]NetNode, n)
		for i := range out {
			out[i] = node
			out[i].Name = fmt.Sprintf("node%c", 'A'+i)
		}
		return out
	}
	socket, local := &harness{t: t, socket: true}, &harness{t: t}
	return map[string]*NetCluster{
		"1-shard":       socket.form(nodes(1), 1, clusterfs.New()),
		"3-shard":       socket.form(nodes(3), 1, clusterfs.New()),
		"3-shard-local": local.form(nodes(3), 1, clusterfs.New()),
	}
}

// checkParity runs every query on every column and requires the
// single-shard reference's answer everywhere.
func checkParity(t *testing.T, cols map[string]*NetCluster, queries []string) {
	t.Helper()
	for _, q := range queries {
		ref, err := cols["1-shard"].Query(q)
		if err != nil {
			t.Fatalf("1-shard %q: %v", q, err)
		}
		for name, c := range cols {
			res, err := c.Query(q)
			if err != nil {
				t.Fatalf("%s %q: %v", name, q, err)
			}
			if got, want := renderRows(res.Rows), renderRows(ref.Rows); got != want {
				t.Fatalf("%q diverged:\n%s:\n%s\n1-shard:\n%s", q, name, got, want)
			}
		}
	}
}

// TestParitySingleNode is the bit-identical acceptance check: the same
// workload on one shard and on three must produce identical results on
// scatter, shuffle-join and gather paths alike.
func TestParitySingleNode(t *testing.T) {
	cols := parityColumns(t, NetNode{Cores: 4, MemBytes: 256 << 20})
	for _, c := range cols {
		seedSales(t, c, 300, 0.5)
		if err := c.CreateTable("regions", types.Schema{
			{Name: "name", Kind: types.KindString},
			{Name: "manager", Kind: types.KindString, Nullable: true},
		}, TableOptions{DistributeBy: "name"}); err != nil {
			t.Fatalf("create regions: %v", err)
		}
		if err := c.Insert("regions", []types.Row{
			{types.NewString("north"), types.NewString("ada")},
			{types.NewString("south"), types.NewString("bob")},
			{types.NewString("east"), types.NewString("cho")},
			// "west" intentionally missing: exercises LEFT JOIN nulls.
		}); err != nil {
			t.Fatalf("insert regions: %v", err)
		}
	}
	checkParity(t, cols, []string{
		// Scatter fast path: partial aggregation.
		"SELECT region, COUNT(*) AS n, SUM(amount) AS s, MIN(amount) AS lo, MAX(amount) AS hi FROM sales GROUP BY region ORDER BY region",
		// Global aggregate, no GROUP BY.
		"SELECT COUNT(*) AS n, AVG(amount) AS a FROM sales",
		// Plain scatter with ORDER BY + LIMIT pushdown.
		"SELECT id, amount FROM sales ORDER BY id DESC LIMIT 7",
		// Shuffle join: two distributed tables on a non-distribution key.
		"SELECT s.region, COUNT(*) AS n FROM sales s INNER JOIN regions r ON s.region = r.name GROUP BY s.region ORDER BY s.region",
		// LEFT JOIN through the shuffle (west has no match).
		"SELECT s.region, COUNT(*) AS n FROM sales s LEFT JOIN regions r ON s.region = r.name GROUP BY s.region ORDER BY s.region",
		// Gather path: DISTINCT disqualifies the fast paths.
		"SELECT DISTINCT region FROM sales ORDER BY region",
		// Scatter pinned to the shard owning the key: present, absent, a
		// string key; NULL and a float against the INT key ask every shard.
		"SELECT id, amount FROM sales WHERE id = 17",
		"SELECT COUNT(*) AS n, SUM(amount) AS s FROM sales WHERE id = 1000",
		"SELECT manager FROM regions WHERE name = 'north'",
		"SELECT COUNT(*) AS n FROM sales WHERE id = NULL",
		"SELECT region FROM sales WHERE id = 17.0",
		// Shuffle joins whose single-table conjuncts run in the stages, and
		// one whose null-supplying side's test stays above the join.
		"SELECT s.region, COUNT(*) AS n FROM sales s INNER JOIN regions r ON s.region = r.name WHERE s.amount < 30 AND r.manager <> 'bob' GROUP BY s.region ORDER BY s.region",
		"SELECT COUNT(*) AS n FROM sales s LEFT JOIN regions r ON s.region = r.name WHERE r.manager IS NULL",
		// An outer join with a residual in its ON gathers: a shuffle stage
		// takes a single = ON only.
		"SELECT s.region, COUNT(*) AS n FROM sales s LEFT JOIN regions r ON s.region = r.name AND s.amount < 30 GROUP BY s.region ORDER BY s.region",
	})
	if st := cols["3-shard"].Stats(); st.ShuffleJoins != 4 || st.FastPathQueries != 8 || st.GatherPathQueries != 2 {
		t.Fatalf("socket cluster took paths %+v, want 8 fast, 4 shuffle, 2 gather", st)
	}
	if st := cols["3-shard-local"].Stats(); st.ShuffleJoins != 0 || st.FastPathQueries != 8 || st.GatherPathQueries != 6 {
		t.Fatalf("in-process cluster took paths %+v, want 8 fast, 6 gather", st)
	}
}

// genSelect draws one statement the substitution rule admits: group
// columns and aggregates in any item order, aggregates under arithmetic,
// HAVING, ORDER BY an alias, an ordinal or the aggregate itself, LIMIT and
// OFFSET, qualified and aliased group columns, over one table, a
// co-located join with the replicated zones, or (join = true) a join of
// two distributed tables, whose WHERE may hold conjuncts over either side,
// both, an OR across them or — under LEFT — the null-supplying side's IS
// NULL. Every ORDER BY ends in a unique key, so the answer is one sequence
// of rows.
func genSelect(rng *rand.Rand) (q string, join bool) {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	var from, id, amount string
	var groupable, where []string
	switch rng.Intn(4) {
	case 0:
		from, id, amount, groupable = "sales", "id", "amount", []string{"region"}
	case 1:
		from, id, amount, groupable = "sales s", pick("id", "s.id"), pick("amount", "s.amount"), []string{pick("region", "s.region")}
	case 2:
		from, id, amount = "sales s JOIN zones z ON s.region = z.region", "s.id", pick("amount", "s.amount")
		groupable = []string{"s.region", pick("zone", "z.zone")}
	default:
		kind := pick("INNER", "LEFT")
		from, id, amount = "sales s "+kind+" JOIN regions r ON s.region = r.name", pick("id", "s.id"), "s.amount"
		groupable, join = []string{"s.region", pick("manager", "r.manager")}, true
		conds := []string{"", "s.amount < 40", "r.manager = 'ada'", "UPPER(r.name) <> 'EAST'",
			"s.amount >= 20 AND r.manager <> 'bob'", "(s.amount < 10 OR r.manager = 'bob')"}
		if kind == "LEFT" {
			conds = append(conds, "r.manager IS NULL", "r.manager IS NULL AND s.amount > 50")
		}
		if c := pick(conds...); c != "" {
			where = append(where, c)
		}
	}
	limit := ""
	if rng.Intn(3) == 0 {
		limit = fmt.Sprintf(" LIMIT %d OFFSET %d", 1+rng.Intn(5), rng.Intn(3))
	}
	type item struct{ expr, alias string }
	render := func(items []item) string {
		parts := make([]string, len(items))
		for i, it := range items {
			parts[i] = it.expr
			if it.alias != "" {
				parts[i] += " AS " + it.alias
			}
		}
		return strings.Join(parts, ", ")
	}
	// orderTerm names item i by alias, by ordinal or by its expression.
	orderTerm := func(items []item, i int) string {
		switch k := rng.Intn(3); {
		case k == 0 && items[i].alias != "":
			return items[i].alias
		case k == 1:
			return fmt.Sprint(i + 1)
		}
		return items[i].expr
	}

	if rng.Intn(4) == 0 { // a plain block: expressions, top-k pushdown
		items := []item{{id, ""}, {amount + " * 2", "d"}, {groupable[0], pick("", "g")}}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		var order []string
		idAt := 0
		for i, it := range items {
			if it.expr == id {
				idAt = i + 1
			} else if it.alias != "" && rng.Intn(2) == 0 {
				order = append(order, it.alias+pick("", " DESC"))
			}
		}
		order = append(order, fmt.Sprint(idAt)+pick("", " DESC")) // by ordinal: its name may be qualified
		where = append(where, fmt.Sprintf("%s < %d", id, 50+rng.Intn(500)))
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s ORDER BY %s%s",
			render(items), from, strings.Join(where, " AND "), strings.Join(order, ", "), limit), join
	}

	rng.Shuffle(len(groupable), func(i, j int) { groupable[i], groupable[j] = groupable[j], groupable[i] })
	groupable = groupable[:rng.Intn(len(groupable)+1)]
	var items []item
	for i, g := range groupable {
		items = append(items, item{g, pick("", fmt.Sprintf("g%d", i))})
	}
	aggs := []string{"COUNT(*)", "COUNT(" + amount + ")", "SUM(" + amount + ")", "MIN(" + id + ")", "MAX(" + amount + ")",
		"AVG(" + amount + ")", "AVG(" + id + ")", "SUM(" + amount + ") + 1", "COUNT(*) * 2", "MAX(" + id + ") - MIN(" + id + ")",
		"SUM(" + amount + ") / COUNT(*)"}
	rng.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
	for i, a := range aggs[:1+rng.Intn(3)] {
		items = append(items, item{a, pick("", fmt.Sprintf("a%d", i))})
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	q = fmt.Sprintf("SELECT %s FROM %s", render(items), from)
	if rng.Intn(3) == 0 {
		where = append(where, fmt.Sprintf("%s >= %d", id, rng.Intn(300)))
	}
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	if len(groupable) > 0 {
		q += " GROUP BY " + strings.Join(groupable, ", ")
	}
	if rng.Intn(3) == 0 {
		q += " HAVING " + pick("COUNT(*) > 1", "SUM("+amount+") > 5000", "MIN("+id+") < 2 OR MAX("+id+") > 590")
	}
	if len(groupable) == 0 {
		return q, join
	}
	var order []string
	for i, it := range items { // maybe an aggregate first, then every group column
		if strings.Contains(it.expr, "(") && len(order) == 0 && rng.Intn(2) == 0 {
			order = append(order, orderTerm(items, i)+pick("", " DESC"))
		}
	}
	for i, it := range items {
		if !strings.Contains(it.expr, "(") {
			order = append(order, orderTerm(items, i)+pick("", " DESC"))
		}
	}
	return q + " ORDER BY " + strings.Join(order, ", ") + limit, join
}

// TestParityGenerated runs generated statements of every shape the
// substitution rule admits, and a list of those it cannot express, on
// both clients: each must equal one engine over the same rows and take
// exactly the expected path — scatter; shuffle join where there is an
// exchange and gather where there is none; gather, once, for the rest.
func TestParityGenerated(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.form(fourNodes()[:3], 2, clusterfs.New())
		seedSales(t, c, 600, 0.5)
		// load creates a table of two string columns holding the given pairs.
		load := func(name, key, val string, opts TableOptions, pairs ...string) {
			t.Helper()
			schema := types.Schema{{Name: key, Kind: types.KindString}, {Name: val, Kind: types.KindString, Nullable: true}}
			if err := c.CreateTable(name, schema, opts); err != nil {
				t.Fatal(err)
			}
			var rows []types.Row
			for i := 0; i < len(pairs); i += 2 {
				rows = append(rows, types.Row{types.NewString(pairs[i]), types.NewString(pairs[i+1])})
			}
			if err := c.Insert(name, rows); err != nil {
				t.Fatal(err)
			}
		}
		// "west" has no region row: LEFT JOIN null-extends it. "nowhere" has
		// no sales: a LEFT JOIN preserving zones must not scatter.
		load("regions", "name", "manager", TableOptions{DistributeBy: "name"}, "north", "ada", "south", "bob", "east", "ada")
		load("zones", "region", "zone", TableOptions{Replicated: true},
			"north", "Z1", "south", "Z1", "east", "Z2", "west", "Z2", "nowhere", "Z3")
		ref := referenceOf(t, c)

		var want NetStats
		check := func(q string, path *uint64) *core.Result {
			t.Helper()
			one, err := ref.Exec(q)
			if err != nil {
				t.Fatalf("one engine %s: %v", q, err)
			}
			got, err := c.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			sameAnswer(t, q, got, one)
			*path++
			// A shuffle ships at most both tables whole; nothing else ships.
			st := c.Stats()
			if shipped := st.ShuffledRows - want.ShuffledRows; shipped > 0 && (path != &want.ShuffleJoins || shipped > 600+3) {
				t.Fatalf("%s\nshuffled %d rows", q, shipped)
			}
			if want.ShuffledRows = st.ShuffledRows; st != want {
				t.Fatalf("%s\ntook paths %+v, want %+v", q, st, want)
			}
			return got
		}
		for _, q := range []string{ // corners of the rule the generator does not draw
			"SELECT * FROM sales WHERE id < 5 ORDER BY id",
			"SELECT s.*, z.zone FROM sales s JOIN zones z ON s.region = z.region WHERE s.id < 5 ORDER BY 1",
			"SELECT region FROM sales GROUP BY region ORDER BY region",
			"SELECT region, COUNT(*) AS id FROM sales WHERE id < 250 GROUP BY region ORDER BY id DESC, region", // the alias, not sales.id
			"SELECT SUM(s.amount) AS t, s.region FROM sales s GROUP BY s.region ORDER BY SUM(amount) DESC, region",
			"SELECT UPPER(region), COUNT(*) FROM sales GROUP BY region ORDER BY 1",
			"SELECT region, CASE WHEN MIN(id) > 1 THEN 'late' ELSE 'early' END FROM sales GROUP BY region ORDER BY region",
			"SELECT MEAN(amount), COUNT(*) FROM sales WHERE region IN ('north', 'east')",
			"SELECT id, region FROM sales WHERE amount < 3 ORDER BY sales.region DESC, id LIMIT 4 OFFSET 2",
			// Sort keys the block does not select: final sorts by a hidden column.
			"SELECT region FROM sales GROUP BY region ORDER BY SUM(amount) + 1 DESC, COUNT(*)",
			"SELECT UPPER(region) AS k, SUM(amount) FROM sales GROUP BY region HAVING COUNT(*) > 1 ORDER BY region DESC",
		} {
			check(q, &want.FastPathQueries)
		}
		rng := rand.New(rand.NewSource(21))
		for i := 0; i < 120; i++ {
			q, join := genSelect(rng)
			switch {
			case !join:
				check(q, &want.FastPathQueries)
			case h.socket:
				check(q, &want.ShuffleJoins)
			default:
				check(q, &want.GatherPathQueries)
			}
		}
		if want.ShuffleJoins+want.GatherPathQueries < 10 || want.FastPathQueries < 50 {
			t.Fatalf("generator drew %+v: too few of one placement to mean anything", want)
		}
		for _, q := range []string{
			"SELECT id / 100, COUNT(*) FROM sales GROUP BY id / 100 ORDER BY 1",
			"SELECT COUNT(DISTINCT region) FROM sales",
			"SELECT MEDIAN(amount) FROM sales",
			"SELECT PERCENTILE_CONT(0.5) WITHIN GROUP (ORDER BY amount) FROM sales",
			"SELECT region, COUNT(*) FROM sales GROUP BY region HAVING COUNT(*) > (SELECT COUNT(*) FROM regions) ORDER BY region",
			"SELECT region, COUNT(*) FROM sales GROUP BY region ORDER BY (SELECT MAX(id) FROM sales), region",
			"SELECT id FROM sales ORDER BY amount, id LIMIT 3",
			"SELECT id + 1 FROM sales ORDER BY id + 1 LIMIT 3",
			"SELECT DISTINCT region FROM sales ORDER BY region",
			// Scattered, every shard would count Z3's unmatched row.
			"SELECT z.zone, COUNT(*) FROM zones z LEFT JOIN sales s ON z.region = s.region GROUP BY z.zone ORDER BY z.zone",
		} {
			check(q, &want.GatherPathQueries)
		}
		// ORDER BY after a set operation sorts the whole chain, which the
		// cluster and one engine agreeing would not show.
		const union = "SELECT region FROM sales WHERE id < 3 UNION ALL SELECT name FROM regions ORDER BY 1"
		if got := renderRows(check(union, &want.GatherPathQueries).Rows); got != "east\neast\nnorth\nnorth\nsouth\nsouth\n" {
			t.Errorf("%s\nnot the chain's rows in order:\n%s", union, got)
		}

		// A WHERE that pins the distribution key to a literal of its kind is
		// asked of the one shard holding the key — scattered all the same —
		// before and after a failover moves that shard.
		routed := []struct {
			q      string
			pinned bool
		}{
			{"SELECT id, region, amount FROM sales WHERE id = 17", true},
			{"SELECT amount FROM sales WHERE id = 100000", true}, // absent
			{"SELECT COUNT(*), SUM(amount), AVG(amount), MIN(region) FROM sales WHERE 42 = id", true},
			{"SELECT COUNT(*), AVG(amount) FROM sales WHERE id = 100001", true}, // absent: one shard's empty partials
			{"SELECT COUNT(*) FROM sales WHERE id = -3", false},                 // a negation, not a literal
			{"SELECT s.id, z.zone FROM sales s JOIN zones z ON s.region = z.region WHERE s.id = 7 AND s.amount > 1", true},
			{"SELECT manager FROM regions WHERE name = 'north'", true}, // a string key
			{"SELECT COUNT(*) FROM regions WHERE name = 'nowhere'", true},
			{"SELECT COUNT(*) FROM sales WHERE id = NULL", false},
			{"SELECT region FROM sales WHERE id = 17.0", false}, // not the key's kind: every shard, same answer
			{"SELECT region FROM sales WHERE id = 17 OR id = 18 ORDER BY region", false},
		}
		for _, failed := range []bool{false, true} {
			if failed {
				if err := c.FailNode("B"); err != nil {
					t.Fatal(err)
				}
				want.Failovers++
			}
			for _, r := range routed {
				shards := c.NShards()
				if r.pinned {
					shards = 1
				}
				if got := check(r.q, &want.FastPathQueries); got.Stats.Shards != shards {
					t.Errorf("%s (failed over: %v): asked %d shards, want %d", r.q, failed, got.Stats.Shards, shards)
				}
			}
		}
	})
}

// TestShuffleShipsFilteredStages: on a fixture shaped like the benchmark's
// join — a date cut on the fact, one sector of the dimension — the stages
// ship exactly the rows that pass their own conjuncts, where shipping both
// tables whole would send 1 200 + 40, and the answer is one engine's.
func TestShuffleShipsFilteredStages(t *testing.T) {
	c := (&harness{t: t, socket: true}).form(fourNodes()[:3], 2, clusterfs.New())
	const day0, cut = 14610, 14610 + 330
	if err := c.CreateTable("txns", types.Schema{
		{Name: "txn_id", Kind: types.KindInt},
		{Name: "account_id", Kind: types.KindInt},
		{Name: "txn_date", Kind: types.KindDate, Nullable: true},
		{Name: "amount", Kind: types.KindFloat, Nullable: true},
		{Name: "status", Kind: types.KindString, Nullable: true},
	}, TableOptions{DistributeBy: "txn_id"}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("accts", types.Schema{
		{Name: "account_id", Kind: types.KindInt},
		{Name: "sector", Kind: types.KindString, Nullable: true},
	}, TableOptions{DistributeBy: "account_id"}); err != nil {
		t.Fatal(err)
	}
	var txns, accts []types.Row
	recent := uint64(0)
	for i := int64(0); i < 1200; i++ {
		day := day0 + i%365
		if day >= cut {
			recent++
		}
		txns = append(txns, types.Row{types.NewInt(i), types.NewInt(i % 40), types.NewDate(day),
			types.NewFloat(float64(i % 50)), types.NewString([]string{"booked", "settled", "void"}[i%3])})
	}
	for i := int64(0); i < 40; i++ {
		accts = append(accts, types.Row{types.NewInt(i), types.NewString(fmt.Sprintf("s%d", i%8))})
	}
	if err := c.Insert("txns", txns); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("accts", accts); err != nil {
		t.Fatal(err)
	}
	q := "SELECT t.status, COUNT(*), SUM(t.amount) FROM txns t JOIN accts a ON t.account_id = a.account_id" +
		" WHERE t.txn_date >= DATE '" + types.NewDate(cut).String() + "' AND a.sector = 's3'" +
		" GROUP BY t.status ORDER BY t.status"
	one, err := referenceOf(t, c).Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, q, got, one)
	if st := c.Stats(); st.ShuffleJoins != 1 || st.ShuffledRows != recent+40/8 {
		t.Fatalf("took %+v, want one shuffle of %d fact rows and %d dimension rows", st, recent, 40/8)
	}
}

// TestParityNullJoinKeys: NULL join keys hash to partition 0 but must
// never match under SQL equality; LEFT JOIN must null-extend them.
// Parity against a single shard proves the shuffle preserves those
// semantics.
func TestParityNullJoinKeys(t *testing.T) {
	cols := parityColumns(t, NetNode{Cores: 4, MemBytes: 256 << 20})
	for _, c := range cols {
		if err := c.CreateTable("orders", types.Schema{
			{Name: "id", Kind: types.KindInt},
			{Name: "cust", Kind: types.KindString, Nullable: true},
		}, TableOptions{DistributeBy: "id"}); err != nil {
			t.Fatalf("create orders: %v", err)
		}
		if err := c.CreateTable("custs", types.Schema{
			{Name: "name", Kind: types.KindString, Nullable: true},
			{Name: "tier", Kind: types.KindInt},
		}, TableOptions{DistributeBy: "tier"}); err != nil {
			t.Fatalf("create custs: %v", err)
		}
		var orders []types.Row
		for i := 0; i < 60; i++ {
			cust := types.NewString(fmt.Sprintf("c%d", i%7))
			if i%5 == 0 {
				cust = types.Null // NULL join keys sprinkled through every shard
			}
			orders = append(orders, types.Row{types.NewInt(int64(i)), cust})
		}
		if err := c.Insert("orders", orders); err != nil {
			t.Fatalf("insert orders: %v", err)
		}
		var custs []types.Row
		for i := 0; i < 7; i++ {
			name := types.NewString(fmt.Sprintf("c%d", i))
			if i == 3 {
				name = types.Null // NULL on the build side too
			}
			custs = append(custs, types.Row{name, types.NewInt(int64(i))})
		}
		if err := c.Insert("custs", custs); err != nil {
			t.Fatalf("insert custs: %v", err)
		}
	}
	checkParity(t, cols, []string{
		"SELECT COUNT(*) AS n FROM orders o INNER JOIN custs c ON o.cust = c.name",
		"SELECT COUNT(*) AS n FROM orders o LEFT JOIN custs c ON o.cust = c.name",
		"SELECT o.cust, COUNT(*) AS n FROM orders o LEFT JOIN custs c ON o.cust = c.name GROUP BY o.cust ORDER BY 1",
	})
}

// TestParityUnderSpill starves every shard of the 3-shard columns (tiny
// node RAM → ~8KB sort/hash heaps) so sorts and joins spill mid-query,
// and checks the distributed answer still matches a comfortable single
// shard.
func TestParityUnderSpill(t *testing.T) {
	// ~56KB per shard slice → ~8KB SORTHEAP/HASHHEAP per shard.
	cols := parityColumns(t, NetNode{Cores: 2, MemBytes: 56 << 10})
	cols["1-shard"] = (&harness{t: t, socket: true}).form([]NetNode{{Name: "roomy", Cores: 4, MemBytes: 256 << 20}}, 1, clusterfs.New())
	for name, c := range cols {
		for _, a := range c.ShardAssigns() {
			if name != "1-shard" && a.SortHeap > 16<<10 {
				t.Fatalf("%s shard %d sort heap %d: test needs starved heaps", name, a.ID, a.SortHeap)
			}
		}
		seedSales(t, c, 2000, 0.5)
	}
	checkParity(t, cols, []string{
		"SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM sales GROUP BY region ORDER BY region",
		"SELECT id, amount FROM sales ORDER BY amount DESC, id LIMIT 25",
		"SELECT DISTINCT region FROM sales ORDER BY region",
	})
}

// TestTailAnswers pins, on one engine and through both clients, the
// statements whose ORDER BY bound wrongly or not at all while an
// aggregating block resolved it with a resolver of its own and a set
// operation had no tail: a sort key may be anything the block's own scope
// computes, and ORDER BY / FETCH FIRST after a UNION apply to the chain.
func TestTailAnswers(t *testing.T) {
	const x = "SELECT a FROM t WHERE a = 1"
	cases := []struct {
		q, want string // the rows, or a fragment of the error
		err     bool
	}{
		{q: "SELECT b FROM t GROUP BY b ORDER BY SUM(a)", want: "x z y"},
		{q: "SELECT b FROM t GROUP BY b ORDER BY SUM(a) DESC", want: "y z x"},
		{q: "SELECT b FROM t GROUP BY b ORDER BY COUNT(*) DESC, b", want: "x y z"},
		{q: "SELECT b, SUM(a) s FROM t GROUP BY b ORDER BY SUM(a)+1 DESC", want: "y,7 z,5 x,3"},
		{q: "SELECT b, SUM(a) s FROM t GROUP BY b ORDER BY -SUM(a)", want: "y,7 z,5 x,3"},
		{q: "SELECT SUM(a) FROM t GROUP BY b ORDER BY b DESC", want: "5 7 3"},
		{q: "SELECT UPPER(b) k, SUM(a) FROM t GROUP BY b ORDER BY b", want: "X,3 Y,7 Z,5"},
		{q: "SELECT b FROM t GROUP BY b HAVING COUNT(*)>1 ORDER BY MAX(c)", want: "x y"},
		{q: "SELECT DISTINCT a+1 FROM t ORDER BY a+1", want: "2 3 4 5 6"},
		{q: "SELECT COUNT(*) AS a, b FROM t GROUP BY b ORDER BY a, b", want: "1,z 2,x 2,y"}, // the alias, not t.a
		{q: "SELECT b, SUM(a) FROM t GROUP BY b ORDER BY a", want: "column A not found", err: true},
		{q: "SELECT SUM(a) FROM t ORDER BY b", want: "column B not found", err: true},
		{q: "SELECT DISTINCT b FROM t ORDER BY a", want: "cannot combine with DISTINCT", err: true},
		{q: "SELECT b, SUM(a) FROM t GROUP BY b ORDER BY 3", want: "ORDER BY ordinal 3 out of range", err: true},
		{q: "SELECT a AS k, c AS k FROM t ORDER BY k", want: `"K" is ambiguous`, err: true},
		{q: "SELECT a FROM t UNION ALL SELECT a FROM t ORDER BY a DESC FETCH FIRST 2 ROWS ONLY", want: "5 5"},
		{q: "SELECT a FROM t WHERE a<3 UNION ALL SELECT a FROM t WHERE a>3 ORDER BY 1 FETCH FIRST 1 ROWS ONLY", want: "1"},
		{q: x + " UNION " + x + " UNION ALL " + x, want: "1 1"},
		{q: x + " UNION ALL " + x + " UNION " + x, want: "1"},
		{q: "SELECT a FROM t UNION ALL SELECT c FROM t ORDER BY c", want: "column C not found", err: true},
	}
	schema := types.Schema{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindString, Nullable: true}, {Name: "c", Kind: types.KindInt, Nullable: true}}
	var rows []types.Row
	for i, b := range []string{"x", "x", "y", "y", "z"} {
		rows = append(rows, types.Row{types.NewInt(int64(i + 1)), types.NewString(b), types.NewInt([]int64{10, 20, 30, 5, 7}[i])})
	}
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.form(fourNodes()[:2], 2, clusterfs.New())
		if err := c.CreateTable("t", schema, TableOptions{DistributeBy: "a"}); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert("t", rows); err != nil {
			t.Fatal(err)
		}
		surfaces := map[string]func(string) (*core.Result, error){"one engine": referenceOf(t, c).Exec, "cluster": c.Query}
		for _, tc := range cases {
			for name, exec := range surfaces {
				r, err := exec(tc.q)
				switch {
				case tc.err && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Errorf("%s: %s: want error containing %q, got %v", name, tc.q, tc.want, err)
				case !tc.err && err != nil:
					t.Errorf("%s: %s: %v", name, tc.q, err)
				case !tc.err:
					got := strings.ReplaceAll(strings.ReplaceAll(strings.TrimSpace(renderRows(r.Rows)), "\t", ","), "\n", " ")
					if got != tc.want {
						t.Errorf("%s: %s: rows %s, want %s", name, tc.q, got, tc.want)
					}
				}
			}
		}
	})
}

// TestAggregateProbes: the three aggregate answers PR 23 changed read the
// same on one engine and through both cluster clients — an integer SUM whose
// total leaves int64 is an error (it wrapped to 1) and one whose total fits is
// exact; VAR_SAMP and STDDEV_POP survive a 1e9 offset (both read 0);
// COUNT(DISTINCT f) counts NaN once, as GROUP BY f does (it counted every
// NaN).
func TestAggregateProbes(t *testing.T) {
	schema := types.Schema{
		{Name: "a", Kind: types.KindInt},
		{Name: "i", Kind: types.KindInt},
		{Name: "j", Kind: types.KindInt},
		{Name: "x", Kind: types.KindFloat, Nullable: true},
		{Name: "f", Kind: types.KindFloat},
	}
	i := []int64{math.MaxInt64, math.MaxInt64, 1, 1, 1}
	j := []int64{math.MaxInt64 - 10, 3, 3, 3, 1} // total MaxInt64: no float holds it
	x := []types.Value{types.NewFloat(1e9 + 1), types.NewFloat(1e9 + 2), types.NewFloat(1e9 + 3), types.NullOf(types.KindFloat), types.NullOf(types.KindFloat)}
	f := []float64{math.NaN(), math.NaN(), 1.5, 2.5, 3.5}
	var rows []types.Row
	for k := range i {
		rows = append(rows, types.Row{types.NewInt(int64(k + 1)), types.NewInt(i[k]), types.NewInt(j[k]), x[k], types.NewFloat(f[k])})
	}
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.form(fourNodes()[:2], 2, clusterfs.New())
		if err := c.CreateTable("p", schema, TableOptions{DistributeBy: "a"}); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert("p", rows); err != nil {
			t.Fatal(err)
		}
		for name, exec := range map[string]func(string) (*core.Result, error){"one engine": referenceOf(t, c).Exec, "cluster": c.Query} {
			if _, err := exec("SELECT SUM(i) FROM p"); err == nil || !strings.Contains(err.Error(), "integer overflow in SUM") {
				t.Errorf("%s: SUM(i): err = %v, want integer overflow in SUM", name, err)
			}
			r, err := exec("SELECT SUM(j), AVG(i), VAR_SAMP(x), STDDEV_POP(x), COUNT(DISTINCT f) FROM p")
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := r.Rows[0]
			if got[0].Kind() != types.KindInt || got[0].Int() != math.MaxInt64 {
				t.Errorf("%s: SUM(j) = %v, want %d", name, got[0], int64(math.MaxInt64))
			}
			for col, want := range map[int]float64{1: 3689348814741910323.8, 2: 1, 3: 0.816496580927726} {
				if v := got[col].Float(); math.Abs(v-want) > 1e-9*want {
					t.Errorf("%s: column %d = %v, want %v", name, col, got[col], want)
				}
			}
			if got[4].Int() != 4 {
				t.Errorf("%s: COUNT(DISTINCT f) = %v, want 4", name, got[4])
			}
			if groups, err := exec("SELECT f, COUNT(*) FROM p GROUP BY f"); err != nil || len(groups.Rows) != 4 {
				t.Errorf("%s: GROUP BY f: %d groups, err %v", name, len(groups.Rows), err)
			}
		}
	})
}
