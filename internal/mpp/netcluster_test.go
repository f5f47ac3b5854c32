package mpp

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dashdb/internal/clusterfs"
	"dashdb/internal/shardrpc"
	"dashdb/internal/types"
)

// The tests here need a shard server to kill, so they run on the socket
// client only; everything transport-independent is in cluster_test.go.

// startNetCluster boots n in-process shard servers over one clustered
// filesystem and a coordinator with nShards shards spread across them.
func startNetCluster(t *testing.T, n, nShards int) (*NetCluster, []*shardrpc.Server, *clusterfs.FS) {
	t.Helper()
	fs := clusterfs.New()
	var servers []*shardrpc.Server
	var nodes []NetNode
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%c", 'A'+i)
		srv := shardrpc.NewServer(name, fs)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
		nodes = append(nodes, NetNode{Name: name, Addr: srv.Addr(), Cores: 4, MemBytes: 256 << 20})
	}
	c, err := NewNetCluster(nodes, nShards, fs)
	if err != nil {
		t.Fatalf("NewNetCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c, servers, fs
}

// TestNetClusterFailover kills one server mid-workload: the survivors
// adopt its shards from clusterfs with reduced per-shard budgets and
// the interrupted statement completes.
func TestNetClusterFailover(t *testing.T) {
	c, servers, _ := startNetCluster(t, 3, 6)
	seedSales(t, c, 600, 0.5)

	before := c.ShardAssigns()

	// Kill node B's process outright — the coordinator has not been told.
	servers[1].Close()

	res, err := c.Query("SELECT region, COUNT(*) AS n FROM sales GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatalf("query after node death: %v", err)
	}
	total := int64(0)
	for _, r := range res.Rows {
		total += r[1].Int()
	}
	if total != 600 {
		t.Fatalf("post-failover count %d, want 600 (no rows lost)", total)
	}
	if st := c.Stats(); st.Failovers != 1 {
		t.Fatalf("failovers %d, want 1", st.Failovers)
	}
	if got := c.Assignment(); strings.Contains(got, "nodeB") {
		t.Fatalf("dead node still assigned: %s", got)
	}

	// Survivors host 3 shards each now, so per-shard budgets must shrink.
	after := c.ShardAssigns()
	shrunk := false
	for i := range after {
		if after[i].MemBytes < before[i].MemBytes || after[i].Parallelism < before[i].Parallelism {
			shrunk = true
		}
	}
	if !shrunk {
		t.Fatalf("per-shard budgets did not shrink after failover:\nbefore %+v\nafter  %+v", before, after)
	}

	// Inserts keep working against the new assignment.
	if err := c.Insert("sales", []types.Row{{types.NewInt(9999), types.NewString("north"), types.NewFloat(1.5)}}); err != nil {
		t.Fatalf("insert after failover: %v", err)
	}
	if n, err := c.Rows("sales"); err != nil || n != 601 {
		t.Fatalf("rows=%d err=%v", n, err)
	}
}

// TestNetClusterRowsFailover: a row count that meets a dead node fails the
// node over and asks the shards' new owners, like every other shard call.
func TestNetClusterRowsFailover(t *testing.T) {
	c, servers, _ := startNetCluster(t, 3, 6)
	seedSales(t, c, 600, 0.5)
	servers[1].Close()
	if n, err := c.Rows("sales"); err != nil || n != 600 {
		t.Fatalf("rows=%d err=%v across a node death, want 600", n, err)
	}
	if st := c.Stats(); st.Failovers != 1 {
		t.Fatalf("failovers %d, want 1", st.Failovers)
	}
}

// TestNetClusterInsertFailoverNoDuplicates kills a node WITHOUT telling
// the coordinator, then inserts: the first attempt lands on the live
// nodes and fails against the dead one, and the failover retry must
// re-send only the failed shards' buckets. Re-sending everything (the
// reviewed bug) duplicated rows on every shard that had already
// durably applied its bucket.
func TestNetClusterInsertFailoverNoDuplicates(t *testing.T) {
	c, servers, _ := startNetCluster(t, 3, 6)
	seedSales(t, c, 300, 0.5)

	servers[2].Close()

	var batch []types.Row
	for i := 300; i < 500; i++ {
		batch = append(batch, types.Row{
			types.NewInt(int64(i)),
			types.NewString("north"),
			types.NewFloat(1),
		})
	}
	if err := c.Insert("sales", batch); err != nil {
		t.Fatalf("insert across node death: %v", err)
	}
	if st := c.Stats(); st.Failovers != 1 {
		t.Fatalf("failovers %d, want 1", st.Failovers)
	}
	if n, err := c.Rows("sales"); err != nil || n != 500 {
		t.Fatalf("rows=%d err=%v, want exactly 500 (no duplicates, no losses)", n, err)
	}
	res, err := c.Query("SELECT COUNT(*) AS n FROM sales WHERE id >= 300")
	if err != nil || res.Rows[0][0].Int() != 200 {
		t.Fatalf("interrupted batch count %v err %v, want 200", res, err)
	}
}

// TestNetClusterIDsSeededRandomly: distributed query IDs key shuffle
// inboxes and DML tokens on shared long-lived servers, so two
// coordinator processes (or one restarted) must not mint the same IDs.
func TestNetClusterIDsSeededRandomly(t *testing.T) {
	a, _, _ := startNetCluster(t, 1, 1)
	b, _, _ := startNetCluster(t, 1, 1)
	if x, y := a.mintID(), b.mintID(); x == y {
		t.Fatalf("two coordinators minted the same ID %d", x)
	}
}

// TestNetClusterShuffleJoinFailoverDrops kills a node, runs a shuffle
// join (the statement completes on survivors via retry or gather
// fallback), and checks no shuffle inboxes linger on the surviving
// servers afterwards: the abandoned attempt's qid must be dropped
// cluster-wide, not accumulate for the process lifetime.
func TestNetClusterShuffleJoinFailoverDrops(t *testing.T) {
	c, servers, _ := startNetCluster(t, 3, 3)
	seedSales(t, c, 200, 0.5)
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
		{types.NewString("west"), types.NewString("dee")},
	}); err != nil {
		t.Fatalf("insert regions: %v", err)
	}

	servers[1].Close()

	res, err := c.Query("SELECT s.region, COUNT(*) AS n FROM sales s INNER JOIN regions r ON s.region = r.name GROUP BY s.region ORDER BY s.region")
	if err != nil {
		t.Fatalf("join after node death: %v", err)
	}
	total := int64(0)
	for _, r := range res.Rows {
		total += r[1].Int()
	}
	if total != 200 {
		t.Fatalf("post-failover join count %d, want 200", total)
	}
	// Both surviving routers must drain to zero inboxes: the failed
	// attempt's qid via the coordinator's drop broadcast, the successful
	// attempt's via per-partition drops (deferred past the reply, hence
	// the grace loop).
	for _, i := range []int{0, 2} {
		deadline := time.Now().Add(2 * time.Second)
		for servers[i].Router().InboxCount() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("server %d still holds %d shuffle inboxes", i, servers[i].Router().InboxCount())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// stmtRecorder is a shard client that records the shared wire bytes of
// every Exec.
type stmtRecorder struct {
	shardClient
	mu   sync.Mutex
	sent []*shardrpc.StmtWire
}

func (r *stmtRecorder) Exec(addr string, req shardrpc.ExecReq) (*shardrpc.Result, error) {
	r.mu.Lock()
	r.sent = append(r.sent, req.Wire)
	r.mu.Unlock()
	return r.shardClient.Exec(addr, req)
}

// distinct returns the calls recorded since the last call and how many
// distinct StmtWires they shared, failing on a call that shared none.
func (r *stmtRecorder) distinct(t *testing.T) (calls, stmts int) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[*shardrpc.StmtWire]bool{}
	for _, w := range r.sent {
		if w == nil {
			t.Fatal("a call encoded its statement alone")
		}
		seen[w] = true
	}
	calls, r.sent = len(r.sent), nil
	return calls, len(seen)
}

// TestShardStatementSharedByCalls: every call of a scatter, of a shuffle
// stage and of a broadcast sends its statement's one shared encoding.
func TestShardStatementSharedByCalls(t *testing.T) {
	c := (&harness{t: t, socket: true}).form(fourNodes()[:3], 2, clusterfs.New())
	seedSales(t, c, 600, 0)
	rec := &stmtRecorder{shardClient: c.client}
	c.client = rec
	for _, q := range []struct {
		sql          string
		calls, stmts int
	}{
		{"SELECT region, COUNT(*), AVG(amount) FROM sales GROUP BY region", 6, 1},
		{"SELECT COUNT(*) FROM sales a JOIN sales b ON a.region = b.region WHERE a.id < 20", 3 * 6, 3},
		{"DELETE FROM sales WHERE id < 10", 6, 1},
	} {
		if _, err := c.Query(q.sql); err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		if calls, stmts := rec.distinct(t); calls != q.calls || stmts != q.stmts {
			t.Errorf("%s: %d calls sent %d statements, want %d and %d", q.sql, calls, stmts, q.calls, q.stmts)
		}
	}
}

// BenchmarkScatterNoWork times the fixed cost of one scatter: a SELECT
// over 6 shards on 3 loopback servers whose scan skips every stride (its
// predicate lies outside every column frame, so no stride is visited),
// and what remains is the statement's encode, six round trips and the
// coordinator's final statement.
func BenchmarkScatterNoWork(b *testing.B) {
	c := (&harness{t: b, socket: true}).form(fourNodes()[:3], 2, clusterfs.New())
	seedSales(b, c, 12000, 0)
	const q = "SELECT id, amount FROM sales WHERE amount > 1000"
	res, err := c.Query(q)
	if err != nil || len(res.Rows) != 0 || res.Stats.Shards != 6 {
		b.Fatalf("%+v, err %v", res, err)
	}
	for _, op := range res.Stats.Ops {
		if op.HasScan && op.StridesVisited != 0 {
			b.Fatalf("%s: %d strides visited", op.Name, op.StridesVisited)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLongPredicateChain: a WHERE clause of 2 500 ORed terms, which the
// parser builds 2 500 BinaryOps deep, selects and deletes the same rows
// over in-process and socket shards.
func TestLongPredicateChain(t *testing.T) {
	forEachClient(t, func(t *testing.T, h *harness) {
		c := h.form(fourNodes()[:3], 2, clusterfs.New())
		seedSales(t, c, 600, 0)
		terms := make([]string, 2500)
		for i := range terms {
			terms[i] = fmt.Sprintf("id = %d", 3*i)
		}
		where := " WHERE " + strings.Join(terms, " OR ")
		res, err := c.Query("SELECT COUNT(*), SUM(id) FROM sales" + where)
		if err != nil {
			t.Fatalf("select: %v", err)
		}
		if n, sum := res.Rows[0][0].Int(), res.Rows[0][1].Int(); n != 200 || sum != 3*199*200/2 {
			t.Fatalf("select: %d rows summing to %d, want 200 and %d", n, sum, 3*199*200/2)
		}
		if res, err = c.Query("DELETE FROM sales" + where); err != nil {
			t.Fatalf("delete: %v", err)
		} else if res.RowsAffected != 200 {
			t.Fatalf("delete: %d rows, want 200", res.RowsAffected)
		}
		if res, err = c.Query("SELECT COUNT(*) FROM sales"); err != nil || res.Rows[0][0].Int() != 400 {
			t.Fatalf("after delete: %v, err %v; want 400 rows", res.Rows, err)
		}
	})
}
