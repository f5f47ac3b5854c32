package bench

import (
	"fmt"
	"strings"
	"time"

	"dashdb/internal/clusterfs"
	"dashdb/internal/mpp"
	"dashdb/internal/shardrpc"
	"dashdb/internal/types"
)

// FigureMPP measures the distributed runtime (§II.E / Figure 9) with
// real processes-behind-sockets shards: a 3-node network cluster versus
// a single node, parity-checked bit for bit on distributed joins and
// aggregations, then an HA drill — one shard server is killed
// mid-workload and the remaining statements must complete on the
// survivors, whose per-shard memory budgets and DOP visibly shrink.
func FigureMPP(rows int) (string, error) {
	var b strings.Builder
	b.WriteString("F-MPP distributed runtime: shuffle parity and HA failover\n")

	single, singleServers, err := netClusterOf(1, 1)
	if err != nil {
		return "", err
	}
	defer closeNetCluster(single, singleServers)
	multi, servers, err := netClusterOf(3, 6)
	if err != nil {
		return "", err
	}
	defer closeNetCluster(multi, servers) // Close is idempotent: the drill's victim too

	for _, c := range []*mpp.NetCluster{single, multi} {
		if err := loadMPPTables(c, rows); err != nil {
			return "", err
		}
	}

	queries := []struct{ name, sql string }{
		{"scatter agg", "SELECT region, COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS a FROM fact GROUP BY region ORDER BY region"},
		{"shuffle join", "SELECT f.region, COUNT(*) AS n, SUM(f.amount) AS s FROM fact f INNER JOIN dim d ON f.region = d.name GROUP BY f.region ORDER BY f.region"},
		{"left join", "SELECT f.region, COUNT(*) AS n FROM fact f LEFT JOIN dim d ON f.region = d.name GROUP BY f.region ORDER BY f.region"},
		{"topk", "SELECT id, amount FROM fact ORDER BY amount DESC, id LIMIT 10"},
	}
	for _, q := range queries {
		t0 := time.Now()
		mres, err := multi.Query(q.sql)
		if err != nil {
			return "", fmt.Errorf("3-node %s: %w", q.name, err)
		}
		dMulti := time.Since(t0)
		t0 = time.Now()
		sres, err := single.Query(q.sql)
		if err != nil {
			return "", fmt.Errorf("1-node %s: %w", q.name, err)
		}
		dSingle := time.Since(t0)
		identical := rowsEqual(mres.Rows, sres.Rows)
		fmt.Fprintf(&b, "  %-12s 3-node %8v  1-node %8v  identical=%v\n",
			q.name, dMulti.Round(time.Microsecond), dSingle.Round(time.Microsecond), identical)
		if !identical {
			return "", fmt.Errorf("%s: distributed result diverged from single node", q.name)
		}
	}

	// HA drill: kill a server partway through a statement stream.
	fmt.Fprintf(&b, "  association before failure: %s\n", multi.Assignment())
	fmt.Fprintf(&b, "  per-shard budgets before:   %s\n", renderAssigns(multi.ShardAssigns()))
	const stream = 12
	completed := 0
	for i := 0; i < stream; i++ {
		if i == stream/3 {
			servers[1].Close() // node dies with the workload running
		}
		res, err := multi.Query("SELECT COUNT(*) AS n FROM fact")
		if err != nil {
			return "", fmt.Errorf("statement %d after node kill: %w", i, err)
		}
		if int(res.Rows[0][0].Int()) != rows {
			return "", fmt.Errorf("statement %d: count %s, want %d (rows lost in failover)", i, res.Rows[0][0], rows)
		}
		completed++
	}
	fmt.Fprintf(&b, "  killed 1 of 3 nodes mid-stream: %d/%d statements completed, zero rows lost\n", completed, stream)
	fmt.Fprintf(&b, "  association after failover: %s\n", multi.Assignment())
	fmt.Fprintf(&b, "  per-shard budgets after:    %s\n", renderAssigns(multi.ShardAssigns()))
	fmt.Fprintf(&b, "  paper: \"shard re-association... the surviving nodes divide up and perform the work of the failed node\" (Figure 9)\n")
	return b.String(), nil
}

// netClusterOf boots n in-process shard servers over one in-memory
// clustered filesystem plus a coordinator with nShards shards. On failure
// it closes the servers it started.
func netClusterOf(n, nShards int) (*mpp.NetCluster, []*shardrpc.Server, error) {
	fs := clusterfs.New()
	var servers []*shardrpc.Server
	var nodes []mpp.NetNode
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%c", 'A'+i)
		srv := shardrpc.NewServer(name, fs)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			closeNetCluster(nil, servers)
			return nil, nil, err
		}
		servers = append(servers, srv)
		nodes = append(nodes, mpp.NetNode{Name: name, Addr: srv.Addr(), Cores: 4, MemBytes: 256 << 20})
	}
	c, err := mpp.NewNetCluster(nodes, nShards, fs)
	if err != nil {
		closeNetCluster(nil, servers)
		return nil, nil, err
	}
	return c, servers, nil
}

// closeNetCluster closes a coordinator, if any, then its shard servers.
func closeNetCluster(c *mpp.NetCluster, servers []*shardrpc.Server) {
	if c != nil {
		c.Close()
	}
	for _, srv := range servers {
		srv.Close()
	}
}

func loadMPPTables(c *mpp.NetCluster, rows int) error {
	if err := c.CreateTable("fact", types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "region", Kind: types.KindString, Nullable: true},
		{Name: "amount", Kind: types.KindFloat, Nullable: true},
	}, mpp.TableOptions{DistributeBy: "id"}); err != nil {
		return err
	}
	if err := c.CreateTable("dim", types.Schema{
		{Name: "name", Kind: types.KindString},
		{Name: "pop", Kind: types.KindInt},
	}, mpp.TableOptions{DistributeBy: "pop"}); err != nil {
		return err
	}
	regions := []string{"north", "south", "east", "west", "axial"}
	batch := make([]types.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, types.Row{
			types.NewInt(int64(i)),
			types.NewString(regions[i%len(regions)]),
			types.NewFloat(float64(i%1000) + 0.25),
		})
	}
	if err := c.Insert("fact", batch); err != nil {
		return err
	}
	return c.Insert("dim", []types.Row{
		{types.NewString("north"), types.NewInt(10)},
		{types.NewString("south"), types.NewInt(20)},
		{types.NewString("east"), types.NewInt(30)},
		// "west"/"axial" intentionally unmatched for the LEFT JOIN.
	})
}

func rowsEqual(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if types.Compare(a[i][j], b[i][j]) != 0 {
				return false
			}
		}
	}
	return true
}

func renderAssigns(assigns []shardrpc.ShardAssign) string {
	var parts []string
	for _, a := range assigns {
		parts = append(parts, fmt.Sprintf("s%d[%dMB sort=%dKB hash=%dKB dop=%d]",
			a.ID, a.MemBytes>>20, a.SortHeap>>10, a.HashHeap>>10, a.Parallelism))
	}
	return strings.Join(parts, " ")
}
