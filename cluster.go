package dashdb

import (
	"sync"
	"time"

	"dashdb/internal/clusterfs"
	"dashdb/internal/deploy"
	"dashdb/internal/mpp"
	"dashdb/internal/spark"
)

// NodeSpec describes one cluster server. Addr is its shard-server
// address (ConnectCluster); in-process clusters leave it empty.
type NodeSpec = mpp.NetNode

// TableOptions control MPP table placement.
type TableOptions = mpp.TableOptions

// Cluster is an MPP dashDB Local cluster: one coordinator over shard
// engines that live either in this process (Deploy, NewCluster, Restore)
// or behind shard servers (ConnectCluster).
type Cluster struct {
	inner *mpp.NetCluster
	// DeployTime is the simulated wall-clock time the deployment took
	// (the paper's < 30 minutes claim, experiment F-A).
	DeployTime time.Duration
	// Timeline is the per-phase deployment schedule.
	Timeline deploy.Timeline

	sparkOnce  sync.Once
	dispatcher *spark.Dispatcher
}

// HostSpec describes one deployment host for Deploy.
type HostSpec struct {
	Name     string
	Cores    int
	RAMBytes int64
}

// Deploy simulates the paper's one-command cluster deployment: pull the
// dashDB Local image to every host, start containers, auto-configure each
// engine from its hardware, and form the MPP cluster over a simulated
// clustered filesystem. The returned cluster is immediately usable.
func Deploy(hosts []HostSpec) (*Cluster, error) {
	reg := deploy.NewRegistry()
	reg.Push(deploy.Image{Name: "dashdb-local", Version: "1.0", SizeBytes: 4 << 30})
	var dh []*deploy.Host
	for _, h := range hosts {
		dh = append(dh, deploy.NewHost(h.Name, deploy.Hardware{
			Cores:        h.Cores,
			RAMBytes:     h.RAMBytes,
			StorageBytes: 1 << 40,
		}))
	}
	dep, err := deploy.DeployCluster(reg, dh, "dashdb-local", "1.0", clusterfs.New())
	if err != nil {
		return nil, err
	}
	return &Cluster{
		inner:      dep.Cluster,
		DeployTime: dep.Timeline.Total(),
		Timeline:   dep.Timeline,
	}, nil
}

// NewCluster forms a cluster directly (no deployment simulation): the
// programmatic path used by tests and benchmarks.
func NewCluster(nodes []NodeSpec, shardsPerNode int) (*Cluster, error) {
	c, err := mpp.NewCluster(nodes, shardsPerNode, clusterfs.New())
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: c}, nil
}

// Exec parses and executes a SQL statement cluster-wide (ANSI dialect).
func (c *Cluster) Exec(sqlText string) (*Result, error) { return c.inner.Query(sqlText) }

// ExecDialect is Exec under an explicit dialect.
func (c *Cluster) ExecDialect(sqlText string, d Dialect) (*Result, error) {
	return c.inner.QueryDialect(sqlText, d)
}

// CreateTable creates a table with explicit placement (distribution key
// or replication), which the SQL path cannot express.
func (c *Cluster) CreateTable(name string, schema Schema, opts TableOptions) error {
	return c.inner.CreateTable(name, schema, opts)
}

// Insert routes rows to shards by the table's distribution key.
func (c *Cluster) Insert(table string, rows []Row) error { return c.inner.Insert(table, rows) }

// Rows returns a table's cluster-wide live row count.
func (c *Cluster) Rows(table string) (int, error) { return c.inner.Rows(table) }

// Assignment renders the current shard→node balance, e.g. "A:6 B:6 C:6".
func (c *Cluster) Assignment() string { return c.inner.Assignment() }

// FailNode simulates a server failure: its shards re-associate across the
// survivors (Figure 9) and queries keep working.
func (c *Cluster) FailNode(name string) error { return c.inner.FailNode(name) }

// RemoveNode performs elastic contraction.
func (c *Cluster) RemoveNode(name string) error { return c.inner.RemoveNode(name) }

// AddNode performs elastic growth or reinstates a repaired node; on a
// connected cluster spec.Addr names the running shard server to grow onto.
func (c *Cluster) AddNode(spec NodeSpec) error { return c.inner.AddNode(spec) }

// Internal exposes the MPP layer for advanced integrations.
func (c *Cluster) Internal() *mpp.NetCluster { return c.inner }

// Spark returns (starting on first use) the integrated analytics runtime:
// the dispatcher with per-user cluster managers and one worker per shard
// of §II.D, on an in-process cluster and a connected one alike.
func (c *Cluster) Spark() *spark.Dispatcher {
	c.sparkOnce.Do(func() { c.dispatcher = spark.NewDispatcher(c.inner) })
	return c.dispatcher
}

// Close releases the shard engines (in-process) or the connections to
// the shard servers, which keep running.
func (c *Cluster) Close() { c.inner.Close() }

// Checkpoint persists every table (pages were already on the clustered
// filesystem; this adds dictionaries, synopses and counters) plus a
// cluster manifest, enabling Restore.
func (c *Cluster) Checkpoint() error { return c.inner.Checkpoint() }

// FSSnapshot deep-copies the clustered filesystem — the transport unit of
// §II.E's portability story ("copy the filesystem, deploy anywhere").
func (c *Cluster) FSSnapshot() *clusterfs.FS { return c.inner.FS().Snapshot() }

// Restore builds a cluster over any node topology from a checkpointed
// clustered filesystem (usually an FSSnapshot of another cluster).
func Restore(nodes []NodeSpec, fs *clusterfs.FS) (*Cluster, error) {
	inner, err := mpp.Restore(nodes, fs)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// ConnectCluster forms a coordinator over running shard servers
// (dashdb-local -shard-listen) that share the clustered filesystem fs:
// queries scatter over RPC, distributed joins run through the
// partitioned-hash shuffle, and node deaths fail over onto the survivors
// (§II.E, Figure 9). When fs already holds a manifest the existing
// tables (and shard count) are restored; otherwise a fresh cluster with
// nShards shards is bootstrapped.
func ConnectCluster(nodes []NodeSpec, nShards int, fs *clusterfs.FS) (*Cluster, error) {
	inner, err := mpp.OpenNetCluster(nodes, fs)
	if err != nil {
		inner, err = mpp.NewNetCluster(nodes, nShards, fs)
		if err != nil {
			return nil, err
		}
	}
	return &Cluster{inner: inner}, nil
}
