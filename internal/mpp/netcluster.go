// Package mpp implements the shared-nothing scale-out of Figure 2 and the
// elasticity/HA mechanics of §II.E and Figure 9. Data is hash-partitioned
// into a number of shards several factors larger than the number of
// servers; each shard is a full engine whose file-set lives on the
// clustered filesystem. The association of shards to nodes is the only
// mutable cluster state: failover, elastic shrink and elastic growth are
// all the same operation — re-associate shards over the current node set
// and recompute per-shard memory and parallelism.
package mpp

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dashdb/internal/clusterfs"
	"dashdb/internal/columnar"
	"dashdb/internal/core"
	"dashdb/internal/exec"
	"dashdb/internal/mem"
	"dashdb/internal/shardrpc"
	"dashdb/internal/sql"
	"dashdb/internal/telemetry"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// NetCluster is the MPP coordinator: catalog, DDL, hash routing, the
// distributed SELECT (plan.go: one plan cut at its exchanges, placed as
// scatter, shuffle join or gather; netquery.go: one runner), and the HA
// story — when a node dies, survivors adopt its shards with per-shard
// memory and parallelism scaled down, and the in-flight statement is sent
// again to the new owners (Figure 9). Its shards are hosted by
// shardrpc.Servers, reached through a shardClient whose transport the
// constructor decides: NewNetCluster and OpenNetCluster dial servers in
// separate OS processes sharing one clustered filesystem (the paper's §II.E
// deployment), NewCluster and Restore call one server in this process that
// never listens. Either way a statement is placed, exchanged and answered
// the same; only the write path differs, since only a listening server
// persists after every write (shardrpc.Server).
type NetCluster struct {
	mu      sync.RWMutex
	fs      *clusterfs.FS
	client  shardClient
	nodes   []*netNode
	nShards int
	assign  []int // shard -> node index, -1 = unassigned
	tables  map[string]*tableMeta
	nextID  uint32
	reg     *telemetry.Registry
	broker  *mem.Broker // the heaps of the coordinator's final statements
	stats   NetStats
	qid     atomic.Uint64 // randomly seeded; see newCluster
}

// shardClient is every call the coordinator makes on a shard host.
// *shardrpc.Pool serves it over sockets, addressed by NetNode.Addr;
// inProcess forwards it to one shardrpc.Server and ignores the address.
type shardClient interface {
	Ping(addr string) (shardrpc.PingInfo, error)
	Adopt(addr string, req shardrpc.AdoptReq) error
	Release(addr string, shards []int) error
	Exec(addr string, req shardrpc.ExecReq) (*shardrpc.Result, error)
	Insert(addr string, shardID int, table string, token uint64, rows *shardrpc.Bucket) error
	RowCount(addr string, shardID int, table string) (int64, error)
	DropShuffle(addr string, query uint64) error
	Close()
}

// inProcess is the shard client of an in-process cluster: one
// shardrpc.Server that never listens hosts every shard, whatever node it
// is associated with. A shard leaving a node therefore stays hosted, so
// Release is nothing and the Adopt that follows resizes it in place.
type inProcess struct{ srv *shardrpc.Server }

func newInProcess(fs *clusterfs.FS) inProcess {
	return inProcess{srv: shardrpc.NewServer("in-process", fs)}
}

func (p inProcess) Ping(string) (shardrpc.PingInfo, error) { return p.srv.Ping(), nil }

func (p inProcess) Adopt(_ string, req shardrpc.AdoptReq) error { return p.srv.Adopt(req) }

func (p inProcess) Release(string, []int) error { return nil }

func (p inProcess) Exec(_ string, req shardrpc.ExecReq) (*shardrpc.Result, error) {
	var sent int64
	res, err := core.Batched(func(emit func(*vec.Batch) error) (res *core.Result, err error) {
		res, sent, err = p.srv.Exec(req, emit)
		return res, err
	})
	if err != nil {
		return nil, err
	}
	return &shardrpc.Result{Result: *res, SentBytes: sent}, nil
}

func (p inProcess) Insert(_ string, shardID int, table string, token uint64, rows *shardrpc.Bucket) error {
	return p.srv.Insert(shardID, table, token, rows)
}

func (p inProcess) RowCount(_ string, shardID int, table string) (int64, error) {
	return p.srv.RowCount(shardID, table)
}

func (p inProcess) DropShuffle(_ string, query uint64) error {
	p.srv.Router().Drop(query)
	return nil
}

func (p inProcess) Close() { p.srv.Close() }

// NetNode describes one server host; Addr is its shard-server address
// and stays empty for in-process clusters, so every shuffle partition of
// one is delivered inside the process.
type NetNode struct {
	Name     string
	Addr     string
	Cores    int
	MemBytes int64
}

type netNode struct {
	spec  NetNode
	alive bool
}

// TableOptions control MPP table placement.
type TableOptions struct {
	// DistributeBy names the hash-distribution column. Empty selects the
	// first column.
	DistributeBy string
	// Replicated stores a full copy on every shard (dimension tables),
	// making joins against it co-located.
	Replicated bool
}

// tableMeta is the coordinator's view of one table.
type tableMeta struct {
	schema  types.Schema
	distCol int
	repl    bool
	id      uint32 // storage id, identical on every shard
}

// Per-shard memory shares, mirroring deploy.AutoConfigure (deploy
// imports mpp, so the fractions are restated here): of a shard's RAM
// slice, 40% buffer pool, 15% sort heap, 15% hash heap.
const (
	netBufferPoolShare = 0.40
	netSortHeapShare   = 0.15
	netHashHeapShare   = 0.15
)

// mintID mints a cluster-unique 64-bit ID (shuffle query IDs, DML
// idempotency tokens) off the randomly seeded counter.
func (c *NetCluster) mintID() uint64 { return c.qid.Add(1) }

// NetStats counts coordinator path selections and what crossed the wire:
// the rows shuffle stages sent and the bytes of the blocks they sent to
// other servers, and the rows and block bytes the coordinator pulled from
// the shards. In-process shards count rows, not bytes: their shuffles and
// pulls never leave the process.
type NetStats struct {
	FastPathQueries   uint64
	ShuffleJoins      uint64
	GatherPathQueries uint64
	Failovers         uint64
	Reshards          uint64
	ShuffledRows      uint64
	ShuffledBytes     uint64
	PulledRows        uint64
	PulledBytes       uint64
}

// NewNetCluster connects to running shard servers and bootstraps
// nShards shards across them. The servers must share fs (the same
// in-memory instance in-process, or the same OpenDir directory across
// processes).
func NewNetCluster(nodes []NetNode, nShards int, fs *clusterfs.FS) (*NetCluster, error) {
	if nShards < len(nodes) {
		nShards = len(nodes)
	}
	return newCluster(shardrpc.NewPool("coordinator"), nodes, shardrpc.Manifest{NShards: nShards}, fs)
}

// NewCluster forms a cluster whose shard engines live in this process, on
// one shardrpc.Server that never listens, shardsPerNode data shards per
// node (the paper: shard count "several factors larger than the number of
// servers, though not larger than the cumulative cores"). A nil fs
// selects a fresh in-memory filesystem.
func NewCluster(nodes []NetNode, shardsPerNode int, fs *clusterfs.FS) (*NetCluster, error) {
	if shardsPerNode < 1 {
		shardsPerNode = 1
	}
	totalCores := 0
	for _, n := range nodes {
		totalCores += n.Cores
	}
	nShards := len(nodes) * shardsPerNode
	if nShards > totalCores && totalCores > 0 {
		nShards = totalCores
	}
	if fs == nil {
		fs = clusterfs.New()
	}
	return newCluster(newInProcess(fs), nodes, shardrpc.Manifest{NShards: nShards}, fs)
}

// OpenNetCluster bootstraps a coordinator over an existing clustered
// filesystem: the manifest fixes shard count and tables (the node
// topology is free — the paper's portability story).
func OpenNetCluster(nodes []NetNode, fs *clusterfs.FS) (*NetCluster, error) {
	m, err := readManifest(fs)
	if err != nil {
		return nil, err
	}
	return newCluster(shardrpc.NewPool("coordinator"), nodes, m, fs)
}

// Restore is OpenNetCluster with the shard engines in this process: it
// builds a cluster over any node list from a checkpointed clustered
// filesystem (typically a Snapshot of the original).
func Restore(nodes []NetNode, fs *clusterfs.FS) (*NetCluster, error) {
	m, err := readManifest(fs)
	if err != nil {
		return nil, err
	}
	return newCluster(newInProcess(fs), nodes, m, fs)
}

// newCluster builds the coordinator over client and associates the
// manifest's shards and tables with nodes. It owns client: on failure
// the client is closed.
func newCluster(client shardClient, nodes []NetNode, m shardrpc.Manifest, fs *clusterfs.FS) (*NetCluster, error) {
	if len(nodes) == 0 {
		client.Close()
		return nil, fmt.Errorf("mpp: cluster needs at least one node")
	}
	c := &NetCluster{
		fs:      fs,
		client:  client,
		nShards: m.NShards,
		assign:  make([]int, m.NShards),
		tables:  make(map[string]*tableMeta),
		nextID:  1,
		reg:     telemetry.NewRegistry(telemetry.DefaultHistorySize),
		broker:  mem.NewBroker(0, 0, ""),
	}
	// Seed the ID counter with 64 random bits. The IDs key shuffle
	// inboxes and the DML applied log on shard servers that outlive this
	// process and may serve several coordinators at once, so a counter
	// from zero would collide across coordinator processes and restarts,
	// mixing one query's shuffle batches into another's join input.
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		c.qid.Store(binary.LittleEndian.Uint64(seed[:]))
	}
	for _, n := range nodes {
		c.nodes = append(c.nodes, &netNode{spec: n, alive: true})
	}
	for i := range c.assign {
		c.assign[i] = -1
	}
	for _, mt := range m.Tables {
		distCol := 0
		if mt.DistributeBy != "" {
			if i := mt.Schema.ColumnIndex(mt.DistributeBy); i >= 0 {
				distCol = i
			}
		}
		c.tables[strings.ToLower(mt.Name)] = &tableMeta{schema: mt.Schema, distCol: distCol, repl: mt.Replicated, id: mt.ID}
		if mt.ID >= c.nextID {
			c.nextID = mt.ID + 1
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rebalanceLocked()
	if err := c.pushAssignmentsLocked("bootstrap", nil); err != nil {
		client.Close()
		return nil, err
	}
	return c, nil
}

// Close shuts the shard client — the connection pool of a socket cluster
// (its servers keep running), the server of an in-process one, which
// persists its shards — and the coordinator's broker.
func (c *NetCluster) Close() {
	c.client.Close()
	c.broker.Close() //nolint:errcheck — only removes the spill directory
}

// FS exposes the clustered filesystem.
func (c *NetCluster) FS() *clusterfs.FS { return c.fs }

// ShardEngines returns an in-process cluster's shard engines in shard
// order (collocated analytics, monitoring), as its one server hosts them;
// nil for a socket cluster, whose engines live in the server processes.
func (c *NetCluster) ShardEngines() []*core.DB {
	p, ok := c.client.(inProcess)
	if !ok {
		return nil
	}
	var out []*core.DB
	for _, id := range p.srv.Shards() {
		if db, ok := p.srv.Engine(id); ok {
			out = append(out, db)
		}
	}
	return out
}

// Stats returns path-selection counters.
func (c *NetCluster) Stats() NetStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats
}

// NShards returns the shard count (fixed for the cluster's life).
func (c *NetCluster) NShards() int { return c.nShards }

// Nodes returns the specs of the currently alive nodes.
func (c *NetCluster) Nodes() []NetNode {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []NetNode
	for _, n := range c.nodes {
		if n.alive {
			out = append(out, n.spec)
		}
	}
	return out
}

// Assignment renders the current shard placement, e.g. "A:2 B:2".
func (c *NetCluster) Assignment() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	counts := make([]int, len(c.nodes))
	for _, ni := range c.assign {
		if ni >= 0 {
			counts[ni]++
		}
	}
	var parts []string
	for i, n := range c.nodes {
		if n.alive {
			parts = append(parts, fmt.Sprintf("%s:%d", n.spec.Name, counts[i]))
		}
	}
	sort.Strings(parts) // by node name, whatever order the nodes joined in
	return strings.Join(parts, " ")
}

// ShardAssigns returns every shard's resource grant (for monitoring and
// the Figure 9 experiment: heaps shrink when survivors host more
// shards).
func (c *NetCluster) ShardAssigns() []shardrpc.ShardAssign {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]shardrpc.ShardAssign, 0, c.nShards)
	for s := 0; s < c.nShards; s++ {
		out = append(out, c.shardAssignLocked(s))
	}
	return out
}

// Tables lists the cluster's tables in creation order (introspection
// and hybrid synchronization).
func (c *NetCluster) Tables() []shardrpc.TableSpec {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tableSpecsLocked()
}

// --- placement ---------------------------------------------------------------

// aliveLocked returns indices of alive nodes, in node order.
func (c *NetCluster) aliveLocked() []int {
	var out []int
	for i, n := range c.nodes {
		if n.alive {
			out = append(out, i)
		}
	}
	return out
}

// rebalanceLocked re-associates shards with minimal movement: shards
// with a dead (or removed) owner enter the pool; alive nodes above
// their quota give up their highest-numbered shards; pool shards go to
// nodes below quota. Deterministic given the same membership history.
func (c *NetCluster) rebalanceLocked() {
	alive := c.aliveLocked()
	if len(alive) == 0 {
		return
	}
	quota := make(map[int]int, len(alive))
	base, rem := c.nShards/len(alive), c.nShards%len(alive)
	for i, ni := range alive {
		quota[ni] = base
		if i < rem {
			quota[ni]++
		}
	}
	owned := make(map[int][]int) // node -> shards, ascending
	var pool []int
	for s := 0; s < c.nShards; s++ {
		ni := c.assign[s]
		if ni < 0 || !c.nodes[ni].alive {
			pool = append(pool, s)
			continue
		}
		owned[ni] = append(owned[ni], s)
	}
	for _, ni := range alive {
		for len(owned[ni]) > quota[ni] {
			last := owned[ni][len(owned[ni])-1]
			owned[ni] = owned[ni][:len(owned[ni])-1]
			pool = append(pool, last)
		}
	}
	sort.Ints(pool)
	for _, s := range pool {
		best, bestN := -1, 0
		for _, ni := range alive {
			if len(owned[ni]) < quota[ni] && (best < 0 || len(owned[ni]) < bestN) {
				best, bestN = ni, len(owned[ni])
			}
		}
		if best < 0 {
			best = alive[0]
		}
		owned[best] = append(owned[best], s)
		c.assign[s] = best
	}
	for ni, shards := range owned {
		for _, s := range shards {
			c.assign[s] = ni
		}
	}
}

// shardAssignLocked computes one shard's resource grant from its node's
// hardware divided by how many shards the node currently hosts — the
// mechanism that makes failover shrink per-shard heaps and DOP.
func (c *NetCluster) shardAssignLocked(shard int) shardrpc.ShardAssign {
	ni := c.assign[shard]
	if ni < 0 {
		return shardrpc.ShardAssign{ID: shard}
	}
	n := c.nodes[ni].spec
	count := 0
	for _, a := range c.assign {
		if a == ni {
			count++
		}
	}
	if count == 0 {
		count = 1
	}
	slice := n.MemBytes / int64(count)
	par := n.Cores / count
	if par < 1 {
		par = 1
	}
	return shardrpc.ShardAssign{
		ID:          shard,
		MemBytes:    int64(float64(slice) * netBufferPoolShare),
		SortHeap:    int64(float64(slice) * netSortHeapShare),
		HashHeap:    int64(float64(slice) * netHashHeapShare),
		Parallelism: par,
	}
}

func (c *NetCluster) tableSpecsLocked() []shardrpc.TableSpec {
	var out []shardrpc.TableSpec
	for name, meta := range c.tables {
		spec := shardrpc.TableSpec{Name: name, ID: meta.id, Schema: meta.schema, Replicated: meta.repl}
		if meta.distCol >= 0 && meta.distCol < len(meta.schema) {
			spec.DistributeBy = meta.schema[meta.distCol].Name
		}
		out = append(out, spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// pushAssignmentsLocked sends every alive node its full shard list with
// freshly computed budgets; released lists shards to drop per node
// (elastic moves). Adopt is idempotent, so re-sending the whole
// assignment is the simplest level-triggered protocol.
func (c *NetCluster) pushAssignmentsLocked(reason string, released map[int][]int) error {
	tables := c.tableSpecsLocked()
	perNode := make(map[int][]shardrpc.ShardAssign)
	for s := 0; s < c.nShards; s++ {
		ni := c.assign[s]
		if ni >= 0 && c.nodes[ni].alive {
			perNode[ni] = append(perNode[ni], c.shardAssignLocked(s))
		}
	}
	for ni, shards := range released {
		if !c.nodes[ni].alive {
			continue
		}
		if err := c.client.Release(c.nodes[ni].spec.Addr, shards); err != nil {
			return fmt.Errorf("mpp: release on %s: %w", c.nodes[ni].spec.Name, err)
		}
	}
	for ni, assigns := range perNode {
		err := c.client.Adopt(c.nodes[ni].spec.Addr, shardrpc.AdoptReq{Shards: assigns, Tables: tables, Reason: reason})
		if err != nil {
			return fmt.Errorf("mpp: adopt on %s: %w", c.nodes[ni].spec.Name, err)
		}
	}
	return nil
}

// addrOfLocked returns the owning server address for a shard.
func (c *NetCluster) addrOfLocked(shard int) (string, error) {
	ni := c.assign[shard]
	if ni < 0 || !c.nodes[ni].alive {
		return "", fmt.Errorf("mpp: shard %d has no alive owner", shard)
	}
	return c.nodes[ni].spec.Addr, nil
}

// shardAddrs snapshots shard -> server address.
func (c *NetCluster) shardAddrs() ([]string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, c.nShards)
	for s := 0; s < c.nShards; s++ {
		addr, err := c.addrOfLocked(s)
		if err != nil {
			return nil, err
		}
		out[s] = addr
	}
	return out, nil
}

// --- HA and elasticity -------------------------------------------------------

// FailNode marks a node dead and re-associates its shards across the
// survivors, which adopt them from clusterfs-persisted state with
// reduced per-shard budgets. The node's server process need not be
// reachable (that is the point).
func (c *NetCluster) FailNode(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var victim *netNode
	for _, n := range c.nodes {
		if strings.EqualFold(n.spec.Name, name) && n.alive {
			victim = n
		}
	}
	if victim == nil {
		return fmt.Errorf("mpp: no alive node %s", name)
	}
	if len(c.aliveLocked()) == 1 {
		return fmt.Errorf("mpp: failing %s leaves no alive nodes", name)
	}
	victim.alive = false
	c.stats.Failovers++
	c.rebalanceLocked()
	return c.pushAssignmentsLocked("failover", nil)
}

// AddNode grows the cluster: the new server adopts a proportional share
// of existing shards (their file-sets are already on the clustered
// filesystem), and every node's per-shard budgets grow accordingly.
func (c *NetCluster) AddNode(spec NetNode) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if strings.EqualFold(n.spec.Name, spec.Name) && n.alive {
			return fmt.Errorf("mpp: node %s already present", spec.Name)
		}
	}
	if _, err := c.client.Ping(spec.Addr); err != nil {
		return fmt.Errorf("mpp: new node %s unreachable: %w", spec.Name, err)
	}
	c.nodes = append(c.nodes, &netNode{spec: spec, alive: true})
	c.stats.Reshards++
	prev := append([]int(nil), c.assign...)
	c.rebalanceLocked()
	released := c.movedShardsLocked(prev)
	return c.pushAssignmentsLocked("grow", released)
}

// RemoveNode shrinks the cluster gracefully: the node's shards are
// released (persisting their state) and re-adopted by the remaining
// nodes.
func (c *NetCluster) RemoveNode(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := -1
	for i, n := range c.nodes {
		if strings.EqualFold(n.spec.Name, name) && n.alive {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("mpp: no alive node %s", name)
	}
	if len(c.aliveLocked()) == 1 {
		return fmt.Errorf("mpp: cannot remove the last node")
	}
	var owned []int
	for s, ni := range c.assign {
		if ni == idx {
			owned = append(owned, s)
		}
	}
	// Release first so the open strides are persisted before adoption.
	if err := c.client.Release(c.nodes[idx].spec.Addr, owned); err != nil {
		return fmt.Errorf("mpp: release on %s: %w", name, err)
	}
	c.nodes[idx].alive = false
	c.stats.Reshards++
	c.rebalanceLocked()
	return c.pushAssignmentsLocked("shrink", nil)
}

// movedShardsLocked diffs a previous assignment against the current
// one, returning oldNode -> shards that left it (for Release).
func (c *NetCluster) movedShardsLocked(prev []int) map[int][]int {
	released := make(map[int][]int)
	for s, old := range prev {
		if old >= 0 && old != c.assign[s] && c.nodes[old].alive {
			released[old] = append(released[old], s)
		}
	}
	return released
}

// handleNodeDeath converts a transport-level failure against a server
// address into a failover: mark that node dead, re-shard, and let the
// caller retry. Identified by the dialed address — not by current shard
// ownership, which a concurrent failover may already have changed.
// Returns false when the error is not transport-shaped or no node
// matches the address.
func (c *NetCluster) handleNodeDeath(addr string, err error) bool {
	if !shardrpc.IsTransient(err) {
		return false
	}
	c.mu.RLock()
	name, alive := "", false
	for _, n := range c.nodes {
		if n.spec.Addr == addr {
			name, alive = n.spec.Name, n.alive
		}
	}
	c.mu.RUnlock()
	if name == "" {
		return false
	}
	if !alive {
		return true // someone else already failed it; just retry
	}
	return c.FailNode(name) == nil
}

// round runs call once per listed shard, in parallel, against the shard's
// owner in addrs. With failover, a call that died with its node fails the
// node over and is not an error: died lists those shards, whose call may
// go to the new owner. err is the first error otherwise.
func (c *NetCluster) round(addrs []string, shards []int, failover bool, call func(shard int, addr string) error) (died []int, err error) {
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			errs[i] = call(s, addrs[s])
		}(i, s)
	}
	wg.Wait()
	for i, s := range shards {
		switch {
		case errs[i] == nil:
		case failover && c.handleNodeDeath(addrs[s], errs[i]):
			died = append(died, s)
		case err == nil:
			err = errs[i]
		}
	}
	return died, err
}

// eachShard is round with the one retry a failover earns: the calls that
// died with their node — only those; the others are done — go to the new
// owners. Broadcast DML, routed inserts and every shard statement of a
// SELECT without an exchange fan out through it.
func (c *NetCluster) eachShard(shards []int, call func(shard int, addr string) error) error {
	for attempt := 0; ; attempt++ {
		addrs, err := c.shardAddrs()
		if err != nil {
			return err
		}
		if shards, err = c.round(addrs, shards, attempt == 0, call); err != nil || len(shards) == 0 {
			return err
		}
	}
}

// allShards lists every shard id.
func (c *NetCluster) allShards() []int {
	out := make([]int, c.nShards)
	for s := range out {
		out[s] = s
	}
	return out
}

// --- DDL and DML -------------------------------------------------------------

// CreateTable registers a distributed table and creates its shard-local
// slices on every server.
func (c *NetCluster) CreateTable(name string, schema types.Schema, opts TableOptions) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := c.tables[key]; exists {
		return fmt.Errorf("mpp: table %s already exists", name)
	}
	distCol := 0
	if opts.DistributeBy != "" {
		distCol = schema.ColumnIndex(opts.DistributeBy)
		if distCol < 0 {
			return fmt.Errorf("mpp: distribution column %s not in schema", opts.DistributeBy)
		}
	}
	c.tables[key] = &tableMeta{schema: schema, distCol: distCol, repl: opts.Replicated, id: c.nextID}
	c.nextID++
	c.writeManifestLocked()
	return c.pushAssignmentsLocked("ddl", nil)
}

// DropTable removes a table cluster-wide.
func (c *NetCluster) DropTable(name string) error {
	c.mu.Lock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		c.mu.Unlock()
		return fmt.Errorf("mpp: table %s does not exist", name)
	}
	delete(c.tables, key)
	c.writeManifestLocked()
	c.mu.Unlock()
	st := &sql.DropStmt{Kind: "TABLE", Name: name}
	_, err := c.netBroadcast(st, sql.DialectANSI)
	return err
}

func (c *NetCluster) writeManifestLocked() {
	writeManifest(c.fs, shardrpc.Manifest{NShards: c.nShards, Tables: c.tableSpecsLocked()})
}

// tableMeta looks a table up in the coordinator catalog.
func (c *NetCluster) tableMeta(name string) (*tableMeta, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	meta, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("mpp: table %s does not exist", name)
	}
	return meta, nil
}

// TableSchema returns a cluster table's columns.
func (c *NetCluster) TableSchema(name string) (types.Schema, error) {
	meta, err := c.tableMeta(name)
	if err != nil {
		return nil, err
	}
	return meta.schema, nil
}

// Insert routes rows to shards by distribution-key hash; replicated
// tables receive every row on every shard. The rows become typed lanes
// once, before any shard is called, so a value the schema refuses refuses
// the whole statement and no shard applies a row. Each shard's bucket is
// the lanes under a selection of its rows (exec.Partition over the
// distribution lane, already coerced to the column's kind, which is the
// shard shardOf names). A node death mid-insert triggers failover and a
// retry that re-sends ONLY the buckets whose shard failed — shards that
// acknowledged the first attempt have their rows durably applied and must
// not see them again. For the failed shard itself, the per-statement token
// lets its adopter (which may have recovered state the dead node persisted
// just before losing the reply) acknowledge the resend without
// duplicating the bucket.
func (c *NetCluster) Insert(table string, rows []types.Row) error {
	meta, err := c.tableMeta(table)
	if err != nil {
		return err
	}
	b, err := columnar.LanesOf(meta.schema, rows)
	if err == nil {
		_, err = c.insert(table, meta, b)
	}
	return err
}

// insert conforms bs to the table's lanes, so a refused value refuses them
// all before any shard is called, and routes them as Insert describes.
func (c *NetCluster) insert(table string, meta *tableMeta, bs ...*vec.Batch) (int, error) {
	b, err := columnar.Conform(meta.schema, bs...)
	if err != nil || b.N == 0 {
		return 0, err
	}
	buckets := make([]*shardrpc.Bucket, c.nShards)
	if meta.repl {
		all := shardrpc.NewBucket(b) // one wire block for every shard
		for s := range buckets {
			buckets[s] = all
		}
	} else {
		key := []*vec.Vector{b.Col(meta.distCol)}
		sels := make([][]int, c.nShards)
		for i := range b.N {
			s := exec.Partition(key, i, c.nShards)
			sels[s] = append(sels[s], i)
		}
		for s, sel := range sels {
			if len(sel) > 0 {
				buckets[s] = shardrpc.NewBucket(b.WithSel(sel))
			}
		}
	}
	token := c.mintID()
	var loaded []int
	for s, k := range buckets {
		if k != nil {
			loaded = append(loaded, s)
		}
	}
	return b.N, c.eachShard(loaded, func(s int, addr string) error {
		return c.client.Insert(addr, s, table, token, buckets[s])
	})
}

// shardOf is the shard a row whose distribution column holds v lives on:
// the hash of v as the shard stores it, coerced to the column's kind.
func (c *NetCluster) shardOf(meta *tableMeta, v types.Value) int {
	if cv, err := types.Coerce(v, meta.schema[meta.distCol].Kind); err == nil {
		v = cv
	}
	return int(v.Hash() % uint64(c.nShards))
}

// Rows returns a table's cluster-wide live row count.
func (c *NetCluster) Rows(table string) (int, error) {
	meta, err := c.tableMeta(table)
	if err != nil {
		return 0, err
	}
	shards := c.allShards()
	if meta.repl {
		shards = shards[:1]
	}
	var total atomic.Int64
	err = c.eachShard(shards, func(s int, addr string) error {
		n, err := c.client.RowCount(addr, s, table)
		total.Add(n)
		return err
	})
	return int(total.Load()), err
}
