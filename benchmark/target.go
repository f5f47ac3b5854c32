package main

import (
	"fmt"
	"time"

	"dashdb"
	"dashdb/internal/clusterfs"
	"dashdb/internal/core"
	"dashdb/internal/mem"
	"dashdb/internal/mpp"
	"dashdb/internal/shardrpc"
	"dashdb/internal/types"
)

// The four workloads. Each names the layers it is there to exercise; the
// README has the full table.
const (
	wlSerial      = "analytic_serial"
	wlConstrained = "analytic_constrained"
	wlMixed       = "mixed_ingest"
	wlCluster     = "cluster_analytic"
)

var workloadNames = []string{wlSerial, wlConstrained, wlMixed, wlCluster}

const (
	// defaultScale is the number of fact rows: the most at which 2 warm-up
	// and 20 measured rounds of the slowest workloads fit the time the
	// benchmark contract allows a run.
	defaultScale = 150_000

	// benchCores and benchRAM are the hardware every engine is configured
	// for, whatever host the benchmark lands on: auto-configuration would
	// otherwise size the pool, the heaps and the parallelism from the host.
	benchCores = 2
	benchRAM   = 8 << 30

	// constrainedHeap is SORTHEAP and HASHHEAP on analytic_constrained at
	// the default scale (other scales get their share): small enough that
	// the sorts of sort and topk (5.4 MiB in memory) and the hash table of
	// groupby (2.7 MiB) spill. Smaller heaps mostly add spill files (groupby
	// writes 3,100 a statement here, and six times as many at a quarter of
	// the heap), which makes the run a test of the host's file system. The
	// build side of join (a few hundred dimension rows, about 30 KiB) fits
	// either way: a heap small enough to spill it costs 40 times the
	// statement and most of the run (README, findings).
	constrainedHeap = 1 << 20
	// constrainedPoolShare is the buffer pool on analytic_constrained as a
	// share of the bytes the tables occupy, so scans keep missing it.
	constrainedPoolShare = 4

	clusterNodes  = 3
	clusterShards = 6
	clusterBatch  = 50_000 // rows per NetCluster.Insert call
	nodeRAM       = 2 << 30
)

// instance is one set-up system under test: a single-node engine or a
// three-server cluster, loaded with the dataset.
type instance struct {
	db     *dashdb.DB // single-node workloads
	reader *dashdb.Session
	writer *dashdb.Session // mixed_ingest

	cluster   *mpp.NetCluster // cluster_analytic
	servers   []*shardrpc.Server
	probe     *shardrpc.Pool // direct shard access, traced run only
	shardAddr []string       // shard id -> server address

	engines []*core.DB // every core engine behind the instance

	loadDur     time.Duration
	storedBytes int // pages + dictionaries + synopses of both tables
	dictBytes   int
}

// setUp creates and loads an instance. tmp hosts spill files.
func setUp(workload string, d *dataset, tmp string) (*instance, error) {
	if workload == wlCluster {
		return setUpCluster(d)
	}
	hw := dashdb.Hardware{Cores: benchCores, RAMBytes: benchRAM}
	opts := dashdb.Options{Hardware: &hw, TempDir: tmp}
	if workload == wlConstrained {
		heap := int64(d.scale) * constrainedHeap / defaultScale
		opts.SortHeapBytes, opts.HashHeapBytes = heap, heap
	}
	in := &instance{db: dashdb.Open(opts)}
	in.engines = []*core.DB{in.db.Engine()}
	in.reader = in.db.NewSession()
	if workload == wlMixed {
		in.writer = in.db.NewSession()
	}
	start := time.Now()
	for i, td := range d.tables {
		if _, err := in.db.Engine().CreateTable(td.Name, td.Schema); err != nil {
			in.close()
			return nil, err
		}
		if _, err := in.bulkLoad(td.Name, d.rows(i)); err != nil {
			in.close()
			return nil, err
		}
	}
	in.loadDur = time.Since(start)
	in.measureStorage(d)
	if workload == wlConstrained {
		// The pool's size follows from the bytes stored, so it can only
		// shrink once the load is done.
		in.db.Engine().Pool().Resize(in.storedBytes / constrainedPoolShare)
	}
	return in, nil
}

// bulkLoad appends rows through the public accumulate-then-flush loader and
// returns how many it appended.
func (in *instance) bulkLoad(table string, rows []types.Row) (int, error) {
	b, err := in.db.Bulk(table, dashdb.BulkOptions{})
	if err != nil {
		return 0, err
	}
	for _, r := range rows {
		if err := b.Add(r); err != nil {
			return 0, err
		}
	}
	return b.Finish()
}

func setUpCluster(d *dataset) (*instance, error) {
	in := &instance{probe: shardrpc.NewPool("bench-probe")}
	fs := clusterfs.New()
	var nodes []mpp.NetNode
	for i := 0; i < clusterNodes; i++ {
		name := fmt.Sprintf("node%c", 'A'+i)
		srv := shardrpc.NewServer(name, fs)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			in.close()
			return nil, err
		}
		in.servers = append(in.servers, srv)
		nodes = append(nodes, mpp.NetNode{Name: name, Addr: srv.Addr(), Cores: benchCores, MemBytes: nodeRAM})
	}
	c, err := mpp.NewNetCluster(nodes, clusterShards, fs)
	if err != nil {
		in.close()
		return nil, err
	}
	in.cluster = c
	start := time.Now()
	for i, td := range d.tables {
		// accounts is hash-distributed too, not replicated, so the join
		// class is not co-located and has to take the shuffle.
		if err := c.CreateTable(td.Name, td.Schema, mpp.TableOptions{DistributeBy: td.DistributeBy}); err != nil {
			in.close()
			return nil, err
		}
		rows := d.rows(i)
		for lo := 0; lo < len(rows); lo += clusterBatch {
			if err := c.Insert(td.Name, rows[lo:min(lo+clusterBatch, len(rows))]); err != nil {
				in.close()
				return nil, err
			}
		}
	}
	in.loadDur = time.Since(start)
	in.shardAddr = make([]string, clusterShards)
	for _, srv := range in.servers {
		for _, id := range srv.Shards() {
			if e, ok := srv.Engine(id); ok {
				in.engines = append(in.engines, e)
				in.shardAddr[id] = srv.Addr()
			}
		}
	}
	in.measureStorage(d)
	return in, nil
}

// measureStorage sums the compression reports of both tables over every
// engine. It reads each page through the buffer pool, so it runs before
// the pool counters' baseline is taken.
func (in *instance) measureStorage(d *dataset) {
	for _, e := range in.engines {
		for _, td := range d.tables {
			if t, ok := e.Table(td.Name); ok {
				r := t.Compression()
				in.storedBytes += r.CompressedBytes
				in.dictBytes += r.DictBytes
			}
		}
	}
}

func (in *instance) query(text string) (*core.Result, error) {
	if in.cluster != nil {
		return in.cluster.Query(text)
	}
	return in.reader.Query(text)
}

func (in *instance) close() {
	if in.cluster != nil {
		in.cluster.Close()
	}
	if in.probe != nil {
		in.probe.Close()
	}
	for _, s := range in.servers {
		s.Close()
	}
	if in.db != nil {
		in.db.Close()
	}
}

// engineConfig is the configuration actually applied, for the environment
// record.
type engineConfig struct {
	Engines        int   `json:"engines"`
	PoolBytes      int   `json:"pool_bytes"`
	SortHeapBytes  int64 `json:"sortheap_bytes"`
	HashHeapBytes  int64 `json:"hashheap_bytes"`
	Dop            int   `json:"dop"`
	MaxConcurrency int   `json:"max_concurrency"`
}

func (in *instance) config() engineConfig {
	e := in.engines[0]
	return engineConfig{
		Engines:        len(in.engines),
		PoolBytes:      e.Pool().Capacity(),
		SortHeapBytes:  e.MemBroker().Budget(mem.SortHeap),
		HashHeapBytes:  e.MemBroker().Budget(mem.HashHeap),
		Dop:            e.Config().Parallelism,
		MaxConcurrency: e.WLM().Limit(),
	}
}

// counters are the cumulative public counters of every layer, summed over
// the instance's engines; the harness reports their change over the
// measured rounds.
type counters struct {
	poolHits, poolMisses, poolEvictions, poolBytesIn uint64

	sortSpillBytes, hashSpillBytes, spillRuns, denials int64
	sortPeak, hashPeak                                 int64

	admitted, memoryStalls uint64
	queueWait              time.Duration

	epochs, drained, bulkFlushes uint64

	net mpp.NetStats
}

func (in *instance) counters() counters {
	var c counters
	for _, e := range in.engines {
		p := e.Pool().Stats()
		c.poolHits += p.Hits
		c.poolMisses += p.Misses
		c.poolEvictions += p.Evictions
		c.poolBytesIn += p.BytesIn
		heaps, _ := e.MemBroker().Stats()
		for _, h := range heaps {
			c.spillRuns += h.SpillRuns
			c.denials += h.Denials
			if h.Heap == mem.SortHeap {
				c.sortSpillBytes += h.SpillBytes
				c.sortPeak = max(c.sortPeak, h.PeakBytes)
			} else {
				c.hashSpillBytes += h.SpillBytes
				c.hashPeak = max(c.hashPeak, h.PeakBytes)
			}
		}
		w := e.WLM().Stats()
		c.admitted += w.Admitted
		c.memoryStalls += w.MemoryStalls
		c.queueWait += w.QueueWait
		if t, ok := e.Table("transactions"); ok {
			s := t.SnapshotInfo()
			c.epochs += s.Epoch
			c.drained += s.Drained
			c.bulkFlushes += s.BulkFlushes
		}
	}
	if in.cluster != nil {
		c.net = in.cluster.Stats()
	}
	return c
}

// behind is the number of superseded epochs old readers still pin, right
// now, on the fact table.
func (in *instance) behind() int {
	n := 0
	for _, e := range in.engines {
		if t, ok := e.Table("transactions"); ok {
			n += t.SnapshotInfo().Behind
		}
	}
	return n
}
