package mpp

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dashdb/internal/clusterfs"
	"dashdb/internal/columnar"
	"dashdb/internal/core"
	"dashdb/internal/shardrpc"
	"dashdb/internal/vec"
)

// localShards is the in-process shard client: shard id -> engine opened
// on the shard's clusterfs file-set, called directly. Node addresses are
// ignored — an engine outlives the node label it is associated with, so
// re-association resizes it in place instead of moving it. Unlike a
// shard server it does not save table metadata to clusterfs after every
// write (nobody else will reopen the shard mid-run; Checkpoint does it
// on demand), which is what lets Table 1 run at in-process speed, and
// it has no shuffle exchange: the planner never places a statement on
// one here, so two-distributed-table joins gather.
type localShards struct {
	fs *clusterfs.FS

	mu      sync.RWMutex
	engines map[int]*localShard
}

type localShard struct {
	db    *core.DB
	grant shardrpc.ShardAssign
}

var errNoShuffle = errors.New("mpp: in-process shards have no shuffle exchange")

func newLocalShards(fs *clusterfs.FS) *localShards {
	return &localShards{fs: fs, engines: make(map[int]*localShard)}
}

func (l *localShards) engine(id int) (*core.DB, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	sh, ok := l.engines[id]
	if !ok {
		return nil, fmt.Errorf("mpp: shard %d not open", id)
	}
	return sh.db, nil
}

func (l *localShards) table(shardID int, name string) (*columnar.Table, error) {
	db, err := l.engine(shardID)
	if err != nil {
		return nil, err
	}
	tbl, ok := db.Table(name)
	if !ok {
		return nil, fmt.Errorf("mpp: shard %d missing table %s", shardID, name)
	}
	return tbl, nil
}

// all returns the engines in shard order.
func (l *localShards) all() []*core.DB {
	l.mu.RLock()
	defer l.mu.RUnlock()
	ids := make([]int, 0, len(l.engines))
	for id := range l.engines {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*core.DB, len(ids))
	for i, id := range ids {
		out[i] = l.engines[id].db
	}
	return out
}

func (l *localShards) Ping(string) (shardrpc.PingInfo, error) { return shardrpc.PingInfo{}, nil }

// Adopt opens a shard on first sight and otherwise resizes the live
// engine to the new grant; either way it then opens or creates the
// tables the coordinator knows about.
func (l *localShards) Adopt(_ string, req shardrpc.AdoptReq) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, a := range req.Shards {
		sh, ok := l.engines[a.ID]
		switch {
		case !ok:
			sh = &localShard{db: shardrpc.OpenShard(l.fs, a), grant: a}
			l.engines[a.ID] = sh
		case sh.grant != a:
			sh.db.Resize(int(a.MemBytes), a.SortHeap, a.HashHeap, a.Parallelism)
			sh.grant = a
		}
		if err := shardrpc.EnsureTables(sh.db, req.Tables); err != nil {
			return fmt.Errorf("mpp: shard %d: %w", a.ID, err)
		}
	}
	return nil
}

func (l *localShards) Release(string, []int) error { return nil }

func (l *localShards) Exec(_ string, req shardrpc.ExecReq) (*shardrpc.Result, error) {
	if req.Exchange != nil {
		return nil, errNoShuffle
	}
	db, err := l.engine(req.ShardID)
	if err != nil {
		return nil, err
	}
	sess := db.NewSession()
	sess.SetDialect(req.Dialect)
	var batches []*vec.Batch
	res, err := sess.StreamParsed(req.Stmt, func(b *vec.Batch) error {
		b.Disown() // held as the shard's result
		batches = append(batches, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &shardrpc.Result{
		Columns:      res.Columns,
		Kinds:        res.Kinds,
		Batches:      batches,
		RowsAffected: res.RowsAffected,
		Message:      res.Message,
		Stats:        res.Stats,
	}, nil
}

func (l *localShards) Insert(_ string, shardID int, table string, _ uint64, rows *shardrpc.Bucket) error {
	tbl, err := l.table(shardID, table)
	if err != nil {
		return err
	}
	return tbl.Append(rows.Batch)
}

func (l *localShards) RowCount(_ string, shardID int, table string) (int64, error) {
	tbl, err := l.table(shardID, table)
	if err != nil {
		return 0, err
	}
	return int64(tbl.SnapshotInfo().Rows), nil
}

func (l *localShards) DropShuffle(string, uint64) error { return nil }

func (l *localShards) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, sh := range l.engines {
		sh.db.Close() //nolint:errcheck — only removes the spill directory
		delete(l.engines, id)
	}
}
