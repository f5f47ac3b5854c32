package core

import (
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// System catalog views, in the spirit of the product's web console and
// DB2's SYSCAT: queryable metadata about tables, storage and the engine
// configuration. Registered as nicknames at Open so they behave like
// ordinary relations:
//
//	SELECT * FROM SYSCAT_TABLES
//	SELECT * FROM SYSCAT_CONFIG
//	SELECT * FROM SYSCAT_BUFFERPOOL
//
// The MON_* family exposes the telemetry subsystem the same way, modeled
// on DB2's MON_GET_* table functions:
//
//	SELECT * FROM MON_QUERY_HISTORY
//	SELECT * FROM MON_OPERATOR_STATS
//	SELECT * FROM MON_BUFFERPOOL
//	SELECT * FROM MON_WLM
//	SELECT * FROM MON_MEMORY
//	SELECT * FROM MON_COMPRESSION
//	SELECT * FROM MON_SNAPSHOTS

// syscatTables lists base tables with row counts and storage.
type syscatTables struct{ db *DB }

func (s *syscatTables) Schema() types.Schema {
	return types.Schema{
		{Name: "table_name", Kind: types.KindString},
		{Name: "row_count", Kind: types.KindInt},
		{Name: "raw_bytes", Kind: types.KindInt},
		{Name: "compressed_bytes", Kind: types.KindInt},
		{Name: "compression_ratio", Kind: types.KindFloat},
	}
}

func (s *syscatTables) rows() ([]types.Row, error) {
	var out []types.Row
	for _, name := range s.db.cat.TableNames() {
		t, ok := s.db.cat.Table(name)
		if !ok {
			continue
		}
		c := t.Compression()
		out = append(out, types.Row{
			types.NewString(name),
			types.NewInt(int64(t.SnapshotInfo().Rows)),
			types.NewInt(int64(c.RawBytes)),
			types.NewInt(int64(c.CompressedBytes)),
			types.NewFloat(c.Ratio),
		})
	}
	return out, nil
}

// syscatConfig exposes the engine's (auto-derived) configuration.
type syscatConfig struct{ db *DB }

func (s *syscatConfig) Schema() types.Schema {
	return types.Schema{
		{Name: "name", Kind: types.KindString},
		{Name: "value", Kind: types.KindInt},
	}
}

func (s *syscatConfig) rows() ([]types.Row, error) {
	cfg := s.db.Config()
	wlmStats := s.db.wlm.Stats()
	tot := s.db.reg.Totals()
	entries := []struct {
		name string
		val  int64
	}{
		{"buffer_pool_bytes", int64(cfg.BufferPoolBytes)},
		{"parallelism", int64(cfg.Parallelism)},
		{"max_concurrent_queries", int64(cfg.MaxConcurrentQueries)},
		{"wlm_admitted", int64(wlmStats.Admitted)},
		{"wlm_queued", int64(wlmStats.Queued)},
		{"wlm_rejected", int64(wlmStats.Rejected)},
		{"wlm_peak_concurrency", wlmStats.Peak},
		{"queries_executed", int64(tot.Queries)},
		{"queries_failed", int64(tot.Failed)},
		{"slow_queries", int64(tot.Slow)},
	}
	out := make([]types.Row, len(entries))
	for i, e := range entries {
		out[i] = types.Row{types.NewString(e.name), types.NewInt(e.val)}
	}
	return out, nil
}

// syscatBufferPool exposes cache effectiveness counters.
type syscatBufferPool struct{ db *DB }

func (s *syscatBufferPool) Schema() types.Schema {
	return types.Schema{
		{Name: "metric", Kind: types.KindString},
		{Name: "value", Kind: types.KindFloat},
	}
}

func (s *syscatBufferPool) rows() ([]types.Row, error) {
	st := s.db.pool.Stats()
	return []types.Row{
		{types.NewString("hits"), types.NewFloat(float64(st.Hits))},
		{types.NewString("misses"), types.NewFloat(float64(st.Misses))},
		{types.NewString("evictions"), types.NewFloat(float64(st.Evictions))},
		{types.NewString("hit_ratio"), types.NewFloat(st.HitRatio())},
		{types.NewString("bytes_in"), types.NewFloat(float64(st.BytesIn))},
		{types.NewString("pages_cached"), types.NewFloat(float64(s.db.pool.Len()))},
		{types.NewString("used_bytes"), types.NewFloat(float64(s.db.pool.UsedBytes()))},
		{types.NewString("capacity_bytes"), types.NewFloat(float64(s.db.pool.Capacity()))},
	}, nil
}

// monQueryHistory exposes the bounded query-history ring: one row per
// completed query, newest last. Slow queries carry their full EXPLAIN
// ANALYZE text in the plan column.
type monQueryHistory struct{ db *DB }

func (m *monQueryHistory) Schema() types.Schema {
	return types.Schema{
		{Name: "query_id", Kind: types.KindInt},
		{Name: "sql_text", Kind: types.KindString},
		{Name: "start_time", Kind: types.KindTimestamp},
		{Name: "elapsed_ms", Kind: types.KindFloat},
		{Name: "rows_returned", Kind: types.KindInt},
		{Name: "dop", Kind: types.KindInt},
		{Name: "shards", Kind: types.KindInt},
		{Name: "status", Kind: types.KindString},
		{Name: "error", Kind: types.KindString},
		{Name: "slow", Kind: types.KindBool},
		{Name: "plan", Kind: types.KindString},
	}
}

func (m *monQueryHistory) rows() ([]types.Row, error) {
	hist := m.db.reg.History()
	out := make([]types.Row, 0, len(hist))
	for _, q := range hist {
		out = append(out, types.Row{
			types.NewInt(int64(q.ID)),
			types.NewString(q.SQL),
			types.NewTimestamp(q.Start.UnixMicro()),
			types.NewFloat(float64(q.Elapsed) / 1e6),
			types.NewInt(q.Rows),
			types.NewInt(int64(q.Dop)),
			types.NewInt(int64(q.Shards)),
			types.NewString(q.Status),
			types.NewString(q.Err),
			types.NewBool(q.Slow),
			types.NewString(q.Plan),
		})
	}
	return out, nil
}

// monOperatorStats explodes the history into one row per plan operator:
// where the rows and the time went, per query.
type monOperatorStats struct{ db *DB }

func (m *monOperatorStats) Schema() types.Schema {
	return types.Schema{
		{Name: "query_id", Kind: types.KindInt},
		{Name: "op_seq", Kind: types.KindInt},
		{Name: "depth", Kind: types.KindInt},
		{Name: "operator", Kind: types.KindString},
		{Name: "rows_out", Kind: types.KindInt},
		{Name: "batches", Kind: types.KindInt},
		{Name: "elapsed_ms", Kind: types.KindFloat},
		{Name: "strides_visited", Kind: types.KindInt},
		{Name: "strides_skipped", Kind: types.KindInt},
		{Name: "skip_pct", Kind: types.KindFloat},
	}
}

func (m *monOperatorStats) rows() ([]types.Row, error) {
	var out []types.Row
	for _, q := range m.db.reg.History() {
		for _, op := range q.Ops {
			out = append(out, types.Row{
				types.NewInt(int64(q.ID)),
				types.NewInt(int64(op.Seq)),
				types.NewInt(int64(op.Depth)),
				types.NewString(op.Name),
				types.NewInt(op.Rows),
				types.NewInt(op.Batches),
				types.NewFloat(float64(op.Wall) / 1e6),
				types.NewInt(op.StridesVisited),
				types.NewInt(op.StridesSkipped),
				types.NewFloat(op.SkipRatio() * 100),
			})
		}
	}
	return out, nil
}

// monBufferPool is the buffer pool's live counters as a single wide row
// (the SYSCAT metric/value view remains for compatibility).
type monBufferPool struct{ db *DB }

func (m *monBufferPool) Schema() types.Schema {
	return types.Schema{
		{Name: "hits", Kind: types.KindInt},
		{Name: "misses", Kind: types.KindInt},
		{Name: "evictions", Kind: types.KindInt},
		{Name: "hit_ratio", Kind: types.KindFloat},
		{Name: "bytes_in", Kind: types.KindInt},
		{Name: "pages_cached", Kind: types.KindInt},
		{Name: "used_bytes", Kind: types.KindInt},
		{Name: "capacity_bytes", Kind: types.KindInt},
	}
}

func (m *monBufferPool) rows() ([]types.Row, error) {
	st := m.db.pool.Stats()
	return []types.Row{{
		types.NewInt(int64(st.Hits)),
		types.NewInt(int64(st.Misses)),
		types.NewInt(int64(st.Evictions)),
		types.NewFloat(st.HitRatio()),
		types.NewInt(int64(st.BytesIn)),
		types.NewInt(int64(m.db.pool.Len())),
		types.NewInt(int64(m.db.pool.UsedBytes())),
		types.NewInt(int64(m.db.pool.Capacity())),
	}}, nil
}

// monWLM is the workload manager's admission counters as a single row.
type monWLM struct{ db *DB }

func (m *monWLM) Schema() types.Schema {
	return types.Schema{
		{Name: "admitted", Kind: types.KindInt},
		{Name: "queued", Kind: types.KindInt},
		{Name: "rejected", Kind: types.KindInt},
		{Name: "active", Kind: types.KindInt},
		{Name: "waiting", Kind: types.KindInt},
		{Name: "peak_concurrency", Kind: types.KindInt},
		{Name: "concurrency_limit", Kind: types.KindInt},
		{Name: "queue_wait_ms", Kind: types.KindFloat},
	}
}

func (m *monWLM) rows() ([]types.Row, error) {
	st := m.db.wlm.Stats()
	return []types.Row{{
		types.NewInt(int64(st.Admitted)),
		types.NewInt(int64(st.Queued)),
		types.NewInt(int64(st.Rejected)),
		types.NewInt(st.Active),
		types.NewInt(st.Waiting),
		types.NewInt(st.Peak),
		types.NewInt(int64(m.db.wlm.Limit())),
		types.NewFloat(float64(st.QueueWait) / 1e6),
	}}, nil
}

// monMemory is the memory governor's per-heap counters: one row per heap
// (SORTHEAP, HASHHEAP) with budget, live usage, peak, grant/denial counts
// and cumulative spill activity, plus the active-reservation count.
type monMemory struct{ db *DB }

func (m *monMemory) Schema() types.Schema {
	return types.Schema{
		{Name: "heap", Kind: types.KindString},
		{Name: "budget_bytes", Kind: types.KindInt},
		{Name: "used_bytes", Kind: types.KindInt},
		{Name: "peak_bytes", Kind: types.KindInt},
		{Name: "grants", Kind: types.KindInt},
		{Name: "denials", Kind: types.KindInt},
		{Name: "spill_runs", Kind: types.KindInt},
		{Name: "spill_bytes", Kind: types.KindInt},
		{Name: "active_reservations", Kind: types.KindInt},
		{Name: "memory_stalls", Kind: types.KindInt},
	}
}

func (m *monMemory) rows() ([]types.Row, error) {
	heaps, active := m.db.broker.Stats()
	stalls := int64(m.db.wlm.Stats().MemoryStalls)
	out := make([]types.Row, 0, len(heaps))
	for _, h := range heaps {
		out = append(out, types.Row{
			types.NewString(h.Heap.String()),
			types.NewInt(h.BudgetBytes),
			types.NewInt(h.UsedBytes),
			types.NewInt(h.PeakBytes),
			types.NewInt(h.Grants),
			types.NewInt(h.Denials),
			types.NewInt(h.SpillRuns),
			types.NewInt(h.SpillBytes),
			types.NewInt(active),
			types.NewInt(stalls),
		})
	}
	return out, nil
}

// monCompression is the storage compression monitor: one row per
// (table, column) with the column's encoder kind, dictionary cardinality
// and code width, plus the owning table's page/dictionary/synopsis byte
// breakdown and overall compression ratio, then the column's own page
// bytes (they sum to the table's), the codes its sealed pages keep as
// exceptions to their packed width, and how many of those pages code
// codes that never descend against a line. Dictionary columns with a
// non-zero cardinality are exactly those eligible for
// operate-on-compressed-data execution (floats excepted).
type monCompression struct{ db *DB }

func (m *monCompression) Schema() types.Schema {
	return types.Schema{
		{Name: "table_name", Kind: types.KindString},
		{Name: "column_name", Kind: types.KindString},
		{Name: "encoding", Kind: types.KindString},
		{Name: "dict_cardinality", Kind: types.KindInt},
		{Name: "code_width_bits", Kind: types.KindInt},
		{Name: "encoder_bytes", Kind: types.KindInt},
		{Name: "table_raw_bytes", Kind: types.KindInt},
		{Name: "table_page_bytes", Kind: types.KindInt},
		{Name: "table_dict_bytes", Kind: types.KindInt},
		{Name: "table_synopsis_bytes", Kind: types.KindInt},
		{Name: "table_ratio", Kind: types.KindFloat},
		{Name: "column_page_bytes", Kind: types.KindInt},
		{Name: "column_patched_codes", Kind: types.KindInt},
		{Name: "column_sorted_pages", Kind: types.KindInt},
	}
}

func (m *monCompression) rows() ([]types.Row, error) {
	var out []types.Row
	for _, name := range m.db.cat.TableNames() {
		t, ok := m.db.cat.Table(name)
		if !ok {
			continue
		}
		rep := t.Compression()
		for ci, cc := range t.ColumnCompressionReport() {
			out = append(out, types.Row{
				types.NewString(name),
				types.NewString(cc.Name),
				types.NewString(cc.Encoding),
				types.NewInt(int64(cc.Cardinality)),
				types.NewInt(int64(cc.WidthBits)),
				types.NewInt(int64(cc.DictBytes)),
				types.NewInt(int64(rep.RawBytes)),
				types.NewInt(int64(rep.PageBytes)),
				types.NewInt(int64(rep.DictBytes)),
				types.NewInt(int64(rep.SynopsisBytes)),
				types.NewFloat(rep.Ratio),
				types.NewInt(int64(rep.Columns[ci].PageBytes)),
				types.NewInt(int64(rep.Columns[ci].PatchedCodes)),
				types.NewInt(int64(rep.Columns[ci].SortedPages)),
			})
		}
	}
	return out, nil
}

// monSnapshots is the snapshot-isolation monitor: one row per table with
// its current epoch sequence, the number of reader-pinned snapshots, how
// many superseded epochs are still awaiting drain (sealed-behind), the
// total epochs retired, and the bulk-load flush counters. A growing
// sealed_behind under steady load means a long-running reader is holding
// an old epoch alive; bulk counters separate the bulk path from trickle
// INSERTs.
type monSnapshots struct{ db *DB }

func (m *monSnapshots) Schema() types.Schema {
	return types.Schema{
		{Name: "table_name", Kind: types.KindString},
		{Name: "epoch", Kind: types.KindInt},
		{Name: "pinned_readers", Kind: types.KindInt},
		{Name: "sealed_behind", Kind: types.KindInt},
		{Name: "epochs_drained", Kind: types.KindInt},
		{Name: "bulk_flushes", Kind: types.KindInt},
		{Name: "bulk_rows", Kind: types.KindInt},
		{Name: "bulk_bytes", Kind: types.KindInt},
	}
}

func (m *monSnapshots) rows() ([]types.Row, error) {
	var out []types.Row
	for _, name := range m.db.cat.TableNames() {
		t, ok := m.db.cat.Table(name)
		if !ok {
			continue
		}
		si := t.SnapshotInfo()
		out = append(out, types.Row{
			types.NewString(name),
			types.NewInt(int64(si.Epoch)),
			types.NewInt(int64(si.PinnedReaders)),
			types.NewInt(int64(si.Behind)),
			types.NewInt(int64(si.Drained)),
			types.NewInt(int64(si.BulkFlushes)),
			types.NewInt(int64(si.BulkRows)),
			types.NewInt(int64(si.BulkBytes)),
		})
	}
	return out, nil
}

// sysView is one system view: its schema and its rows, computed per scan.
type sysView interface {
	Schema() types.Schema
	rows() ([]types.Row, error)
}

// rowView is a system view as a catalog.RemoteSource: its few rows,
// made once into one batch (vec.FromRows).
type rowView struct{ sysView }

func (v rowView) ScanAll() ([]*vec.Batch, error) {
	rows, err := v.rows()
	if err != nil {
		return nil, err
	}
	return []*vec.Batch{vec.FromRows(v.Schema(), rows)}, nil
}

// registerSystemViews installs the SYSCAT nicknames; failures are
// impossible on a fresh catalog and ignored defensively.
func (db *DB) registerSystemViews() {
	db.cat.CreateNickname("syscat_tables", rowView{&syscatTables{db: db}})
	db.cat.CreateNickname("syscat_config", rowView{&syscatConfig{db: db}})
	db.cat.CreateNickname("syscat_bufferpool", rowView{&syscatBufferPool{db: db}})
	db.cat.CreateNickname("mon_query_history", rowView{&monQueryHistory{db: db}})
	db.cat.CreateNickname("mon_operator_stats", rowView{&monOperatorStats{db: db}})
	db.cat.CreateNickname("mon_bufferpool", rowView{&monBufferPool{db: db}})
	db.cat.CreateNickname("mon_wlm", rowView{&monWLM{db: db}})
	db.cat.CreateNickname("mon_memory", rowView{&monMemory{db: db}})
	db.cat.CreateNickname("mon_compression", rowView{&monCompression{db: db}})
	db.cat.CreateNickname("mon_snapshots", rowView{&monSnapshots{db: db}})
}
