// Package cloudstore simulates the unnamed "popular cloud data warehouse"
// of Test 4: an MPP shared-nothing column store with a memory cache that
// lacks the BLU-specific techniques the paper credits for dashDB's
// advantage. Concretely (DESIGN.md's substitution table):
//
//   - columnar storage, but scans DECODE every value and compare in value
//     space (no operating on compressed data, no software SIMD),
//   - no per-stride synopsis (no data skipping),
//   - an LRU page cache (no scan-resistant probabilistic replacement).
//
// It shares the storage substrate (columnar pages) with the dashDB
// engine, so the measured difference isolates exactly those techniques.
package cloudstore

import (
	"fmt"
	"strings"
	"sync"

	"dashdb/internal/bufferpool"
	"dashdb/internal/columnar"
	"dashdb/internal/exec"
	"dashdb/internal/types"
	"dashdb/internal/vec"
	"dashdb/internal/workload"
)

// Store is one cloud column-store instance.
type Store struct {
	mu     sync.RWMutex
	name   string
	pool   *bufferpool.Pool
	tables map[string]*columnar.Table
	nextID uint32
}

// New creates a store with the given cache budget.
func New(name string, cacheBytes int) *Store {
	if cacheBytes <= 0 {
		cacheBytes = 64 << 20
	}
	return &Store{
		name:   name,
		pool:   bufferpool.New(cacheBytes, bufferpool.NewLRU()),
		tables: make(map[string]*columnar.Table),
		nextID: 1,
	}
}

// Name identifies the engine in reports.
func (s *Store) Name() string { return s.name }

// CreateTable defines a table (indexes are ignored: column stores have
// none).
func (s *Store) CreateTable(def workload.TableDef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := strings.ToLower(def.Name)
	if _, ok := s.tables[k]; ok {
		return fmt.Errorf("cloudstore: table %s already exists", def.Name)
	}
	t := columnar.NewTable(s.nextID, def.Name, def.Schema, columnar.Config{Pool: s.pool})
	s.nextID++
	s.tables[k] = t
	return nil
}

// Load bulk-inserts rows.
func (s *Store) Load(table string, rows []types.Row) error {
	t, err := s.table(table)
	if err != nil {
		return err
	}
	return t.InsertBatch(rows)
}

func (s *Store) table(name string) (*columnar.Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("cloudstore: table %s does not exist", name)
	}
	return t, nil
}

// naiveScanOp adapts columnar.Snapshot.ScanNaive to the executor: the
// decode-then-evaluate access path.
type naiveScanOp struct {
	t     *columnar.Table
	preds []columnar.Pred
	rows  []types.Row
	pos   int
}

func (n *naiveScanOp) Schema() types.Schema { return n.t.Schema() }

func (n *naiveScanOp) Open() error {
	n.rows = n.rows[:0]
	n.pos = 0
	snap := n.t.Snapshot()
	defer snap.Release()
	return snap.ScanNaive(n.preds, func(b *columnar.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			n.rows = append(n.rows, b.Row(i))
		}
		return true
	})
}

func (n *naiveScanOp) Next() (*vec.Batch, error) {
	if n.pos >= len(n.rows) {
		return nil, nil
	}
	end := min(n.pos+exec.ChunkSize, len(n.rows))
	vb := vec.FromRows(n.t.Schema(), n.rows[n.pos:end])
	n.pos = end
	return vb, nil
}

func (n *naiveScanOp) Close() error {
	n.rows = nil
	return nil
}

// scanFactory is the cloud store's access path.
func (s *Store) scanFactory(table string, preds []workload.Pred) (exec.Operator, types.Schema, error) {
	t, err := s.table(table)
	if err != nil {
		return nil, nil, err
	}
	cp := make([]columnar.Pred, len(preds))
	for i, p := range preds {
		ci := t.Schema().ColumnIndex(p.Col)
		if ci < 0 {
			return nil, nil, fmt.Errorf("cloudstore: column %s not found", p.Col)
		}
		cp[i] = columnar.Pred{Col: ci, Op: p.Op, Val: p.Val}
	}
	return &naiveScanOp{t: t, preds: cp}, t.Schema(), nil
}

// Query executes a read query.
func (s *Store) Query(q *workload.QuerySpec) ([]types.Row, error) {
	plan, err := workload.BuildPlan(q, s.scanFactory)
	if err != nil {
		return nil, err
	}
	return exec.Drain(plan)
}

// Execute runs a mixed-workload statement.
func (s *Store) Execute(st *workload.Statement) (int, error) {
	switch st.Kind {
	case workload.KindSelect, workload.KindWith, workload.KindExplain:
		rows, err := s.Query(st.Query)
		return len(rows), err
	case workload.KindInsert, workload.KindBulkLoad:
		if err := s.Load(st.Table, st.Rows); err != nil {
			return 0, err
		}
		return len(st.Rows), nil
	case workload.KindUpdate:
		t, err := s.table(st.Table)
		if err != nil {
			return 0, err
		}
		preds, err := s.toColumnarPreds(t, st.Preds)
		if err != nil {
			return 0, err
		}
		set := make(map[int]types.Value)
		for col, v := range st.Set {
			ci := t.Schema().ColumnIndex(col)
			if ci < 0 {
				return 0, fmt.Errorf("cloudstore: column %s not found", col)
			}
			set[ci] = v
		}
		return changeWhere(t, preds, set)
	case workload.KindDelete:
		t, err := s.table(st.Table)
		if err != nil {
			return 0, err
		}
		preds, err := s.toColumnarPreds(t, st.Preds)
		if err != nil {
			return 0, err
		}
		return changeWhere(t, preds, nil)
	case workload.KindCreate:
		return 0, s.CreateTable(*st.Def)
	case workload.KindDrop:
		s.mu.Lock()
		if t, ok := s.tables[strings.ToLower(st.Table)]; ok {
			t.Drop()
			delete(s.tables, strings.ToLower(st.Table))
		}
		s.mu.Unlock()
		return 0, nil
	case workload.KindTruncate:
		t, err := s.table(st.Table)
		if err != nil {
			return 0, err
		}
		return 0, t.Truncate()
	}
	return 0, fmt.Errorf("cloudstore: unsupported statement kind %v", st.Kind)
}

// changeWhere deletes the rows of t matching preds and, when set is not
// nil, re-inserts each with the columns of set replaced: an UPDATE or a
// DELETE as one columnar Change.
func changeWhere(t *columnar.Table, preds []columnar.Pred, set map[int]types.Value) (int, error) {
	return t.Change(func(snap *columnar.Snapshot) (del []int64, add []*vec.Batch, err error) {
		scanErr := snap.Scan(preds, nil, 1, nil, func(_ int, b *columnar.Batch) bool {
			for i := 0; i < b.Len(); i++ {
				del = append(del, b.RowID(i))
			}
			if set != nil && b.Len() > 0 {
				// Unowned: the new rows may hold its lanes.
				nb := vec.NewBatch(t.Schema(), b.VectorsEnc(nil, nil), b.Len())
				for ci, v := range set {
					nb = nb.WithCol(ci, vec.NewConst(v))
				}
				var lanes *vec.Batch
				lanes, err = columnar.Conform(t.Schema(), nb)
				add = append(add, lanes)
			}
			return err == nil
		})
		if err == nil {
			err = scanErr
		}
		return del, add, err
	})
}

func (s *Store) toColumnarPreds(t *columnar.Table, preds []workload.Pred) ([]columnar.Pred, error) {
	cp := make([]columnar.Pred, len(preds))
	for i, p := range preds {
		ci := t.Schema().ColumnIndex(p.Col)
		if ci < 0 {
			return nil, fmt.Errorf("cloudstore: column %s not found", p.Col)
		}
		cp[i] = columnar.Pred{Col: ci, Op: p.Op, Val: p.Val}
	}
	return cp, nil
}
