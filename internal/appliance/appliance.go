// Package appliance simulates the "high performance analytic appliance"
// dashDB Local is compared against in Tests 1–3 (a Netezza-class machine:
// row-format storage streamed off disk through FPGA filter cards). Per
// DESIGN.md's substitution rules we implement its defining architectural
// traits directly rather than its hardware:
//
//   - row-organized tables with secondary B+tree indexes,
//   - every analytic query is a full streaming scan (no columnar
//     projection, no per-stride synopsis, no operating on compressed
//     data) with the WHERE applied row-at-a-time — the software analogue
//     of the FPGA's streaming restriction engine,
//   - joins and aggregation run at the host on materialized rows.
//
// The engine executes the same workload.QuerySpec / workload.Statement
// stream the dashDB engines run, so measured comparisons are
// apples-to-apples in logical work.
package appliance

import (
	"fmt"
	"strings"
	"sync"

	"dashdb/internal/exec"
	"dashdb/internal/rowstore"
	"dashdb/internal/types"
	"dashdb/internal/workload"
)

// Appliance is one simulated appliance instance.
type Appliance struct {
	mu     sync.RWMutex
	name   string
	tables map[string]*rowstore.Table
}

// New creates an appliance.
func New(name string) *Appliance {
	return &Appliance{name: name, tables: make(map[string]*rowstore.Table)}
}

// Name identifies the engine in reports.
func (a *Appliance) Name() string { return a.name }

// CreateTable defines a table with the requested secondary indexes.
func (a *Appliance) CreateTable(def workload.TableDef) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	k := strings.ToLower(def.Name)
	if _, ok := a.tables[k]; ok {
		return fmt.Errorf("appliance: table %s already exists", def.Name)
	}
	t := rowstore.NewTable(def.Name, def.Schema)
	for _, idx := range def.Indexes {
		if err := t.CreateIndex(idx); err != nil {
			return err
		}
	}
	a.tables[k] = t
	return nil
}

// Load bulk-inserts rows.
func (a *Appliance) Load(table string, rows []types.Row) error {
	t, err := a.table(table)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

func (a *Appliance) table(name string) (*rowstore.Table, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	t, ok := a.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("appliance: table %s does not exist", name)
	}
	return t, nil
}

// scanFactory is the appliance access path: a full row scan with the
// predicate evaluated per row (the FPGA restriction stage), its survivors
// handed to the host as held rows.
func (a *Appliance) scanFactory(table string, preds []workload.Pred) (exec.Operator, types.Schema, error) {
	t, err := a.table(table)
	if err != nil {
		return nil, nil, err
	}
	filter, err := workload.PredFilter(preds, t.Schema())
	if err != nil {
		return nil, nil, err
	}
	var rows []types.Row
	t.Scan(func(_ int64, row types.Row) bool {
		if filter(row) {
			rows = append(rows, row)
		}
		return true
	})
	return exec.NewValues(t.Schema(), rows), t.Schema(), nil
}

// Query executes a read query, returning its result rows.
func (a *Appliance) Query(q *workload.QuerySpec) ([]types.Row, error) {
	plan, err := workload.BuildPlan(q, a.scanFactory)
	if err != nil {
		return nil, err
	}
	return exec.Drain(plan)
}

// Execute runs one mixed-workload statement, returning a row count.
func (a *Appliance) Execute(st *workload.Statement) (int, error) {
	switch st.Kind {
	case workload.KindSelect, workload.KindWith, workload.KindExplain:
		rows, err := a.Query(st.Query)
		return len(rows), err
	case workload.KindInsert, workload.KindBulkLoad:
		// The appliance has no separate bulk path; load batches go
		// through the same insert machinery.
		if err := a.Load(st.Table, st.Rows); err != nil {
			return 0, err
		}
		return len(st.Rows), nil
	case workload.KindUpdate:
		t, err := a.table(st.Table)
		if err != nil {
			return 0, err
		}
		n, err := a.matchRids(t, st.Preds, func(rid int64, row types.Row) error {
			updated := row.Clone()
			for col, v := range st.Set {
				ci := t.Schema().ColumnIndex(col)
				if ci < 0 {
					return fmt.Errorf("appliance: column %s not found", col)
				}
				updated[ci] = v
			}
			return t.Update(rid, updated)
		})
		return n, err
	case workload.KindDelete:
		t, err := a.table(st.Table)
		if err != nil {
			return 0, err
		}
		return a.matchRids(t, st.Preds, func(rid int64, _ types.Row) error {
			return t.Delete(rid)
		})
	case workload.KindCreate:
		return 0, a.CreateTable(*st.Def)
	case workload.KindDrop:
		a.mu.Lock()
		delete(a.tables, strings.ToLower(st.Table))
		a.mu.Unlock()
		return 0, nil
	case workload.KindTruncate:
		t, err := a.table(st.Table)
		if err != nil {
			return 0, err
		}
		t.Truncate()
		return 0, nil
	}
	return 0, fmt.Errorf("appliance: unsupported statement kind %v", st.Kind)
}

// matchRids applies fn to every row matching the predicates. The
// appliance uses a secondary index only for a single equality predicate
// on an indexed column (its fast path); anything else is a full scan.
func (a *Appliance) matchRids(t *rowstore.Table, preds []workload.Pred, fn func(rid int64, row types.Row) error) (int, error) {
	filter, err := workload.PredFilter(preds, t.Schema())
	if err != nil {
		return 0, err
	}
	type match struct {
		rid int64
		row types.Row
	}
	var matches []match
	t.Scan(func(rid int64, row types.Row) bool {
		if filter(row) {
			matches = append(matches, match{rid, row})
		}
		return true
	})
	for _, m := range matches {
		if err := fn(m.rid, m.row); err != nil {
			return 0, err
		}
	}
	return len(matches), nil
}
