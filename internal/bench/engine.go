// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§III, Table 1, plus the
// quantitative claims catalogued as figures F-A…F-H in DESIGN.md). It
// abstracts the systems under test behind one Engine interface so the
// dashDB engines and the baseline simulators run identical workloads.
package bench

import (
	stdsql "database/sql"
	"fmt"

	"dashdb/driver"
	"dashdb/internal/appliance"
	"dashdb/internal/cloudstore"
	"dashdb/internal/columnar"
	"dashdb/internal/core"
	"dashdb/internal/mpp"
	"dashdb/internal/types"
	"dashdb/internal/workload"
)

// Engine is a system under test.
type Engine interface {
	// Name identifies the engine in reports.
	Name() string
	// Setup creates the workload's tables.
	Setup(defs []workload.TableDef) error
	// Load bulk-inserts rows into a table.
	Load(table string, rows []types.Row) error
	// Query runs a read query, returning its result row count.
	Query(q *workload.QuerySpec) (int, error)
	// Execute runs one mixed-workload statement.
	Execute(st *workload.Statement) (int, error)
}

// --- dashDB MPP cluster adapter ---------------------------------------------

// ClusterEngine drives an MPP dashDB cluster through its SQL coordinator.
type ClusterEngine struct {
	Cluster *mpp.NetCluster
	Label   string
}

// Name implements Engine.
func (e *ClusterEngine) Name() string {
	if e.Label != "" {
		return e.Label
	}
	return "dashdb-mpp"
}

// Setup implements Engine.
func (e *ClusterEngine) Setup(defs []workload.TableDef) error {
	for _, d := range defs {
		err := e.Cluster.CreateTable(d.Name, d.Schema, mpp.TableOptions{
			DistributeBy: d.DistributeBy,
			Replicated:   d.Replicated,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Load implements Engine.
func (e *ClusterEngine) Load(table string, rows []types.Row) error {
	return e.Cluster.Insert(table, rows)
}

// Query implements Engine.
func (e *ClusterEngine) Query(q *workload.QuerySpec) (int, error) {
	r, err := e.Cluster.Query(q.SQL())
	if err != nil {
		return 0, err
	}
	return len(r.Rows), nil
}

// Execute implements Engine. Scratch tables created mid-workload are not
// registered with placement metadata, so DDL goes through the SQL path.
// Bulk-load flushes take the cluster's batched insert path (hash-routed,
// one atomic batch per shard) rather than SQL text.
func (e *ClusterEngine) Execute(st *workload.Statement) (int, error) {
	if st.Kind == workload.KindBulkLoad {
		if err := e.Cluster.Insert(st.Table, st.Rows); err != nil {
			return 0, err
		}
		return len(st.Rows), nil
	}
	r, err := e.Cluster.Query(st.SQL())
	if err != nil {
		return 0, err
	}
	if r.Rows != nil {
		return len(r.Rows), nil
	}
	return int(r.RowsAffected), nil
}

// --- dashDB single-node adapter ----------------------------------------------

// CoreEngine drives a single dashDB engine (the Test 4 configuration:
// one 32-vcpu cloud box).
type CoreEngine struct {
	DB    *core.DB
	Label string
}

// Name implements Engine.
func (e *CoreEngine) Name() string {
	if e.Label != "" {
		return e.Label
	}
	return "dashdb-local"
}

// Setup implements Engine.
func (e *CoreEngine) Setup(defs []workload.TableDef) error {
	for _, d := range defs {
		if _, err := e.DB.CreateTable(d.Name, d.Schema); err != nil {
			return err
		}
	}
	return nil
}

// Load implements Engine.
func (e *CoreEngine) Load(table string, rows []types.Row) error {
	t, ok := e.DB.Table(table)
	if !ok {
		return fmt.Errorf("bench: table %s missing", table)
	}
	return t.InsertBatch(rows)
}

// Query implements Engine.
func (e *CoreEngine) Query(q *workload.QuerySpec) (int, error) {
	r, err := e.DB.NewSession().Exec(q.SQL())
	if err != nil {
		return 0, err
	}
	return len(r.Rows), nil
}

// Execute implements Engine. Bulk-load flushes take the engine's
// BulkAppend path: one snapshot epoch per batch.
func (e *CoreEngine) Execute(st *workload.Statement) (int, error) {
	if st.Kind == workload.KindBulkLoad {
		t, ok := e.DB.Table(st.Table)
		if !ok {
			return 0, fmt.Errorf("bench: table %s missing", st.Table)
		}
		b, err := columnar.LanesOf(t.Schema(), st.Rows)
		if err != nil {
			return 0, err
		}
		return t.BulkAppend(b)
	}
	r, err := e.DB.NewSession().Exec(st.SQL())
	if err != nil {
		return 0, err
	}
	if r.Rows != nil {
		return len(r.Rows), nil
	}
	return int(r.RowsAffected), nil
}

// --- database/sql driver adapter ---------------------------------------------

// DriverEngine drives the embedded engine through database/sql — the
// application-interface path of §II.C.3. Bulk-load statements stream
// through driver.BulkInserter, so the measured workload includes load
// exactly as an application would run it.
type DriverEngine struct {
	DB    *stdsql.DB
	Label string
}

// Name implements Engine.
func (e *DriverEngine) Name() string {
	if e.Label != "" {
		return e.Label
	}
	return "dashdb-driver"
}

// Setup implements Engine.
func (e *DriverEngine) Setup(defs []workload.TableDef) error {
	for i := range defs {
		st := workload.Statement{Kind: workload.KindCreate, Def: &defs[i]}
		if _, err := e.DB.Exec(st.SQL()); err != nil {
			return err
		}
	}
	return nil
}

// driverArgs converts one engine row to database/sql arguments.
func driverArgs(r types.Row) []any {
	args := make([]any, len(r))
	for i, v := range r {
		if v.IsNull() {
			continue
		}
		switch v.Kind() {
		case types.KindInt:
			args[i] = v.Int()
		case types.KindFloat:
			args[i] = v.Float()
		case types.KindBool:
			args[i] = v.Bool()
		case types.KindDate, types.KindTimestamp:
			args[i] = v.Time()
		default:
			args[i] = v.Str()
		}
	}
	return args
}

// Load implements Engine via driver.BulkInserter.
func (e *DriverEngine) Load(table string, rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	ins := driver.NewBulkInserter(e.DB, table, len(rows[0]), 0)
	for _, r := range rows {
		if err := ins.Add(driverArgs(r)...); err != nil {
			return err
		}
	}
	_, err := ins.Finish()
	return err
}

// Query implements Engine.
func (e *DriverEngine) Query(q *workload.QuerySpec) (int, error) {
	rows, err := e.DB.Query(q.SQL())
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	return n, rows.Err()
}

// Execute implements Engine. Bulk-load flushes stream through
// driver.BulkInserter; everything else is a one-shot Exec.
func (e *DriverEngine) Execute(st *workload.Statement) (int, error) {
	if st.Kind == workload.KindBulkLoad {
		if err := e.Load(st.Table, st.Rows); err != nil {
			return 0, err
		}
		return len(st.Rows), nil
	}
	if st.Kind == workload.KindSelect || st.Kind == workload.KindWith || st.Kind == workload.KindExplain {
		rows, err := e.DB.Query(st.SQL())
		if err != nil {
			return 0, err
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		return n, rows.Err()
	}
	res, err := e.DB.Exec(st.SQL())
	if err != nil {
		return 0, err
	}
	n, err := res.RowsAffected()
	if err != nil {
		return 0, err
	}
	return int(n), nil
}

// --- appliance adapter --------------------------------------------------------

// ApplianceEngine drives the FPGA-appliance simulator.
type ApplianceEngine struct {
	A *appliance.Appliance
}

// Name implements Engine.
func (e *ApplianceEngine) Name() string { return e.A.Name() }

// Setup implements Engine.
func (e *ApplianceEngine) Setup(defs []workload.TableDef) error {
	for _, d := range defs {
		if err := e.A.CreateTable(d); err != nil {
			return err
		}
	}
	return nil
}

// Load implements Engine.
func (e *ApplianceEngine) Load(table string, rows []types.Row) error {
	return e.A.Load(table, rows)
}

// Query implements Engine.
func (e *ApplianceEngine) Query(q *workload.QuerySpec) (int, error) {
	rows, err := e.A.Query(q)
	return len(rows), err
}

// Execute implements Engine.
func (e *ApplianceEngine) Execute(st *workload.Statement) (int, error) {
	return e.A.Execute(st)
}

// --- cloud column store adapter ------------------------------------------------

// CloudEngine drives the cloud column-store simulator.
type CloudEngine struct {
	S *cloudstore.Store
}

// Name implements Engine.
func (e *CloudEngine) Name() string { return e.S.Name() }

// Setup implements Engine.
func (e *CloudEngine) Setup(defs []workload.TableDef) error {
	for _, d := range defs {
		if err := e.S.CreateTable(d); err != nil {
			return err
		}
	}
	return nil
}

// Load implements Engine.
func (e *CloudEngine) Load(table string, rows []types.Row) error {
	return e.S.Load(table, rows)
}

// Query implements Engine.
func (e *CloudEngine) Query(q *workload.QuerySpec) (int, error) {
	rows, err := e.S.Query(q)
	return len(rows), err
}

// Execute implements Engine.
func (e *CloudEngine) Execute(st *workload.Statement) (int, error) {
	return e.S.Execute(st)
}
