// Package hybrid implements the cloud-compatibility story of §II.F and
// the hybrid value propositions of §I: dashDB Local and the dashDB cloud
// service share one engine, so analytics code is portable across them,
// and the two common hybrid flows work mechanically:
//
//   - "Cloud as hot backup": SyncToCloud replicates an on-premises
//     cluster's schemas and data into a managed cloud service instance
//     for disaster recovery — queries return identical results there.
//   - "Prototype in the cloud, harden on-premises": SyncFromCloud moves a
//     cloud-developed dataset down into a production MPP cluster.
//
// The cloud service is the same core engine opened with a managed
// instance profile (IBM handles configuration and tuning), which is
// exactly the paper's description of the service side.
package hybrid

import (
	"fmt"

	"dashdb/internal/core"
	"dashdb/internal/mpp"
	"dashdb/internal/types"
)

// Plan selects a managed cloud instance profile.
type Plan string

// Cloud plans, mirroring the entry/enterprise tiers of the service.
const (
	// PlanEntry is the free/entry tier (small shared instance).
	PlanEntry Plan = "entry"
	// PlanEnterprise is the dedicated MPP-class tier.
	PlanEnterprise Plan = "enterprise"
)

// planConfig maps plans to managed engine configurations: on the cloud
// side IBM does the configuring, so users never see these knobs.
var planConfig = map[Plan]core.Config{
	PlanEntry:      {BufferPoolBytes: 32 << 20, Parallelism: 2, MaxConcurrentQueries: 4},
	PlanEnterprise: {BufferPoolBytes: 256 << 20, Parallelism: 16, MaxConcurrentQueries: 32},
}

// CloudService is a managed dashDB instance: the same query engine,
// IBM-operated.
type CloudService struct {
	db   *core.DB
	plan Plan
}

// NewCloudService provisions a managed instance.
func NewCloudService(plan Plan) (*CloudService, error) {
	cfg, ok := planConfig[plan]
	if !ok {
		return nil, fmt.Errorf("hybrid: unknown plan %q", plan)
	}
	return &CloudService{db: core.Open(cfg), plan: plan}, nil
}

// Plan returns the instance tier.
func (c *CloudService) Plan() Plan { return c.plan }

// Session opens a connection to the cloud instance.
func (c *CloudService) Session() *core.Session { return c.db.NewSession() }

// Engine exposes the underlying engine (the point of §II.F: it is the
// same engine as on-premises).
func (c *CloudService) Engine() *core.DB { return c.db }

// SyncToCloud replicates the on-premises cluster into the cloud instance:
// schemas are re-created and all live rows copied (the hot-backup / DR
// clone). Existing same-named cloud tables are replaced.
func SyncToCloud(cl *mpp.NetCluster, cloud *CloudService) (tables, rows int, err error) {
	for _, ti := range cl.Tables() {
		if _, exists := cloud.db.Table(ti.Name); exists {
			if err := cloud.db.Catalog().DropTable(ti.Name); err != nil {
				return tables, rows, err
			}
		}
		t, err := cloud.db.CreateTable(ti.Name, ti.Schema)
		if err != nil {
			return tables, rows, err
		}
		data, err := cl.TableRows(ti.Name)
		if err != nil {
			return tables, rows, err
		}
		if err := t.InsertBatch(data); err != nil {
			return tables, rows, err
		}
		tables++
		rows += len(data)
	}
	return tables, rows, nil
}

// SyncFromCloud moves a cloud table down into the cluster (the
// prototype-then-harden flow). The table is created distributed by its
// first column unless opts overrides placement.
func SyncFromCloud(cloud *CloudService, cl *mpp.NetCluster, table string, opts mpp.TableOptions) (int, error) {
	t, ok := cloud.db.Table(table)
	if !ok {
		return 0, fmt.Errorf("hybrid: cloud table %s does not exist", table)
	}
	rows, err := t.SelectWhere(nil)
	if err != nil {
		return 0, err
	}
	if err := cl.CreateTable(table, t.Schema(), opts); err != nil {
		return 0, err
	}
	if err := cl.Insert(table, rows); err != nil {
		return 0, err
	}
	return len(rows), nil
}

// VerifyPortability runs the same query on both sides and reports whether
// the result sets match (order-insensitively) — the "near perfect
// portability of analytics code" check of §II.F.
func VerifyPortability(cl *mpp.NetCluster, cloud *CloudService, query string) (bool, error) {
	local, err := cl.Query(query)
	if err != nil {
		return false, fmt.Errorf("hybrid: on-premises: %w", err)
	}
	remote, err := cloud.Session().Exec(query)
	if err != nil {
		return false, fmt.Errorf("hybrid: cloud: %w", err)
	}
	if len(local.Rows) != len(remote.Rows) {
		return false, nil
	}
	count := func(rows []types.Row) map[uint64]int {
		m := make(map[uint64]int, len(rows))
		for _, r := range rows {
			m[r.Hash()]++
		}
		return m
	}
	lc, rc := count(local.Rows), count(remote.Rows)
	if len(lc) != len(rc) {
		return false, nil
	}
	for h, n := range lc {
		if rc[h] != n {
			return false, nil
		}
	}
	return true, nil
}
