// Package fluid reproduces the Integrated Fluid Query technology of
// §II.C.6: built-in connectors that surface remote database objects —
// Hadoop engines like Impala, or RDBMSs like SQL Server, DB2, Netezza and
// Oracle — as local nicknames queryable with ordinary SQL.
//
// The "remote" systems are in-process simulators (per DESIGN.md's
// substitution rules): each RemoteServer holds tables and serves scans
// with a per-row latency model characteristic of its origin, so queries
// over nicknames exercise the same code path a real federation bridge
// would (full remote scan into the local executor).
package fluid

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dashdb/internal/catalog"
	"dashdb/internal/types"
)

// Origin identifies the remote system family.
type Origin string

// Connector origins built into dashDB Local (Figure 5's nickname dialog).
const (
	OriginOracle    Origin = "ORACLE"
	OriginSQLServer Origin = "SQLSERVER"
	OriginDB2       Origin = "DB2"
	OriginNetezza   Origin = "NETEZZA"
	OriginImpala    Origin = "IMPALA" // Hadoop / Cloudera Impala
)

// perRowLatency models each origin's row-fetch overhead.
var perRowLatency = map[Origin]time.Duration{
	OriginOracle:    2 * time.Microsecond,
	OriginSQLServer: 2 * time.Microsecond,
	OriginDB2:       1 * time.Microsecond,
	OriginNetezza:   1 * time.Microsecond,
	OriginImpala:    4 * time.Microsecond, // HDFS round trips
}

// RemoteServer is one simulated remote data store.
type RemoteServer struct {
	origin Origin
	name   string
	mu     sync.RWMutex
	tables map[string]*remoteTable
}

type remoteTable struct {
	schema types.Schema
	rows   []types.Row
}

// NewRemoteServer creates a remote store of the given origin.
func NewRemoteServer(origin Origin, name string) *RemoteServer {
	return &RemoteServer{origin: origin, name: name, tables: make(map[string]*remoteTable)}
}

// CreateTable defines a remote table.
func (s *RemoteServer) CreateTable(name string, schema types.Schema) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := strings.ToLower(name)
	if _, ok := s.tables[k]; ok {
		return fmt.Errorf("fluid: remote table %s already exists on %s", name, s.name)
	}
	s.tables[k] = &remoteTable{schema: schema}
	return nil
}

// Insert loads rows into a remote table.
func (s *RemoteServer) Insert(table string, rows []types.Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("fluid: remote table %s not found on %s", table, s.name)
	}
	for _, r := range rows {
		checked, err := t.schema.Validate(r)
		if err != nil {
			return err
		}
		t.rows = append(t.rows, checked)
	}
	return nil
}

// Nickname implements catalog.RemoteSource for one remote table.
type nickname struct {
	server *RemoteServer
	table  string
}

// Schema implements catalog.RemoteSource.
func (n *nickname) Schema() types.Schema {
	n.server.mu.RLock()
	defer n.server.mu.RUnlock()
	if t, ok := n.server.tables[n.table]; ok {
		return t.schema
	}
	return nil
}

// ScanAll implements catalog.RemoteSource: a full remote scan with the
// origin's per-row latency applied in aggregate.
func (n *nickname) ScanAll() ([]types.Row, error) {
	n.server.mu.RLock()
	t, ok := n.server.tables[n.table]
	if !ok {
		n.server.mu.RUnlock()
		return nil, fmt.Errorf("fluid: remote table %s vanished from %s", n.table, n.server.name)
	}
	out := make([]types.Row, len(t.rows))
	copy(out, t.rows)
	n.server.mu.RUnlock()

	if lat, ok := perRowLatency[n.server.origin]; ok && len(out) > 0 {
		time.Sleep(time.Duration(len(out)) * lat)
	}
	return out, nil
}

// CreateNickname registers local access to a remote table (Figure 5's
// "Add Nickname"): after this, the local engine can query localName like
// any table.
func CreateNickname(cat *catalog.Catalog, localName string, server *RemoteServer, remoteTable string) error {
	server.mu.RLock()
	_, ok := server.tables[strings.ToLower(remoteTable)]
	server.mu.RUnlock()
	if !ok {
		return fmt.Errorf("fluid: remote table %s not found on %s", remoteTable, server.name)
	}
	return cat.CreateNickname(localName, &nickname{server: server, table: strings.ToLower(remoteTable)})
}
