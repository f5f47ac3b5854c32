// Package catalog holds the database's metadata: schemas, tables, views,
// sequences, aliases and nicknames (remote tables via Fluid Query, §II.C.6).
// Views record the SQL dialect active when they were created, so later
// references compile under that dialect regardless of the accessing
// session's setting — the paper's rule for colliding dialect syntaxes
// (§II.C.2).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dashdb/internal/columnar"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// ObjectKind distinguishes catalog entries.
type ObjectKind uint8

const (
	// KindTable is a base columnar table.
	KindTable ObjectKind = iota
	// KindView is a named query.
	KindView
	// KindNickname is a remote table reference.
	KindNickname
	// KindAlias is an alternate name for another object (DB2 CREATE ALIAS).
	KindAlias
)

// View is a stored query with its creation dialect.
type View struct {
	Name    string
	SQL     string
	Dialect string // dialect name recorded at creation time
}

// Sequence is a named number generator (NEXTVAL/CURRVAL, NEXT VALUE FOR).
type Sequence struct {
	mu      sync.Mutex
	name    string
	next    int64
	incr    int64
	current int64
	started bool
}

// NextVal advances and returns the sequence value.
func (s *Sequence) NextVal() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.current = s.next
	s.next += s.incr
	s.started = true
	return s.current
}

// CurrVal returns the last value handed out; an error before first use,
// per Oracle semantics.
func (s *Sequence) CurrVal() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return 0, fmt.Errorf("catalog: CURRVAL of sequence %s before NEXTVAL", s.name)
	}
	return s.current, nil
}

// RemoteSource is the interface nicknames resolve to: the fluid and
// extern connectors, the system views, and the batches a shard statement
// or a shuffle partition delivers. The compiler calls ScanAll once per
// reference and then reads Schema, whose kinds the batches' vectors
// carry.
type RemoteSource interface {
	Schema() types.Schema
	ScanAll() ([]*vec.Batch, error)
}

// Nickname points at a remote object.
type Nickname struct {
	Name   string
	Source RemoteSource
}

// Catalog is one database's metadata, safe for concurrent use.
type Catalog struct {
	mu        sync.RWMutex
	tables    map[string]*columnar.Table
	views     map[string]*View
	seqs      map[string]*Sequence
	nicknames map[string]*Nickname
	aliases   map[string]string
	nextID    uint32
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:    make(map[string]*columnar.Table),
		views:     make(map[string]*View),
		seqs:      make(map[string]*Sequence),
		nicknames: make(map[string]*Nickname),
		aliases:   make(map[string]string),
		nextID:    1,
	}
}

func key(name string) string { return strings.ToLower(name) }

// NextTableID allocates a unique storage id.
func (c *Catalog) NextTableID() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	return id
}

// EnsureNextID raises the id allocator so future tables do not collide
// with restored storage ids (cluster restore path).
func (c *Catalog) EnsureNextID(min uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nextID < min {
		c.nextID = min
	}
}

// CreateTable registers a table. A temporary table (CREATE TEMP TABLE /
// DECLARE GLOBAL TEMPORARY TABLE) is registered like any other: it lives
// until it is dropped.
func (c *Catalog) CreateTable(t *columnar.Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(t.Name())
	if c.exists(k) {
		return fmt.Errorf("catalog: object %s already exists", t.Name())
	}
	c.tables[k] = t
	return nil
}

// exists must be called with the lock held.
func (c *Catalog) exists(k string) bool {
	_, t := c.tables[k]
	_, v := c.views[k]
	_, n := c.nicknames[k]
	_, a := c.aliases[k]
	return t || v || n || a
}

// Table resolves a table by name, following aliases.
func (c *Catalog) Table(name string) (*columnar.Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	k := c.resolveAliasLocked(key(name))
	t, ok := c.tables[k]
	return t, ok
}

func (c *Catalog) resolveAliasLocked(k string) string {
	for i := 0; i < 8; i++ { // bounded in case of alias cycles
		target, ok := c.aliases[k]
		if !ok {
			return k
		}
		k = target
	}
	return k
}

// DropTable removes a table (and its storage).
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	k := c.resolveAliasLocked(key(name))
	t, ok := c.tables[k]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	delete(c.tables, k)
	c.mu.Unlock()
	return t.Drop()
}

// CreateView registers a view with its creation dialect.
func (c *Catalog) CreateView(name, sql, dialect string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if c.exists(k) {
		return fmt.Errorf("catalog: object %s already exists", name)
	}
	c.views[k] = &View{Name: name, SQL: sql, Dialect: dialect}
	return nil
}

// View resolves a view by name.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[c.resolveAliasLocked(key(name))]
	return v, ok
}

// DropView removes a view.
func (c *Catalog) DropView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.views[k]; !ok {
		return fmt.Errorf("catalog: view %s does not exist", name)
	}
	delete(c.views, k)
	return nil
}

// CreateSequence registers a sequence starting at start with the given
// increment.
func (c *Catalog) CreateSequence(name string, start, incr int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.seqs[k]; ok {
		return fmt.Errorf("catalog: sequence %s already exists", name)
	}
	if incr == 0 {
		incr = 1
	}
	c.seqs[k] = &Sequence{name: name, next: start, incr: incr}
	return nil
}

// Sequence resolves a sequence by name.
func (c *Catalog) Sequence(name string) (*Sequence, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.seqs[key(name)]
	return s, ok
}

// DropSequence removes a sequence.
func (c *Catalog) DropSequence(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.seqs[k]; !ok {
		return fmt.Errorf("catalog: sequence %s does not exist", name)
	}
	delete(c.seqs, k)
	return nil
}

// CreateNickname registers a remote table reference.
func (c *Catalog) CreateNickname(name string, src RemoteSource) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if c.exists(k) {
		return fmt.Errorf("catalog: object %s already exists", name)
	}
	c.nicknames[k] = &Nickname{Name: name, Source: src}
	return nil
}

// Nickname resolves a nickname by name.
func (c *Catalog) Nickname(name string) (*Nickname, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nicknames[c.resolveAliasLocked(key(name))]
	return n, ok
}

// DropNickname removes a nickname.
func (c *Catalog) DropNickname(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.nicknames[k]; !ok {
		return fmt.Errorf("catalog: nickname %s does not exist", name)
	}
	delete(c.nicknames, k)
	return nil
}

// CreateAlias registers an alternate name for an existing object
// (DB2 CREATE ALIAS).
func (c *Catalog) CreateAlias(name, target string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if c.exists(k) {
		return fmt.Errorf("catalog: object %s already exists", name)
	}
	tk := key(target)
	if !c.exists(tk) {
		return fmt.Errorf("catalog: alias target %s does not exist", target)
	}
	c.aliases[k] = tk
	return nil
}

// TableNames returns all table names, sorted (system views, console).
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		names = append(names, t.Name())
	}
	sort.Strings(names)
	return names
}
