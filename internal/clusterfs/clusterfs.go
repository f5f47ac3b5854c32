// Package clusterfs simulates the POSIX-compliant clustered filesystem
// dashDB Local requires at /mnt/clusterfs (paper §II.A, §II.E): a shared
// namespace every node can reach, holding one private file-set per data
// shard. Because shard file-sets live on the shared filesystem and are
// not bound to a host or container, shards can be re-associated between
// nodes (HA failover, elastic grow/shrink) without copying data, and the
// whole deployment can be moved by copying the filesystem (§II.E's
// portability/DR story).
package clusterfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dashdb/internal/columnar"
	"dashdb/internal/page"
)

// Stats counts filesystem traffic.
type Stats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
}

// FS is the shared filesystem: a flat namespace of files. The default
// backend is an in-memory map (simulation and tests); dir-backed
// instances from OpenDir store files on disk so several processes can
// share one namespace (see dirfs.go).
type FS struct {
	mu    sync.RWMutex
	files map[string][]byte
	dir   string // non-empty selects the disk backend

	reads        atomic.Uint64
	writes       atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
}

// New returns an empty in-memory filesystem.
func New() *FS {
	return &FS{files: make(map[string][]byte)}
}

// WriteFile stores data under path (full replace, like O_TRUNC).
func (fs *FS) WriteFile(path string, data []byte) {
	fs.writes.Add(1)
	fs.bytesWritten.Add(uint64(len(data)))
	if fs.dir != "" {
		fs.dirWrite(path, data)
		return
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cp := append([]byte(nil), data...)
	fs.files[path] = cp
}

// ReadFile returns the file's contents.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	if fs.dir != "" {
		data, err := fs.dirRead(path)
		if err != nil {
			return nil, err
		}
		fs.reads.Add(1)
		fs.bytesRead.Add(uint64(len(data)))
		return data, nil
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	data, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("clusterfs: %s: no such file", path)
	}
	fs.reads.Add(1)
	fs.bytesRead.Add(uint64(len(data)))
	return data, nil
}

// Remove deletes a file; removing a missing file is not an error (like
// rm -f).
func (fs *FS) Remove(path string) {
	if fs.dir != "" {
		fs.dirRemove(path)
		return
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, path)
}

// RemovePrefix deletes every file under the prefix (like rm -rf dir/).
func (fs *FS) RemovePrefix(prefix string) {
	if fs.dir != "" {
		fs.dirRemovePrefix(prefix)
		return
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			delete(fs.files, p)
		}
	}
}

// List returns the sorted paths under a prefix.
//
//dashdb:nolint deadcode cross-package test hook: mpp's TestClusterFSPersistsPages checks pages reach the shared filesystem
func (fs *FS) List(prefix string) []string {
	if fs.dir != "" {
		return fs.dirList(prefix)
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// TotalBytes returns the filesystem occupancy.
//
//dashdb:nolint deadcode cross-package test hook: mpp's TestClusterFSPersistsPages compares a snapshot's bytes
func (fs *FS) TotalBytes() int {
	if fs.dir != "" {
		return fs.dirTotalBytes()
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	total := 0
	for _, d := range fs.files {
		total += len(d)
	}
	return total
}

// Stats returns a traffic snapshot.
//
//dashdb:nolint deadcode cross-package test hook: mpp's TestWritePathClusterfsWrites counts shard-server metadata writes
func (fs *FS) Stats() Stats {
	return Stats{
		Reads:        fs.reads.Load(),
		Writes:       fs.writes.Load(),
		BytesRead:    fs.bytesRead.Load(),
		BytesWritten: fs.bytesWritten.Load(),
	}
}

// Snapshot deep-copies the entire filesystem — the paper's portability
// mechanism ("by copying/moving the clustered file system ... you can now
// docker run and deploy quick and easily against an entirely new set of
// hardware").
func (fs *FS) Snapshot() *FS {
	if fs.dir != "" {
		// Disk-backed namespaces snapshot into memory: the portable unit
		// is the file contents, not the directory.
		clone := New()
		for _, p := range fs.dirList("") {
			if data, err := fs.dirRead(p); err == nil {
				clone.files[p] = data
			}
		}
		return clone
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	clone := New()
	for p, d := range fs.files {
		clone.files[p] = append([]byte(nil), d...)
	}
	return clone
}

// ShardStore returns a columnar.PageStore backed by this filesystem under
// the shard's private file-set directory. Each shard has its own file set
// that is not shared (§II.E).
func (fs *FS) ShardStore(shardID int) columnar.PageStore {
	return &shardStore{fs: fs, prefix: fmt.Sprintf("shards/%04d/pages/", shardID)}
}

type shardStore struct {
	fs     *FS
	prefix string
}

func (s *shardStore) pagePath(id page.ID) string {
	return fmt.Sprintf("%sT%08d/C%04d/S%08d", s.prefix, id.Table, id.Column, id.Stride)
}

func (s *shardStore) WritePage(id page.ID, data []byte) error {
	s.fs.WriteFile(s.pagePath(id), data)
	return nil
}

func (s *shardStore) ReadPage(id page.ID) ([]byte, error) {
	return s.fs.ReadFile(s.pagePath(id))
}

func (s *shardStore) DeletePage(id page.ID) error {
	s.fs.Remove(s.pagePath(id))
	return nil
}

func (s *shardStore) DeletePages(table uint32) error {
	s.fs.RemovePrefix(fmt.Sprintf("%sT%08d/", s.prefix, table))
	return nil
}
