package mem

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// SpillSuffix marks every governor temp file, so sweeps can identify
// crash leftovers without touching anything else in the directory.
const SpillSuffix = ".spill"

// spillDir is the broker's lazily created temp directory. Lazy because
// most engines never spill: creating a directory per Open would litter
// the temp filesystem of every test and example that never calls Close.
type spillDir struct {
	parent string // "" = os.TempDir()

	mu   sync.Mutex
	path string // created directory; "" until first use
}

func (d *spillDir) ensure() (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.path != "" {
		return d.path, nil
	}
	parent := d.parent
	if parent == "" {
		parent = os.TempDir()
	} else {
		// A caller-provided directory persists across engine restarts:
		// sweep leftovers from a previous crash before reusing it.
		if err := os.MkdirAll(parent, 0o755); err != nil {
			return "", fmt.Errorf("mem: spill dir: %w", err)
		}
		if _, err := Sweep(parent); err != nil {
			return "", err
		}
		d.path = parent
		return d.path, nil
	}
	path, err := os.MkdirTemp(parent, "dashdb-spill-")
	if err != nil {
		return "", fmt.Errorf("mem: spill dir: %w", err)
	}
	d.path = path
	return d.path, nil
}

func (d *spillDir) remove() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.path == "" {
		return nil
	}
	path := d.path
	d.path = ""
	if d.parent != "" && path == d.parent {
		// Caller-owned directory: remove only our files, keep the dir.
		_, err := Sweep(path)
		return err
	}
	return os.RemoveAll(path)
}

// Sweep removes every *.spill file directly inside dir (crash leftovers
// from a previous engine run) and returns how many were removed.
func Sweep(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("mem: sweep %s: %w", dir, err)
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), SpillSuffix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return removed, fmt.Errorf("mem: sweep %s: %w", dir, err)
		}
		removed++
	}
	return removed, nil
}

// SpillFile is one operator temp file: write a run, Rewind, read it back,
// Close removes it from disk. Every spill file in the engine goes through
// this type — the dashdb-lint spillfile analyzer enforces both that rule
// and that operators release their files on the Close path, which is what
// keeps the temp directory empty after the engine shuts down.
type SpillFile struct {
	f    *os.File
	bw   *bufio.Writer
	br   *bufio.Reader
	size int64
	done bool
}

// newSpillFile creates a spill file inside dir. label names the operator
// for debuggability ("sort", "join-build-7", ...).
func newSpillFile(dir, label string) (*SpillFile, error) {
	f, err := os.CreateTemp(dir, "dashdb-"+label+"-*"+SpillSuffix)
	if err != nil {
		return nil, fmt.Errorf("mem: create spill file: %w", err)
	}
	return &SpillFile{f: f, bw: bufio.NewWriterSize(f, 64<<10)}, nil
}

// Write appends run bytes: the executor writes each batch block behind its
// uvarint length (internal/exec/spill.go).
func (s *SpillFile) Write(p []byte) (int, error) {
	if s.bw == nil {
		return 0, fmt.Errorf("mem: write to spill file after Rewind")
	}
	n, err := s.bw.Write(p)
	s.size += int64(n)
	return n, err
}

// Size returns the bytes written so far.
func (s *SpillFile) Size() int64 { return s.size }

// Rewind flushes buffered writes and switches the file to read mode from
// the start. Further Writes fail.
func (s *SpillFile) Rewind() error {
	if s.bw != nil {
		if err := s.bw.Flush(); err != nil {
			return fmt.Errorf("mem: flush spill file: %w", err)
		}
		s.bw = nil
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("mem: rewind spill file: %w", err)
	}
	if s.br == nil {
		s.br = bufio.NewReaderSize(s.f, 64<<10)
	} else {
		s.br.Reset(s.f)
	}
	return nil
}

// Read reads run bytes back after Rewind.
func (s *SpillFile) Read(p []byte) (int, error) {
	if s.br == nil {
		return 0, fmt.Errorf("mem: read from spill file before Rewind")
	}
	return s.br.Read(p)
}

// ReadByte reads one run byte back after Rewind (io.ByteReader).
func (s *SpillFile) ReadByte() (byte, error) {
	if s.br == nil {
		return 0, fmt.Errorf("mem: read from spill file before Rewind")
	}
	return s.br.ReadByte()
}

// Close closes and removes the file. Idempotent; always removes even when
// the close itself fails, so no spill file can outlive its operator.
func (s *SpillFile) Close() error {
	if s == nil || s.done {
		return nil
	}
	s.done = true
	name := s.f.Name()
	cerr := s.f.Close()
	rerr := os.Remove(name)
	if cerr != nil {
		return cerr
	}
	return rerr
}
