//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package spill exercises the spillfile analyzer: executor packages must
// not mint temp files directly, and operator structs that hold run files
// must release them on their Close path.
package spill

import "os"

// SpillFile stands in for the governed run-file type (fixtures import
// only the standard library; the analyzer matches the type by name).
type SpillFile struct{ f *os.File }

func (s *SpillFile) Close() error { return s.f.Close() }

func rawRun(dir string) (*os.File, error) {
	return os.CreateTemp(dir, "run-*.spill") //lint:expect spillfile
}

func rawOverwrite(path string) (*os.File, error) {
	return os.Create(path) //lint:expect spillfile
}

func rawAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644) //lint:expect spillfile
}

// sorter holds spill runs and declares Close, but Close forgets them.
type sorter struct {
	runs []*SpillFile //lint:expect spillfile
	pos  int
}

func (s *sorter) Close() error {
	s.pos = 0
	return nil
}

// joiner leaks through a direct field rather than a slice.
type joiner struct {
	build *SpillFile //lint:expect spillfile
	probe *SpillFile //lint:expect spillfile
}

func (j *joiner) Close() error { return nil }
