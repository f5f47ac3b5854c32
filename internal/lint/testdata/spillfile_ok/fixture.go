//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package spill is the negative spillfile fixture: run files created
// through the governed type, Close paths that release every field, and
// structs whose spill state is owned by an enclosing operator.
package spill

import "os"

// SpillFile stands in for the governed run-file type (fixtures import
// only the standard library; the analyzer matches the type by name).
type SpillFile struct{ f *os.File }

func (s *SpillFile) Close() error { return s.f.Close() }

// sorter releases every run it holds.
type sorter struct {
	runs []*SpillFile
	pos  int
}

func (s *sorter) Close() error {
	var firstErr error
	for _, r := range s.runs {
		if err := r.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.runs = nil
	return firstErr
}

// partition state has no Close of its own: the enclosing operator owns
// the file lifecycle, so the analyzer leaves it alone.
type partition struct {
	build *SpillFile
	rows  int
}

func (p *partition) reset() {
	p.build = nil
	p.rows = 0
}

// bootstrap is infrastructure, not an operator: a justified direct file
// creation documents itself with a nolint.
func bootstrap(dir string) (*os.File, error) {
	return os.CreateTemp(dir, "bootstrap-*") //dashdb:nolint spillfile catalog bootstrap, not an operator run file
}
