package exec

import (
	"container/heap"
	"io"
	"sort"

	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// SortKey is one ORDER BY term.
type SortKey struct {
	Expr Expr
	Desc bool
}

// SortOp emits its input ordered by the sort keys. NULLs sort first
// ascending (types.Compare convention), last descending. Its state is rows:
// it evaluates the keys over each input batch, boxes each live position once
// beside its key values, and emits row-built batches.
//
// With a nil Gov it buffers everything in memory. With a governor it
// becomes an external merge sort: input rows
// accumulate in a buffer charged against a SORTHEAP reservation; when a
// Grow is denied the buffer is sorted and spilled as one run (data row ++
// precomputed key values, rowcodec-encoded into a mem.SpillFile), and
// after the input is drained the runs are k-way merged on Next. Keys are
// computed once at ingest and carried through the spill, so merge
// comparisons never re-evaluate expressions.
type SortOp struct {
	Child Operator
	Keys  []SortKey
	Gov   *mem.Governor

	res  *mem.Reservation
	rows []types.Row
	keys []types.Row
	out  rowQueue // the sorted buffer, when nothing spilled

	runs   []*sortRun
	merged *runHeap
}

// sortRun is one spilled, sorted run being replayed during the merge.
type sortRun struct {
	file *mem.SpillFile
	rd   *encoding.RowReader
	seq  int       // run creation order, the stability tiebreak
	row  types.Row // current data row
	key  types.Row // current key values
}

func (r *sortRun) advance(nCols int) (bool, error) {
	combined, err := r.rd.ReadRow()
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	r.row, r.key = combined[:nCols:nCols], combined[nCols:]
	return true, nil
}

// Schema implements Operator.
func (s *SortOp) Schema() types.Schema { return s.Child.Schema() }

// Open implements Operator: drains the child, spilling sorted runs
// whenever the sort heap reservation denies growth.
func (s *SortOp) Open() error {
	if err := s.Child.Open(); err != nil {
		return err
	}
	defer s.Child.Close()
	s.res = s.Gov.Acquire(mem.SortHeap)

	var bufBytes int64
	var in []types.Row // the rows of one child batch
	keyVecs := make([]*vec.Vector, len(s.Keys))
	for {
		vb, err := s.Child.Next()
		if err != nil {
			return err
		}
		if vb == nil {
			break
		}
		for j, k := range s.Keys {
			if keyVecs[j], err = k.Expr.EvalVec(vb); err != nil {
				return err
			}
		}
		in = vb.AppendRows(in[:0])
		for n, i := range vb.Idx() {
			r := in[n]
			ks := make(types.Row, len(s.Keys))
			for j, kv := range keyVecs {
				ks[j] = kv.Get(i)
			}
			charge := mem.RowBytes(r) + mem.RowBytes(ks)
			if !s.res.Grow(charge) {
				if len(s.rows) > 0 {
					if err := s.spillRun(); err != nil {
						return err
					}
					s.res.Shrink(bufBytes)
					bufBytes = 0
				}
				if !s.res.Grow(charge) {
					// A single row larger than the heap: over-grant
					// rather than fail.
					s.res.MustGrow(charge)
				}
			}
			bufBytes += charge
			s.rows = append(s.rows, r)
			s.keys = append(s.keys, ks)
		}
	}

	if len(s.runs) == 0 {
		// Everything fit: plain in-memory sort.
		s.sortBuffer()
		s.out.rows = s.rows
		return nil
	}
	// Spill the final run too and merge uniformly from disk.
	if len(s.rows) > 0 {
		if err := s.spillRun(); err != nil {
			return err
		}
		s.res.Shrink(bufBytes)
	}
	return s.openMerge()
}

// sortBuffer stably sorts s.rows/s.keys in place by the sort keys.
func (s *SortOp) sortBuffer() {
	idx := make([]int, len(s.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return s.keyLess(s.keys[idx[a]], s.keys[idx[b]])
	})
	rows := make([]types.Row, len(s.rows))
	keys := make([]types.Row, len(s.keys))
	for i, ix := range idx {
		rows[i] = s.rows[ix]
		keys[i] = s.keys[ix]
	}
	s.rows, s.keys = rows, keys
}

func (s *SortOp) keyLess(ka, kb types.Row) bool {
	for j := range s.Keys {
		c := types.Compare(ka[j], kb[j])
		if c == 0 {
			continue
		}
		if s.Keys[j].Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// spillRun sorts the current buffer and writes it to a fresh spill file as
// combined rows (data ++ keys), then resets the buffer.
func (s *SortOp) spillRun() error {
	s.sortBuffer()
	f, err := s.res.NewSpillFile("sort")
	if err != nil {
		return err
	}
	w := encoding.NewRowWriter(f)
	combined := make(types.Row, 0, len(s.Schema())+len(s.Keys))
	for i, r := range s.rows {
		combined = append(combined[:0], r...)
		combined = append(combined, s.keys[i]...)
		if _, err := w.WriteRow(combined); err != nil {
			f.Close()
			return err
		}
	}
	s.res.NoteSpill(f.Size())
	s.runs = append(s.runs, &sortRun{file: f, seq: len(s.runs)})
	s.rows = s.rows[:0]
	s.keys = s.keys[:0]
	return nil
}

// openMerge rewinds every run and primes the k-way merge heap.
func (s *SortOp) openMerge() error {
	nCols := len(s.Child.Schema())
	s.merged = &runHeap{op: s}
	for _, run := range s.runs {
		if err := run.file.Rewind(); err != nil {
			return err
		}
		run.rd = encoding.NewRowReader(run.file)
		ok, err := run.advance(nCols)
		if err != nil {
			return err
		}
		if ok {
			s.merged.runs = append(s.merged.runs, run)
		}
	}
	heap.Init(s.merged)
	s.rows, s.keys = nil, nil
	return nil
}

// Next implements Operator.
func (s *SortOp) Next() (*vec.Batch, error) {
	if s.merged == nil {
		return s.out.next(s.Schema(), true), nil
	}
	if s.merged.Len() == 0 {
		return nil, nil
	}
	nCols := len(s.Child.Schema())
	// A fresh slice per batch: the rows go to the consumer.
	out := make([]types.Row, 0, ChunkSize)
	for len(out) < ChunkSize && s.merged.Len() > 0 {
		run := s.merged.runs[0]
		out = append(out, run.row)
		ok, err := run.advance(nCols)
		if err != nil {
			return nil, err
		}
		if ok {
			heap.Fix(s.merged, 0)
		} else {
			heap.Pop(s.merged)
			if err := run.file.Close(); err != nil {
				return nil, err
			}
		}
	}
	return vec.FromRows(s.Schema(), out), nil
}

// SpillStats reports runs and bytes spilled, for EXPLAIN ANALYZE. Valid
// after Close (counters outlive the reservation's grant).
func (s *SortOp) SpillStats() (runs, bytes int64) {
	return s.res.SpillRuns(), s.res.SpillBytes()
}

// Close implements Operator: releases the reservation and removes any
// spill files still open (early Close mid-merge).
func (s *SortOp) Close() error {
	var firstErr error
	for _, run := range s.runs {
		if err := run.file.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.runs, s.merged = nil, nil
	s.rows, s.keys, s.out.rows = nil, nil, nil
	s.res.Close()
	return firstErr
}

// runHeap is the k-way merge priority queue, ordered by sort keys with the
// run sequence number as tiebreak (earlier run = earlier input rows, which
// preserves the stability of the in-memory path).
type runHeap struct {
	op   *SortOp
	runs []*sortRun
}

func (h *runHeap) Len() int { return len(h.runs) }
func (h *runHeap) Less(i, j int) bool {
	a, b := h.runs[i], h.runs[j]
	if h.op.keyLess(a.key, b.key) {
		return true
	}
	if h.op.keyLess(b.key, a.key) {
		return false
	}
	return a.seq < b.seq
}
func (h *runHeap) Swap(i, j int) { h.runs[i], h.runs[j] = h.runs[j], h.runs[i] }

func (h *runHeap) Push(x any) {
	if run, ok := x.(*sortRun); ok {
		h.runs = append(h.runs, run)
	}
}
func (h *runHeap) Pop() any {
	n := len(h.runs)
	r := h.runs[n-1]
	h.runs = h.runs[:n-1]
	return r
}
