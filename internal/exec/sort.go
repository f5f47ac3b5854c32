package exec

import (
	"cmp"
	"io"
	"slices"
	"strings"

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

// sortCol is one key of an order: a column indexed by id, and its direction.
type sortCol struct {
	v    *vec.Vector
	desc bool
}

// keyOrder orders ids a and b by the keys — compareAt per key, DESC applied
// here and nowhere else — and then by id, so equal keys keep id order.
func keyOrder(keys []sortCol, a, b int) int {
	for _, k := range keys {
		if c := compareAt(k.v, a, b); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	return cmp.Compare(a, b)
}

// sortedCols is the executor's one order-and-gather emit, shared by SortOp
// and GroupByOp: output columns indexed by id, the ids in key order, and the
// emit cursor.
type sortedCols struct {
	cols  []*vec.Vector
	order []uint32
	next  int
}

// sort puts ids 0..n-1 in key order and rewinds the cursor.
func (s *sortedCols) sort(keys []sortCol, n int) {
	s.order, s.next = make([]uint32, n), 0
	for id := range s.order {
		s.order[id] = uint32(id)
	}
	slices.SortFunc(s.order, func(a, b uint32) int { return keyOrder(keys, int(a), int(b)) })
}

// batch gathers the next ChunkSize ids in order into typed vectors; nil
// after the last.
func (s *sortedCols) batch(sch types.Schema) *vec.Batch {
	if s.next >= len(s.order) {
		return nil
	}
	a, b := s.next, min(s.next+ChunkSize, len(s.order))
	s.next = b
	cols := make([]*vec.Vector, len(s.cols))
	for c, col := range s.cols {
		cols[c] = gather(col, s.order, a, b)
	}
	return vec.NewBatch(sch, cols, b-a)
}

// compareAt orders two positions of a column as types.Compare orders their
// values: NULLs first, NaNs last.
func compareAt(v *vec.Vector, a, b int) int {
	if an, bn := v.IsNull(a), v.IsNull(b); an || bn {
		return btoi(bn) - btoi(an)
	}
	switch {
	case v.I64 != nil:
		return cmp.Compare(v.I64[a], v.I64[b])
	case v.F64 != nil:
		return btoi(lessF64(v.F64[b], v.F64[a])) - btoi(lessF64(v.F64[a], v.F64[b]))
	case v.Str != nil:
		return strings.Compare(v.Str[a], v.Str[b])
	}
	return types.Compare(v.Any[a], v.Any[b])
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// put copies rows j0..j1-1 of src — positions through sel, nil for the
// dense range — to dst from row to: the executor's one typed row copy, which
// sort ingest, buffer growth and the emit gather run through. dst is boxed
// or has src's payload (bufKind); src is not a code vector.
func put[I int | uint32](dst, src *vec.Vector, to int, sel []I, j0, j1 int) {
	for j := j0; j < j1; j, to = j+1, to+1 {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		switch {
		case dst.Any != nil:
			dst.Any[to] = src.Get(i)
		case src.IsNull(i):
			dst.SetNull(to)
		case dst.I64 != nil:
			dst.I64[to] = src.I64[i]
		case dst.F64 != nil:
			dst.F64[to] = src.F64[i]
		default:
			dst.Str[to] = src.Str[i]
		}
	}
}

// gather copies rows sel[a:b] of src into a new vector, typed like src or
// boxed when src has no typed payload (a constant, a row-built batch's
// column); a code vector decodes first.
func gather[I int | uint32](src *vec.Vector, sel []I, a, b int) *vec.Vector {
	src.Materialize()
	kind := src.Kind
	if !typedVec(src) {
		kind = types.KindNull
	}
	dst := vec.New(kind, b-a)
	put(dst, src, 0, sel, a, b)
	return dst
}

// bufKind is the kind of a buffer that holds buf's rows and then v's: buf's
// own, or boxed (KindNull) when v's payload is not buf's — a UNION ALL of
// BIGINT and DOUBLE, a row-built batch, a constant. Boxing keeps every cell
// as it is, typed NULLs included.
func bufKind(buf, v *vec.Vector) types.Kind {
	if buf.Any != nil || (v.Kind == buf.Kind && typedVec(v)) {
		return buf.Kind
	}
	return types.KindNull
}

// kindWidth is the bytes charged a row of capacity of a column of kind k
// (KindNull: boxed): its payload and a null bit, rounded up. Strings' bytes
// are charged apart, as they arrive.
var kindWidth = [...]int64{types.KindNull: 49, types.KindBool: 9, types.KindInt: 9, types.KindFloat: 9,
	types.KindString: 17, types.KindDate: 9, types.KindTimestamp: 9}

// typedRows is row state held as typed columns, SortOp's and HashJoinOp's:
// one buffer per column, taking its payload kind from the batch that starts
// it and boxed in place when a later batch disagrees, rows appended a chunk
// at a time through put.
//
// It charges its reservation, before rows are copied, for every buffer it
// allocates — each capacity doubling in full (kindWidth a column, plus
// perRow, what its owner keeps a row beside the columns) and a buffer boxed
// in place — and for the strings the rows bring. Nothing is credited back
// here: the owner shrinks the reservation by what it drops.
type typedRows struct {
	res    *mem.Reservation
	perRow int64
	final  bool // never denied: a denied charge is over-granted
	cols   []*vec.Vector
	n, cap int
}

// add appends live rows from..to-1 of in — a code vector decodes into a
// copy first — in chunks that at most double the rows held, each charged
// before it is copied. It returns how many rows it took: fewer than asked
// means a charge was denied, and the owner spills before it asks again. With
// no rows held (the row that starts the buffers comes alone) a denied charge
// is over-granted instead.
func (b *typedRows) add(in []*vec.Vector, sel []int, from, to int) int {
	for c, v := range in {
		if v.Encoded() {
			d := *v
			d.Materialize()
			in[c] = &d
		}
	}
	done := from
	for done < to {
		if b.cols == nil {
			b.cols = make([]*vec.Vector, len(in))
			for c, v := range in {
				b.cols[c] = vec.New(v.Kind, 0)
			}
		}
		n := b.cap
		if b.n == n {
			n = max(minGroups, 2*n)
		}
		m := min(to-done, n-b.n, max(b.n, 1)) // at most doubling the rows held
		var need int64
		if n > b.cap {
			need = b.perRow * int64(n)
		}
		for c, v := range in {
			if k := bufKind(b.cols[c], v); k != b.cols[c].Kind || n > b.cap {
				need += kindWidth[k] * int64(n) // a new buffer
			}
			if v.I64 == nil && v.F64 == nil {
				for j := done; j < done+m; j++ {
					if x := v.Get(at(sel, j)); x.Kind() == types.KindString && !x.IsNull() {
						need += int64(len(x.Str()))
					}
				}
			}
		}
		if need > 0 && !b.res.Grow(need) {
			if b.n > 0 && !b.final {
				break
			}
			b.res.MustGrow(need)
		}
		for c, v := range in {
			if buf, k := b.cols[c], bufKind(b.cols[c], v); k != buf.Kind || n > b.cap {
				grown := vec.New(k, n)
				put(grown, buf, 0, []int(nil), 0, b.n)
				*buf = *grown
			}
			put(b.cols[c], v, b.n, sel, done, done+m)
		}
		b.n, b.cap, done = b.n+m, n, done+m
	}
	return done - from
}

// width is the bytes charged a row of capacity: perRow and every buffer's
// kindWidth.
func (b *typedRows) width() int64 {
	w := b.perRow
	for _, c := range b.cols {
		w += kindWidth[c.Kind]
	}
	return w
}

// row appends row r's cells to dst.
func (b *typedRows) row(dst types.Row, r int) types.Row {
	for _, c := range b.cols {
		dst = append(dst, c.Get(r))
	}
	return dst
}

// keep moves rows ids[i], ascending, down to i and drops the others in
// place; capacity stays allocated.
func (b *typedRows) keep(ids []int) {
	for _, c := range b.cols {
		src := *c
		c.Nulls = nil // the survivors' NULLs are set afresh
		put(c, &src, 0, ids, 0, len(ids))
	}
	b.n = len(ids)
}

// SortOp emits its input stably ordered by the sort keys: NULLs first
// ascending (types.Compare convention), last descending. Its state is
// typedRows — a buffer per output column and per key that is not a bare
// column — and it emits through sortedCols, as GroupByOp does.
//
// With a governor the buffers charge a SORTHEAP reservation, 4 B a row of
// capacity for the order beside them; nothing is credited back until a spill
// drops them. A denied charge sorts the buffered rows and spills them as one
// rowcodec run — the data cells, then the cells of the keys that are not
// bare columns — and Next k-way merges the runs, comparing their key cells
// through keyOrder, never re-evaluating a key.
type SortOp struct {
	Child Operator
	Keys  []SortKey
	Gov   *mem.Governor

	res    *mem.Reservation
	keyCol []int      // the buffer each key reads
	rows   typedRows  // output columns, then computed keys
	out    sortedCols // the buffered rows in key order, when nothing spilled

	runs    []*sortRun
	runKeys []sortCol  // every run's current key cells, at the run's seq
	live    []*sortRun // the runs not at their end, in merge order (push)
	merged  rowQueue
}

// sortRun is one spilled, sorted run being replayed during the merge.
type sortRun struct {
	file *mem.SpillFile
	rd   *encoding.RowReader
	seq  int       // run creation order, the stability tiebreak
	row  types.Row // current data row
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
	s.rows = typedRows{res: s.res, perRow: 4}
	nCols := len(s.Schema())
	var computed []Expr
	s.keyCol = make([]int, len(s.Keys))
	for j, k := range s.Keys {
		c, ok := k.Expr.(ColRef)
		if !ok || int(c) < 0 || int(c) >= nCols {
			c = ColRef(nCols + len(computed))
			computed = append(computed, k.Expr)
		}
		s.keyCol[j] = int(c)
	}
	in := make([]*vec.Vector, nCols+len(computed))
	for {
		vb, err := s.Child.Next()
		if err != nil {
			return err
		}
		if vb == nil {
			break
		}
		for j, e := range computed {
			if in[nCols+j], err = e.EvalVec(vb); err != nil {
				return err
			}
		}
		for c := range nCols {
			in[c] = vb.Col(c)
		}
		for done, rows := 0, vb.Rows(); done < rows; {
			if done += s.rows.add(in, vb.Sel, done, rows); done < rows {
				if err := s.spill(); err != nil {
					return err
				}
			}
		}
	}
	if len(s.runs) == 0 {
		s.sortBuf()
		return nil
	}
	if s.rows.n > 0 {
		if err := s.spill(); err != nil {
			return err
		}
	}
	return s.openMerge()
}

// sortBuf puts the buffered rows in key order.
func (s *SortOp) sortBuf() {
	if s.rows.n == 0 {
		return
	}
	keys := make([]sortCol, len(s.Keys))
	for j, k := range s.Keys {
		keys[j] = sortCol{v: s.rows.cols[s.keyCol[j]], desc: k.Desc}
	}
	s.out = sortedCols{cols: s.rows.cols[:len(s.Schema())]}
	s.out.sort(keys, s.rows.n)
}

// spill writes the buffered rows to a fresh spill file as one sorted run,
// every buffer's cells a row, and drops the buffers and their charge.
func (s *SortOp) spill() error {
	s.sortBuf()
	f, err := s.res.NewSpillFile("sort")
	if err != nil {
		return err
	}
	s.runs = append(s.runs, &sortRun{file: f, seq: len(s.runs)})
	w := encoding.NewRowWriter(f)
	var row types.Row
	for _, id := range s.out.order {
		row = s.rows.row(row[:0], int(id))
		if _, err := w.WriteRow(row); err != nil {
			return err
		}
	}
	s.res.NoteSpill(f.Size())
	s.res.Shrink(s.res.Used())
	s.rows.cols, s.rows.n, s.rows.cap, s.out = nil, 0, 0, sortedCols{}
	return nil
}

// openMerge rewinds every run and files each in the merge.
func (s *SortOp) openMerge() error {
	s.runKeys = make([]sortCol, len(s.Keys))
	for j, k := range s.Keys {
		s.runKeys[j] = sortCol{v: vec.New(types.KindNull, len(s.runs)), desc: k.Desc}
	}
	for _, run := range s.runs {
		if err := run.file.Rewind(); err != nil {
			return err
		}
		run.rd = encoding.NewRowReader(run.file)
		if err := s.push(run); err != nil {
			return err
		}
	}
	return nil
}

// push reads run's next row, files its key cells at the run's seq in
// runKeys and the run in live, or closes the run at its end. live holds the
// runs last-first by keyOrder over those cells, the run seq as the id: among
// equal keys the earlier run (earlier input rows) comes first, so the merge
// is stable.
func (s *SortOp) push(run *sortRun) error {
	row, err := run.rd.ReadRow()
	if err == io.EOF {
		return run.file.Close()
	}
	if err != nil {
		return err
	}
	nCols := len(s.Schema())
	run.row = row[:nCols:nCols]
	for j, c := range s.keyCol {
		s.runKeys[j].v.Any[run.seq] = row[c]
	}
	i, _ := slices.BinarySearchFunc(s.live, run, func(a, b *sortRun) int { return keyOrder(s.runKeys, b.seq, a.seq) })
	s.live = slices.Insert(s.live, i, run)
	return nil
}

// Next implements Operator.
func (s *SortOp) Next() (*vec.Batch, error) {
	if len(s.runs) == 0 {
		return s.out.batch(s.Schema()), nil
	}
	for len(s.merged.rows) < ChunkSize && len(s.live) > 0 {
		run := s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		s.merged.rows = append(s.merged.rows, run.row)
		if err := s.push(run); err != nil {
			return nil, err
		}
	}
	return s.merged.next(s.Schema(), true), nil
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
	s.runs, s.live, s.merged = nil, nil, rowQueue{}
	s.rows.cols, s.rows.n, s.rows.cap, s.out = nil, 0, 0, sortedCols{}
	s.res.Close()
	return firstErr
}
