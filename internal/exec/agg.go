package exec

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// AggFunc enumerates the aggregate functions, covering ANSI plus the
// Oracle / Netezza / DB2 dialect aggregates of §II.C (MEDIAN, PERCENTILE,
// STDDEV/VARIANCE families, COVARIANCE).
type AggFunc uint8

const (
	// AggCountStar counts rows.
	AggCountStar AggFunc = iota
	// AggCount counts non-NULL argument values.
	AggCount
	// AggCountDistinct counts distinct non-NULL argument values.
	AggCountDistinct
	// AggSum sums; integer inputs stay integral.
	AggSum
	// AggAvg averages.
	AggAvg
	// AggMin takes the minimum.
	AggMin
	// AggMax takes the maximum.
	AggMax
	// AggStddevPop is population standard deviation (STDDEV_POP, STDDEV).
	AggStddevPop
	// AggStddevSamp is sample standard deviation (STDDEV_SAMP).
	AggStddevSamp
	// AggVarPop is population variance (VAR_POP, VARIANCE).
	AggVarPop
	// AggVarSamp is sample variance (VAR_SAMP, VARIANCE_SAMP).
	AggVarSamp
	// AggMedian is Oracle/Netezza MEDIAN.
	AggMedian
	// AggPercentileCont is PERCENTILE_CONT(p): linear interpolation.
	AggPercentileCont
	// AggPercentileDisc is PERCENTILE_DISC(p): smallest value with
	// cumulative distribution >= p.
	AggPercentileDisc
	// AggCovarPop is population covariance of (Arg, Arg2).
	AggCovarPop
	// AggCovarSamp is sample covariance of (Arg, Arg2).
	AggCovarSamp
)

// AggSpec describes one aggregate output.
type AggSpec struct {
	Func  AggFunc
	Arg   Expr    // nil for COUNT(*)
	Arg2  Expr    // second argument for covariance
	Param float64 // percentile parameter in [0,1]
	Name  string  // output column name
}

// MergeableAggs reports whether every aggregate in the list merges
// exactly from thread-local partials. MEDIAN and PERCENTILE_* keep the
// full value list per group, so GroupByOp ingests them on one worker
// whatever its Dop.
func MergeableAggs(specs []AggSpec) bool {
	for _, s := range specs {
		switch s.Func {
		case AggMedian, AggPercentileCont, AggPercentileDisc:
			return false
		}
	}
	return true
}

func percentileCont(vals []float64, p float64) types.Value {
	if len(vals) == 0 {
		return types.Null
	}
	sort.Float64s(vals)
	pos := p * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return types.NewFloat(vals[lo])
	}
	frac := pos - float64(lo)
	return types.NewFloat(vals[lo]*(1-frac) + vals[hi]*frac)
}

func percentileDisc(vals []float64, p float64) types.Value {
	if len(vals) == 0 {
		return types.Null
	}
	sort.Float64s(vals)
	idx := int(math.Ceil(p*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	return types.NewFloat(vals[idx])
}

// GroupByOp is the engine's one hash aggregation (and, with no aggregates,
// its duplicate elimination: DISTINCT and UNION group on every column).
// With no group expressions it produces a single global group (one row
// even over empty input, per SQL).
//
// Open consumes the whole child into per-worker groupTables: Dop workers
// when the child tolerates concurrent pulls, every aggregate merges exactly
// (MergeableAggs) and no expression is stateful; otherwise one. Keys and
// arguments are evaluated column-at-a-time over each batch; the table turns
// the key vectors into a group-id vector and typed kernels update each
// aggregate's state lane through it — no input tuple and no key is boxed
// unless it arrives boxed. The workers' tables and spilled blocks are then
// folded into one table, and the groups are emitted as typed vectors in key
// order (NULLs first), so the output is a function of the data, not of the
// worker count or batch arrival order.
//
// With a governor every table charges one shared HASHHEAP reservation for
// what it allocates; when a Grow is denied the worker spills its largest
// partition (see groupTable) and the merge folds the spilled groups back in,
// so results are identical to the in-memory path.
//
// Publish, set by the planner under a LIMIT whose leading ORDER BY key is
// bare group key PublishKey (no HAVING or other filter in between), is the
// bound of the columnar scan that key's column comes from: each worker
// tightens it to the PublishN-th leading key among the groups it created
// (groupCut, a bounded sort's trim over group ids), so the scan stops
// delivering rows of groups the LIMIT drops, and cuts each batch to the
// bound before grouping it, so what a batch selected before the bound
// brings past it creates no group. The groups within the bound see all
// their rows; those past it may be partial, and the emit drops them.
type GroupByOp struct {
	Child     Operator
	GroupBy   []Expr
	GroupCols types.Schema // names/kinds for the group key outputs
	Aggs      []AggSpec
	Gov       *mem.Governor
	Dop       int // ingest workers wanted; see Workers for how many run

	Publish    *columnar.Bound
	PublishKey int
	PublishN   int

	res   *mem.Reservation // shared by all workers; mem counters are atomic
	files []*mem.SpillFile // every worker's partition run files

	out types.Schema

	// The grouping scheme, fixed from the first batch any worker sees: a key
	// position whose vector arrives dictionary-encoded groups on the code, so
	// tables and spilled blocks hold fixed-width codes and key cells decode
	// once per distinct group at emit, not once per row. The scan latch fixes
	// one dictionary per column for the whole scan, so every worker's batches
	// carry the adopted dictionary.
	adoptOnce sync.Once
	shape     *keyShape

	// What Open leaves for Next: the output columns indexed by group id, in
	// key order.
	sorted sortedCols
	// For EXPLAIN ANALYZE, readable after Close: the number of groups, the
	// bytes of group state the ingest tables held, and how the merged table
	// found its ids.
	groups int
	state  int64
	ids    idScheme
}

// Schema implements Operator: group columns then aggregate columns.
func (g *GroupByOp) Schema() types.Schema {
	if g.out == nil {
		g.out = append(types.Schema{}, g.GroupCols...)
		for _, a := range g.Aggs {
			kind := types.KindFloat
			switch a.Func {
			case AggCount, AggCountStar, AggCountDistinct:
				kind = types.KindInt
			case AggMin, AggMax, AggSum:
				kind = types.KindNull // depends on input; refined at runtime
			}
			g.out = append(g.out, types.Column{Name: a.Name, Kind: kind, Nullable: true})
		}
	}
	return g.out
}

// Open implements Operator: it consumes the whole child, merges the
// workers' tables and builds the output columns.
func (g *GroupByOp) Open() error {
	if g.Publish != nil {
		g.Publish.Reset() // the scan resets it only where it applies it
	}
	if err := g.Child.Open(); err != nil {
		return err
	}
	defer g.Child.Close()
	g.adoptOnce = sync.Once{}
	g.shape, g.sorted, g.groups, g.state, g.ids = nil, sortedCols{}, 0, 0, idsDirect
	g.res = g.Gov.Acquire(mem.HashHeap)
	tables := make([]*groupTable, g.Workers())
	err := g.ingest(tables)
	// Adopt every spill file before inspecting the error, so an error
	// return still lets Close remove them from disk.
	tables = slices.DeleteFunc(tables, func(t *groupTable) bool { return t == nil })
	for _, t := range tables {
		g.state += t.charged
		for _, f := range t.spills {
			if f != nil {
				g.files = append(g.files, f)
			}
		}
	}
	if err != nil || (len(tables) == 0 && len(g.GroupBy) > 0) {
		return err // failed, or no input and so no groups
	}
	final, err := g.merge(tables)
	if err != nil {
		return err
	}
	return g.emit(final)
}

// Workers reports how many ingest workers Open runs: Dop when the child can
// be pulled from several goroutines, every aggregate merges exactly from
// per-worker partials and no key or argument is stateful, else 1 (join
// output, MEDIAN/PERCENTILE, a stateful expression here or in a filter or
// projection below). EXPLAIN prints it.
func (g *GroupByOp) Workers() int {
	if g.Dop > 1 && MergeableAggs(g.Aggs) && !Stateful(g.Exprs()...) && concurrentPull(g.Child) {
		return g.Dop
	}
	return 1
}

// Exprs lists every grouping expression and aggregate argument.
func (g *GroupByOp) Exprs() []Expr {
	exprs := append([]Expr{}, g.GroupBy...)
	for _, a := range g.Aggs {
		if a.Arg != nil {
			exprs = append(exprs, a.Arg)
		}
		if a.Arg2 != nil {
			exprs = append(exprs, a.Arg2)
		}
	}
	return exprs
}

// concurrentPull reports whether Next may be called on op from several
// goroutines at once: a scan hands batches over a channel and filters and
// projections keep no per-call state, but a limit counts rows, a
// row-state operator owns a cursor, and a stateful expression (UDX,
// sequence, ROWNUM, subquery) must see its calls one at a time, in order.
func concurrentPull(op Operator) bool {
	switch o := op.(type) {
	case *StatsOp:
		return concurrentPull(o.Child)
	case *FilterOp:
		return !Stateful(o.Pred) && concurrentPull(o.Child)
	case *ProjectOp:
		return !Stateful(o.Exprs...) && concurrentPull(o.Child)
	case *ScanOp:
		return true
	}
	return false
}

// ingest drains the child into the tables, one worker goroutine per table.
// The first error stops the other workers at their next batch.
func (g *GroupByOp) ingest(tables []*groupTable) error {
	var stop atomic.Bool
	errs := make([]error, len(tables))
	var wg sync.WaitGroup
	for w := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tables[w], errs[w] = g.consume(&stop); errs[w] != nil {
				stop.Store(true)
			}
		}()
	}
	wg.Wait()
	return firstError(errs)
}

// firstError returns the first non-nil error of a per-goroutine error list.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// consume is one worker's ingest loop, and the only one: group keys and
// aggregate arguments are computed one column at a time over each batch and
// handed to the worker's table, which it builds from its first batch.
// Several workers may pull the child concurrently; each owns the batches it
// receives and its table. The table is returned with an error too: it may
// hold spill files.
func (g *GroupByOp) consume(stop *atomic.Bool) (t *groupTable, err error) {
	keyVecs := make([]*vec.Vector, len(g.GroupBy))
	argVecs := make([]*vec.Vector, len(g.Aggs))
	arg2Vecs := make([]*vec.Vector, len(g.Aggs))
	var c *groupCut
	if g.Publish != nil && g.PublishN > 0 {
		c = &groupCut{at: g.PublishN}
		defer c.release(g.res)
	}
	for !stop.Load() {
		vb, err := g.Child.Next()
		if err != nil || vb == nil {
			return t, err
		}
		for i, e := range g.GroupBy {
			if keyVecs[i], err = e.EvalVec(vb); err != nil {
				return t, err
			}
		}
		g.adoptOnce.Do(func() { g.shape = adoptKeys(keyVecs) })
		for ai, spec := range g.Aggs {
			if spec.Arg != nil {
				if argVecs[ai], err = spec.Arg.EvalVec(vb); err != nil {
					return t, err
				}
			}
			if spec.Arg2 != nil {
				if arg2Vecs[ai], err = spec.Arg2.EvalVec(vb); err != nil {
					return t, err
				}
			}
		}
		if t == nil {
			t = newGroupTable(g.shape, g.res, g.Aggs, argVecs)
		}
		if c == nil {
			err = t.ingest(keyVecs, argVecs, arg2Vecs, vb.Sel, vb.Rows())
		} else {
			err = g.ingestBounded(t, c, keyVecs, argVecs, arg2Vecs, vb.Idx())
		}
		if err != nil {
			return t, err
		}
		vb.Release() // the table holds copies of all it needs
	}
	return t, nil
}

// ingestBounded folds the live rows idx of a batch into a worker's table
// under a key-ordered LIMIT: a chunk at a time, each first cut to the rows
// within the bound published so far (within), so the rows a loose batch
// brings past the bound create no group. The groups each chunk creates are
// admitted to the worker's cut, which may tighten the bound before the
// next chunk is cut.
func (g *GroupByOp) ingestBounded(t *groupTable, c *groupCut, keys, args, arg2s []*vec.Vector, idx []int) error {
	for len(idx) > 0 {
		n := min(len(idx), g.chunk())
		part := idx[:n]
		if cut := within(g.Publish, keys[g.PublishKey], part, n, &c.rows); cut != nil {
			part = cut
		}
		if idx = idx[n:]; len(part) == 0 {
			continue
		}
		from, spilled := t.n, t.spilled
		if err := t.ingest(keys, args, arg2s, part, len(part)); err != nil {
			return err
		}
		if t.spilled != spilled {
			// drop moved the resident groups' ids, and a spilled group may
			// be created again: count the resident groups afresh, so none
			// counts twice.
			c.ids, c.at, from = c.ids[:0], g.PublishN, 0
		}
		g.admit(t, c, from, t.n)
	}
	return nil
}

// chunk is the most rows ingestBounded groups between two cuts.
func (g *GroupByOp) chunk() int { return max(4*g.PublishN, 64) }

// groupCut is a bounded group-by worker's cut on its leading key: a bounded
// sort's trim, applied to the ids of the groups the worker creates. When
// they first reach PublishN, and again each time they reach 2·PublishN, the
// worker orders their leading keys as the sort orders rows (sortedCols),
// keeps the first PublishN ids and publishes the PublishN-th key — exactly,
// as the sort's cutoff is (a NULL publishes nothing): PublishN groups at or
// before it are held, so a row past it sorts after all of them, and the
// scan keeps every row that ties with it. The selects are handed fewer
// than three keys a group created, and the published value keeps fewer
// than 2·PublishN of the keys seen besides its ties.
//
// The ids are charged to the group-by's reservation, 4 B a slot of
// capacity; a denied charge stops the selecting, and what was published
// stays.
type groupCut struct {
	ids  []uint32
	held int64 // bytes charged for ids' capacity
	at   int   // the count of ids that selects next: PublishN, then 2·PublishN
	off  bool  // a charge was denied
	rows []int // scratch: a chunk's rows within the bound
}

// release drops the ids and their charge: no more groups are counted.
func (c *groupCut) release(res *mem.Reservation) {
	res.Shrink(c.held)
	c.ids, c.held, c.off = nil, 0, true
}

// admit makes groups from..to-1 candidates as if one at a time, selecting
// whenever they reach c.at, a chunk at a time: only the last select a
// chunk brings runs, since it keeps what the selects before it would have
// kept. So the candidates never pass 2·PublishN and a chunk.
func (g *GroupByOp) admit(t *groupTable, c *groupCut, from, to int) {
	for from < to && !c.off {
		end, last := min(to, from+g.chunk()), -1 // last: the id whose admission selects
		if k := len(c.ids) + end - from - c.at; k >= 0 {
			last = end - 1 - k%g.PublishN
		}
		if need := len(c.ids) + end - from; need > cap(c.ids) {
			grown := min(max(need, 2*cap(c.ids), 64), 2*g.PublishN+g.chunk())
			if !g.res.Grow(4 * int64(grown-cap(c.ids))) {
				c.release(g.res)
				return
			}
			c.held += 4 * int64(grown-cap(c.ids))
			c.ids = append(make([]uint32, 0, grown), c.ids...)
		}
		for ; from < end; from++ {
			if c.ids = append(c.ids, uint32(from)); from == last {
				g.selectCut(t, c)
			}
		}
	}
}

// selectCut keeps the candidates among the first PublishN in the leading
// key's order and publishes the PublishN-th key.
func (g *GroupByOp) selectCut(t *groupTable, c *groupCut) {
	n := g.PublishN
	keys := keyVec(t, g.PublishKey, c.ids, len(c.ids))
	var s sortedCols
	s.sort([]sortCol{{v: keys, desc: g.Publish.Op == encoding.OpGE}}, len(c.ids), n)
	nth := keys.Get(int(s.order[n-1]))
	for i, r := range s.order {
		s.order[i] = c.ids[r]
	}
	c.ids, c.at = append(c.ids[:0], s.order...), 2*n
	g.Publish.Tighten(nth)
}

// within returns the positions among the live rows 0..rows-1 of v (through
// sel) whose key is within b — at most its value under OpLE, a NULL too,
// which sorts first ascending; at least it under OpGE — in dst's storage;
// nil, every row, before b holds a value. The others sort after the rows or
// groups whose key b published.
func within(b *columnar.Bound, v *vec.Vector, sel []int, rows int, dst *[]int) []int {
	x, ok := b.Value()
	if !ok {
		return nil
	}
	le, out := b.Op == encoding.OpLE, slices.Grow((*dst)[:0], rows) // not nil: none may be within
	xi, xf, xs := x.Int(), f64Word(x.Float()), x.Str()
	nulls := v.Nulls != nil || v.Any != nil
	ints := v.I64 != nil && !v.Const && v.Kind == x.Kind()
	floats := v.F64 != nil && !v.Const && x.Kind() == types.KindFloat
	strs := v.Str != nil && !v.Const && x.Kind() == types.KindString
	for r := range rows {
		i := at(sel, r)
		var c int
		switch {
		case nulls && v.IsNull(i):
			c = -1 // first ascending, last descending
		case ints:
			c = cmp.Compare(v.I64[i], xi)
		case floats:
			c = cmp.Compare(f64Word(v.F64[i]), xf)
		case strs:
			c = strings.Compare(v.Str[i], xs)
		default:
			c = types.Compare(v.Get(i), x)
		}
		if c == 0 || (c < 0) == le {
			out = append(out, i)
		}
	}
	*dst = out
	return out
}

// merge folds the workers' tables and every spilled block into one table,
// group by group through the table's own lookup. One table with nothing
// spilled already is the result; no table at all is a global aggregate over
// empty input, whose one group every lane reports empty.
func (g *GroupByOp) merge(tables []*groupTable) (*groupTable, error) {
	if len(tables) == 0 {
		tables = []*groupTable{newGroupTable(adoptKeys(nil), g.res, g.Aggs, nil)}
	}
	final := tables[0]
	final.final = true
	for _, t := range tables[1:] {
		final.absorb(t)
	}
	if len(g.files) > 0 {
		rec := newLanes(g.Aggs, nil)
		for _, f := range g.files {
			if err := final.replay(f, rec); err != nil {
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
	}
	if len(g.GroupBy) == 0 {
		final.lookupCells(nil) // the global group exists over empty input too
	}
	return final, nil
}

// emit builds the output columns, indexed by group id, and puts the ids in
// key order for Next. Late materialization: code-valued key cells decode
// here, once per distinct group, and BEFORE the sort — frequency-partitioned
// dictionary codes are not globally order-preserving, so sorting by code
// would not be sorting by value. Under a published bound only the groups
// within it are emitted (kept): the LIMIT above reaches none of the others.
func (g *GroupByOp) emit(t *groupTable) error {
	nk := len(g.GroupBy)
	g.ids = t.ids
	keep := g.kept(t)
	n := t.n
	if keep != nil {
		n = len(keep)
	}
	cols := make([]*vec.Vector, nk, nk+len(g.Aggs))
	keys := make([]sortCol, nk)
	for k := range cols {
		cols[k] = keyVec(t, k, keep, n)
		keys[k] = sortCol{v: cols[k]}
	}
	for _, l := range t.lanes {
		col, err := l.result(t.n)
		if err != nil {
			return err
		}
		if keep != nil {
			col = gather(col, keep, 0, n)
		}
		if col.Nulls != nil && col.Any == nil {
			// An aggregate over no values is the untyped NULL: a cluster's
			// final statement computes it by expression over the shards'
			// partials (AVG is CAST(SUM(_S) AS DOUBLE)/SUM(_C), NULL/NULL),
			// and mpp's parity tests hold one engine to the same value, kind
			// included (TestAvgMergeCorners).
			boxed := vec.New(types.KindNull, n)
			for i := range boxed.Any {
				if boxed.Any[i] = types.Null; !col.IsNull(i) {
					boxed.Any[i] = col.Get(i)
				}
			}
			col = boxed
		}
		cols = append(cols, col)
	}
	g.groups = t.n
	g.sorted = sortedCols{cols: cols}
	g.sorted.sort(keys, n, n) // the keys are unique: the id tiebreak never decides
	return nil
}

// kept is the ids of the groups within the bound the group-by published,
// in id order, or nil when it published none. The groups past it sort
// after PublishN groups within it.
func (g *GroupByOp) kept(t *groupTable) []int {
	if g.Publish == nil {
		return nil
	}
	var keep []int
	return within(g.Publish, keyVec[int](t, g.PublishKey, nil, t.n), nil, t.n, &keep)
}

// CodeKeyed reports whether ingest can group at least one key on dictionary
// codes: a bare column key whose column flows encoded out of the child.
// Advisory like CompressedCols (Open adopts dictionaries from the batches);
// EXPLAIN uses it so the tag is the same before and after execution.
func (g *GroupByOp) CodeKeyed() bool {
	flags := CompressedCols(g.Child)
	for _, e := range g.GroupBy {
		if c, ok := e.(ColRef); ok && int(c) >= 0 && int(c) < len(flags) && flags[c] {
			return true
		}
	}
	return false
}

// CodeKeyCount reports how many group key positions ran in code space
// (adopted a dictionary from the first input batch). Valid after the
// operator has consumed its input; EXPLAIN ANALYZE reports it.
func (g *GroupByOp) CodeKeyCount() int { return g.shape.codeKeys() }

// GroupStats reports, once the operator has consumed its input, the number
// of groups, the bytes of group state the ingest tables had allocated (keys,
// slots and lanes at their capacity, plus side structures) and how group ids
// were found — "direct", "words" or "bytes". EXPLAIN ANALYZE reports it.
func (g *GroupByOp) GroupStats() (groups int, state int64, ids string) {
	return g.groups, g.state, g.ids.String()
}

// Next implements Operator: the next ChunkSize groups in key order.
func (g *GroupByOp) Next() (*vec.Batch, error) { return g.sorted.batch(g.Schema()), nil }

// SpillStats reports runs and bytes spilled, for EXPLAIN ANALYZE. Valid
// after Close (counters outlive the reservation's grant).
func (g *GroupByOp) SpillStats() (runs, bytes int64) {
	return g.res.SpillRuns(), g.res.SpillBytes()
}

// Close implements Operator: removes any spill runs an error path left
// open and releases the reservation.
func (g *GroupByOp) Close() error {
	var firstErr error
	for _, f := range g.files {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	g.files = nil
	g.res.Close()
	g.sorted = sortedCols{}
	return firstErr
}
