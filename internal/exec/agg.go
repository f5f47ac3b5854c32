package exec

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
// unless it arrives boxed. The workers' tables and spilled records are then
// folded into one table, and the groups are emitted as typed vectors in key
// order (NULLs first), so the output is a function of the data, not of the
// worker count or batch arrival order.
//
// With a governor every table charges one shared HASHHEAP reservation for
// what it allocates; when a Grow is denied the worker spills its largest
// partition (see groupTable) and the merge folds the spilled groups back in,
// so results are identical to the in-memory path.
type GroupByOp struct {
	Child     Operator
	GroupBy   []Expr
	GroupCols types.Schema // names/kinds for the group key outputs
	Aggs      []AggSpec
	Gov       *mem.Governor
	Dop       int // ingest workers wanted; see Workers for how many run

	res   *mem.Reservation // shared by all workers; mem counters are atomic
	files []*mem.SpillFile // every worker's partition run files

	out types.Schema

	// The grouping scheme, fixed from the first batch any worker sees: a key
	// position whose vector arrives dictionary-encoded groups on the code, so
	// tables and spill records hold fixed-width codes and key cells decode
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
		if err := t.ingest(keyVecs, argVecs, arg2Vecs, vb.Sel, vb.Rows()); err != nil {
			return t, err
		}
	}
	return t, nil
}

// merge folds the workers' tables and every spilled record into one table,
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
		for _, l := range rec {
			l.grow(1)
		}
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
// would not be sorting by value.
func (g *GroupByOp) emit(t *groupTable) error {
	nk := len(g.GroupBy)
	g.ids = t.ids
	cols := make([]*vec.Vector, nk, nk+len(g.Aggs))
	keys := make([]sortCol, nk)
	doms := make([][]types.Value, nk)
	for k := range cols {
		kind := t.shape.kinds[k]
		if t.ids == idsBytes && !t.shape.code[k] {
			kind = types.KindNull // cells keep the kind they arrived with
		}
		cols[k] = vec.New(kind, t.n)
		keys[k] = sortCol{v: cols[k]}
		if t.shape.code[k] {
			doms[k] = t.shape.dicts[k].Snapshot()
		}
	}
	var cells types.Row
	for id := 0; id < t.n; id++ {
		cells = t.keyCells(cells[:0], uint32(id))
		for k, c := range cells {
			if doms[k] != nil && !c.IsNull() {
				c = doms[k][c.Int()]
			}
			cols[k].Set(id, c)
		}
	}
	for _, l := range t.lanes {
		col, err := l.result(t.n)
		if err != nil {
			return err
		}
		if col.Nulls != nil && col.Any == nil {
			// An aggregate over no values is the untyped NULL: a cluster's
			// final statement computes it by expression over the shards'
			// partials (AVG is CAST(SUM(_S) AS DOUBLE)/SUM(_C), NULL/NULL),
			// and mpp's parity tests hold one engine to the same value, kind
			// included (TestAvgMergeCorners).
			boxed := vec.New(types.KindNull, t.n)
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
	g.sorted.sort(keys, t.n) // the keys are unique: the id tiebreak never decides
	return nil
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
