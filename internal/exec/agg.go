package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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

// accumulator holds running state for one aggregate in one group.
type accumulator struct {
	count    int64
	intSum   int64
	floatSum float64
	isFloat  bool
	sumSq    float64
	sumXY    float64
	sumX     float64
	sumY     float64
	pairN    int64
	min, max types.Value
	vals     []float64            // for MEDIAN / PERCENTILE
	distinct map[types.Value]bool // for COUNT(DISTINCT)
}

// addVals accumulates one position's argument values; ingest evaluates the
// arguments a batch at a time and feeds them here.
func (a *accumulator) addVals(spec AggSpec, v, v2 types.Value) error {
	switch spec.Func {
	case AggCountStar:
		a.count++
		return nil
	case AggCovarPop, AggCovarSamp:
		if v.IsNull() || v2.IsNull() {
			return nil
		}
		x, _ := v.AsFloat()
		y, _ := v2.AsFloat()
		a.pairN++
		a.sumX += x
		a.sumY += y
		a.sumXY += x * y
		return nil
	}
	if v.IsNull() {
		return nil
	}
	a.count++
	switch spec.Func {
	case AggCount:
	case AggCountDistinct:
		if a.distinct == nil {
			a.distinct = make(map[types.Value]bool)
		}
		a.distinct[v] = true
	case AggSum, AggAvg, AggStddevPop, AggStddevSamp, AggVarPop, AggVarSamp:
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("exec: non-numeric value %v in aggregate", v)
		}
		if v.Kind() == types.KindFloat {
			a.isFloat = true
		}
		if i, ok := v.AsInt(); ok && v.Kind() == types.KindInt {
			a.intSum += i
		}
		a.floatSum += f
		a.sumSq += f * f
	case AggMin:
		if a.min.IsNull() || types.Compare(v, a.min) < 0 {
			a.min = v
		}
	case AggMax:
		if a.max.IsNull() || types.Compare(v, a.max) > 0 {
			a.max = v
		}
	case AggMedian, AggPercentileCont, AggPercentileDisc:
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("exec: non-numeric value %v in percentile aggregate", v)
		}
		a.vals = append(a.vals, f)
	}
	return nil
}

// merge folds another accumulator for the same (spec, group) into a.
// COUNT, integer SUM (wraparound addition is associative), MIN and MAX
// merge exactly; AVG and the moment-based STDDEV/VARIANCE/COVARIANCE
// families merge by summing running moments (float sums reassociate, so
// results are exact whenever the serial sums are); COUNT(DISTINCT)
// merges by set union. Percentile/median state merges by concatenation,
// which is exact but unbounded — spilled runs merge that way, but
// GroupByOp never splits those across workers (see MergeableAggs).
func (a *accumulator) merge(o *accumulator) {
	a.count += o.count
	a.intSum += o.intSum
	a.floatSum += o.floatSum
	a.isFloat = a.isFloat || o.isFloat
	a.sumSq += o.sumSq
	a.sumXY += o.sumXY
	a.sumX += o.sumX
	a.sumY += o.sumY
	a.pairN += o.pairN
	if !o.min.IsNull() && (a.min.IsNull() || types.Compare(o.min, a.min) < 0) {
		a.min = o.min
	}
	if !o.max.IsNull() && (a.max.IsNull() || types.Compare(o.max, a.max) > 0) {
		a.max = o.max
	}
	a.vals = append(a.vals, o.vals...)
	if len(o.distinct) > 0 {
		if a.distinct == nil {
			a.distinct = make(map[types.Value]bool, len(o.distinct))
		}
		for v := range o.distinct {
			a.distinct[v] = true
		}
	}
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

func (a *accumulator) result(spec AggSpec) types.Value {
	switch spec.Func {
	case AggCountStar, AggCount:
		return types.NewInt(a.count)
	case AggCountDistinct:
		return types.NewInt(int64(len(a.distinct)))
	case AggSum:
		if a.count == 0 {
			return types.Null
		}
		if !a.isFloat {
			return types.NewInt(a.intSum)
		}
		return types.NewFloat(a.floatSum)
	case AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat(a.floatSum / float64(a.count))
	case AggMin:
		return a.min
	case AggMax:
		return a.max
	case AggVarPop, AggVarSamp, AggStddevPop, AggStddevSamp:
		n := float64(a.count)
		if a.count == 0 {
			return types.Null
		}
		div := n
		if spec.Func == AggVarSamp || spec.Func == AggStddevSamp {
			if a.count < 2 {
				return types.Null
			}
			div = n - 1
		}
		mean := a.floatSum / n
		variance := (a.sumSq - n*mean*mean) / div
		if variance < 0 {
			variance = 0 // guard FP noise
		}
		if spec.Func == AggStddevPop || spec.Func == AggStddevSamp {
			return types.NewFloat(math.Sqrt(variance))
		}
		return types.NewFloat(variance)
	case AggMedian:
		return percentileCont(a.vals, 0.5)
	case AggPercentileCont:
		return percentileCont(a.vals, spec.Param)
	case AggPercentileDisc:
		return percentileDisc(a.vals, spec.Param)
	case AggCovarPop, AggCovarSamp:
		if a.pairN == 0 {
			return types.Null
		}
		n := float64(a.pairN)
		div := n
		if spec.Func == AggCovarSamp {
			if a.pairN < 2 {
				return types.Null
			}
			div = n - 1
		}
		return types.NewFloat((a.sumXY - a.sumX*a.sumY/n) / div)
	}
	return types.Null
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
// (MergeableAggs) and no expression is opaque; otherwise one. Keys and
// arguments are evaluated column-at-a-time over each batch and only the
// group keys are materialized as rows, never the input tuples. The tables
// are then merged partition by partition and the groups emitted in key
// order (NULLs first), so the output is a function of the data, not of the
// worker count or batch arrival order.
//
// With a governor every table charges one shared HASHHEAP reservation;
// when a Grow is denied the worker spills its largest partition (see
// groupTable) and the merge folds the spilled states back in, so results
// are identical to the in-memory path.
type GroupByOp struct {
	Child     Operator
	GroupBy   []Expr
	GroupCols types.Schema // names/kinds for the group key outputs
	Aggs      []AggSpec
	Gov       *mem.Governor
	Dop       int // ingest workers wanted; see Workers for how many run

	res   *mem.Reservation // shared by all workers; mem counters are atomic
	files []*mem.SpillFile // every worker's partition run files

	out     types.Schema
	results rowQueue

	// Operate-on-compressed group keys: a key position whose vector
	// arrives dictionary-encoded groups on the code (stored as an INT
	// cell), so the hash tables and spill runs hold fixed-width codes
	// instead of decoded values and key cells decode once per distinct
	// group at emit, not once per row. Adopted from the first batch any
	// worker sees; the scan latch fixes one dictionary per column for the
	// whole scan, so every worker's batches carry the adopted dictionary.
	adoptOnce  sync.Once
	keyCode    []bool
	anyKeyCode bool
	keyDicts   []*encoding.Dict
	keyDoms    [][]types.Value
	keyKinds   []types.Kind
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

type groupState struct {
	key  types.Row
	accs []accumulator
}

// Open implements Operator: it consumes the whole child, merges the
// workers' tables and materializes the result rows.
func (g *GroupByOp) Open() error {
	if err := g.Child.Open(); err != nil {
		return err
	}
	defer g.Child.Close()
	g.adoptOnce = sync.Once{}
	g.keyCode, g.keyDicts, g.keyDoms, g.keyKinds, g.anyKeyCode = nil, nil, nil, nil, false
	g.res = g.Gov.Acquire(mem.HashHeap)
	tables := make([]*groupTable, g.Workers())
	for i := range tables {
		tables[i] = &groupTable{res: g.res, naggs: len(g.Aggs), surcharge: rowSurcharge(g.Aggs)}
	}
	err := g.ingest(tables)
	// Adopt every spill file before inspecting the error, so an error
	// return still lets Close remove them from disk.
	for _, t := range tables {
		for _, f := range t.spills {
			if f != nil {
				g.files = append(g.files, f)
			}
		}
	}
	if err != nil {
		return err
	}
	groups, err := g.merge(tables)
	if err != nil {
		return err
	}
	if len(groups) == 0 && len(g.GroupBy) == 0 {
		groups = append(groups, &groupState{accs: make([]accumulator, len(g.Aggs))})
	}
	// Late materialization: code-valued key cells decode once per distinct
	// group. This must happen BEFORE the emit sort — frequency-partitioned
	// dictionary codes are not globally order-preserving, so sorting by
	// code would not be sorting by value.
	if g.anyKeyCode {
		for _, st := range groups {
			for k := range st.key {
				if !g.keyCode[k] || st.key[k].IsNull() {
					continue
				}
				if c, ok := st.key[k].AsInt(); ok && c >= 0 && int(c) < len(g.keyDoms[k]) {
					st.key[k] = g.keyDoms[k][c]
				}
			}
		}
	}
	slices.SortFunc(groups, func(a, b *groupState) int { return groupKeyCompare(a.key, b.key) })
	g.results.rows = make([]types.Row, 0, len(groups))
	for _, st := range groups {
		row := make(types.Row, 0, len(st.key)+len(g.Aggs))
		row = append(row, st.key...)
		for i := range g.Aggs {
			row = append(row, st.accs[i].result(g.Aggs[i]))
		}
		g.results.rows = append(g.results.rows, row)
	}
	return nil
}

// Workers reports how many ingest workers Open runs: Dop when the child can
// be pulled from several goroutines, every aggregate merges exactly from
// per-worker partials and every key and argument is kernel-evaluated, else
// 1 (join output, MEDIAN/PERCENTILE, an opaque expression here or in a
// filter or projection below). EXPLAIN prints it.
func (g *GroupByOp) Workers() int {
	if g.Dop > 1 && MergeableAggs(g.Aggs) && Vectorizable(g.Exprs()...) && concurrentPull(g.Child) {
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
// row-state operator owns a cursor, and an opaque expression (UDF,
// sequence, subquery) has never run on two goroutines and must not start.
func concurrentPull(op Operator) bool {
	switch o := op.(type) {
	case *StatsOp:
		return concurrentPull(o.Child)
	case *FilterOp:
		return Vectorizable(o.Pred) && concurrentPull(o.Child)
	case *ProjectOp:
		return Vectorizable(o.Exprs...) && concurrentPull(o.Child)
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
	for w, t := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[w] = g.consume(t, &stop); errs[w] != nil {
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

// merge combines the workers' tables into the final group list. The group
// hash assigns every group to one partition in every table, so partitions
// merge independently and in parallel: each goroutine folds one
// partition's in-memory partials together and replays that partition's
// spill runs. One table with nothing spilled already is the result.
func (g *GroupByOp) merge(tables []*groupTable) ([]*groupState, error) {
	merged := make([]map[uint64][]*groupState, aggPartitions)
	if len(tables) == 1 && len(g.files) == 0 {
		copy(merged, tables[0].parts[:])
	} else {
		errs := make([]error, aggPartitions)
		var wg sync.WaitGroup
		sem := make(chan struct{}, len(tables))
		for p := range merged {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				merged[p], errs[p] = mergePartition(tables, p, g.res)
			}()
		}
		wg.Wait()
		if err := firstError(errs); err != nil {
			return nil, err
		}
		for _, f := range g.files {
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
		g.files = nil
	}
	n := 0
	for _, part := range merged {
		n += len(part) // hash buckets: the group count but for collisions
	}
	groups := make([]*groupState, 0, n)
	for _, part := range merged {
		for _, states := range part {
			groups = append(groups, states...)
		}
	}
	return groups, nil
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
func (g *GroupByOp) CodeKeyCount() int {
	n := 0
	for _, c := range g.keyCode {
		if c {
			n++
		}
	}
	return n
}

// adopt fixes the grouping scheme per key position from the first batch's
// key vectors; only a bare column reference can deliver an encoded vector.
func (g *GroupByOp) adopt(keyVecs []*vec.Vector) {
	g.keyCode = make([]bool, len(keyVecs))
	g.keyDicts = make([]*encoding.Dict, len(keyVecs))
	g.keyDoms = make([][]types.Value, len(keyVecs))
	g.keyKinds = make([]types.Kind, len(keyVecs))
	for k, kv := range keyVecs {
		if kv.Encoded() {
			g.keyCode[k] = true
			g.anyKeyCode = true
			g.keyDicts[k] = kv.Dict
			g.keyDoms[k] = kv.Dom()
			g.keyKinds[k] = kv.Kind
		}
	}
}

// consume is one worker's ingest loop, and the only one. It aggregates
// straight from batches: group keys and aggregate arguments are computed one
// column at a time over each batch, then accumulated per selected position.
// Several workers may pull the child concurrently; each owns the batches it
// receives and its table.
func (g *GroupByOp) consume(t *groupTable, stop *atomic.Bool) error {
	key := make(types.Row, len(g.GroupBy))
	keyVecs := make([]*vec.Vector, len(g.GroupBy))
	argVecs := make([]*vec.Vector, len(g.Aggs))
	arg2Vecs := make([]*vec.Vector, len(g.Aggs))
	for !stop.Load() {
		vb, err := g.Child.Next()
		if err != nil {
			return err
		}
		if vb == nil {
			return nil
		}
		for i, e := range g.GroupBy {
			if keyVecs[i], err = evalVec(e, vb); err != nil {
				return err
			}
		}
		g.adoptOnce.Do(func() { g.adopt(keyVecs) })
		for ai, spec := range g.Aggs {
			if spec.Arg != nil {
				if argVecs[ai], err = evalVec(spec.Arg, vb); err != nil {
					return err
				}
			}
			if spec.Arg2 != nil {
				if arg2Vecs[ai], err = evalVec(spec.Arg2, vb); err != nil {
					return err
				}
			}
		}
		for _, i := range vb.Idx() {
			for k, kv := range keyVecs {
				if g.keyCode[k] {
					switch {
					case kv.IsNull(i):
						key[k] = types.NullOf(g.keyKinds[k])
					case kv.Encoded() && kv.Dict == g.keyDicts[k]:
						key[k] = types.NewInt(int64(kv.Codes[i]))
					default:
						// Defensive: a batch outside the adopted
						// dictionary (unreachable within one scan).
						code, ok := g.keyDicts[k].EncodeExisting(kv.Get(i))
						if !ok {
							return fmt.Errorf("exec: group key outside adopted dictionary")
						}
						key[k] = types.NewInt(int64(code))
					}
					continue
				}
				key[k] = kv.Get(i)
			}
			st, err := t.lookup(key)
			if err != nil {
				return err
			}
			for ai := range g.Aggs {
				if g.Aggs[ai].Func == AggCountStar {
					st.accs[ai].count++
					continue
				}
				v := argVecs[ai].Get(i)
				var v2 types.Value
				if arg2Vecs[ai] != nil {
					v2 = arg2Vecs[ai].Get(i)
				}
				if err := st.accs[ai].addVals(g.Aggs[ai], v, v2); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// groupKeyEqual compares group keys with NULL == NULL (SQL GROUP BY puts
// NULLs into one group, unlike comparison semantics).
func groupKeyEqual(a, b types.Row) bool {
	for i := range a {
		an, bn := a[i].IsNull(), b[i].IsNull()
		if an != bn {
			return false
		}
		if !an && types.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// groupKeyCompare orders group keys column-by-column (the emit order);
// types.Compare puts NULLs first and NaNs last.
func groupKeyCompare(a, b types.Row) int {
	for i := range a {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Next implements Operator.
func (g *GroupByOp) Next() (*vec.Batch, error) { return g.results.next(g.Schema(), true), nil }

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
	g.results.rows = nil
	return firstErr
}
