package exec

// The group table of grouped aggregation and its spill scheme: a table
// that outgrows the HASHHEAP reservation serializes its largest hash
// partition to that partition's run file as group-state records, and the
// merge replays the runs. Every accumulator in the engine is mergeable
// (accumulator.merge), so a spilled partial is just an early partial —
// rereading a run and merging it into the live table yields exactly the
// in-memory result.

import (
	"io"
	"unsafe"

	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/types"
)

// accSize is the fixed in-memory footprint of one accumulator.
const accSize = int64(unsafe.Sizeof(accumulator{}))

// groupCharge is the reservation charge for creating one group: its key
// plus the fixed accumulator array.
func groupCharge(key types.Row, naggs int) int64 {
	return mem.RowBytes(key) + int64(naggs)*accSize
}

// rowSurcharge is the per-input-row reservation charge for aggregates
// whose state grows with input (value lists, distinct sets). Zero for
// fixed-state aggregate lists, so the common path charges only on group
// creation.
func rowSurcharge(specs []AggSpec) int64 {
	var sz int64
	for _, s := range specs {
		switch s.Func {
		case AggMedian, AggPercentileCont, AggPercentileDisc:
			sz += 8 // one float64 per row
		case AggCountDistinct:
			sz += 48 // map entry upper bound; overcharging spills earlier
		}
	}
	return sz
}

// writeGroupState serializes one group as rowcodec rows: the key row, then
// per aggregate a fixed 11-field accumulator row, the distinct-value set
// and the buffered value list.
func writeGroupState(w *encoding.RowWriter, st *groupState) error {
	if _, err := w.WriteRow(st.key); err != nil {
		return err
	}
	for i := range st.accs {
		a := &st.accs[i]
		fixed := types.Row{
			types.NewInt(a.count),
			types.NewInt(a.intSum),
			types.NewFloat(a.floatSum),
			types.NewBool(a.isFloat),
			types.NewFloat(a.sumSq),
			types.NewFloat(a.sumXY),
			types.NewFloat(a.sumX),
			types.NewFloat(a.sumY),
			types.NewInt(a.pairN),
			a.min,
			a.max,
		}
		if _, err := w.WriteRow(fixed); err != nil {
			return err
		}
		distinct := make(types.Row, 0, len(a.distinct))
		for v := range a.distinct {
			distinct = append(distinct, v)
		}
		if _, err := w.WriteRow(distinct); err != nil {
			return err
		}
		vals := make(types.Row, len(a.vals))
		for vi, f := range a.vals {
			vals[vi] = types.NewFloat(f)
		}
		if _, err := w.WriteRow(vals); err != nil {
			return err
		}
	}
	return nil
}

// readGroupState decodes one group written by writeGroupState; io.EOF
// cleanly marks the end of a run.
func readGroupState(rd *encoding.RowReader, naggs int) (*groupState, error) {
	key, err := rd.ReadRow()
	if err != nil {
		return nil, err // io.EOF passes through untouched
	}
	st := &groupState{key: key, accs: make([]accumulator, naggs)}
	for i := range st.accs {
		fixed, err := rd.ReadRow()
		if err != nil {
			return nil, spillTruncated(err)
		}
		a := &st.accs[i]
		a.count = fixed[0].Int()
		a.intSum = fixed[1].Int()
		a.floatSum = fixed[2].Float()
		a.isFloat = fixed[3].Bool()
		a.sumSq = fixed[4].Float()
		a.sumXY = fixed[5].Float()
		a.sumX = fixed[6].Float()
		a.sumY = fixed[7].Float()
		a.pairN = fixed[8].Int()
		a.min = fixed[9]
		a.max = fixed[10]
		distinct, err := rd.ReadRow()
		if err != nil {
			return nil, spillTruncated(err)
		}
		if len(distinct) > 0 {
			a.distinct = make(map[types.Value]bool, len(distinct))
			for _, v := range distinct {
				a.distinct[v] = true
			}
		}
		vals, err := rd.ReadRow()
		if err != nil {
			return nil, spillTruncated(err)
		}
		if len(vals) > 0 {
			a.vals = make([]float64, len(vals))
			for vi, v := range vals {
				a.vals[vi] = v.Float()
			}
		}
	}
	return st, nil
}

func spillTruncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// aggPartitions is the group table's fan-out. A power of two so partition
// assignment is a mask; 64 keeps per-partition maps and spill victims small
// while comfortably exceeding any realistic dop.
const aggPartitions = 64

// groupTable is one ingest worker's hash table of group states, split by
// group hash into aggPartitions partitions allocated on first use (most
// tables touch only a few on small group counts). The table is
// thread-local, but the reservation it charges is shared by every worker
// of the operator: memory pressure is a property of the whole engine, so
// one worker's growth can force another worker's next denial. A denied
// charge spills the table's largest partition into that partition's
// append-only run file, so the run count is bounded by workers × fan-out,
// not by the number of denials.
type groupTable struct {
	res       *mem.Reservation
	naggs     int
	surcharge int64 // rowSurcharge of the aggregate list

	parts   [aggPartitions]map[uint64][]*groupState
	bytes   [aggPartitions]int64
	spills  [aggPartitions]*mem.SpillFile
	writers [aggPartitions]*encoding.RowWriter
}

// find returns the resident state for key in partition p, or nil.
func (t *groupTable) find(p, h uint64, key types.Row) *groupState {
	for _, cand := range t.parts[p][h] {
		if groupKeyEqual(cand.key, key) {
			return cand
		}
	}
	return nil
}

// lookup finds or creates the state for a group key (codes for adopted key
// positions, values otherwise), charging the reservation and spilling the
// largest partition when the charge is denied. The key is copied on
// creation, so callers reuse one scratch key per ingest loop.
func (t *groupTable) lookup(key types.Row) (*groupState, error) {
	h := key.Hash()
	p := h & (aggPartitions - 1)
	st := t.find(p, h, key)
	charge := t.surcharge
	if st == nil {
		charge += groupCharge(key, t.naggs)
	}
	if charge > 0 && !t.res.Grow(charge) {
		if err := t.spillLargest(); err != nil {
			return nil, err
		}
		// The victim may have been p itself, detaching st: its state is
		// on disk now, so re-lookup and start a fresh resident state (the
		// merge folds the spilled part back in).
		if st = t.find(p, h, key); st == nil {
			charge = t.surcharge + groupCharge(key, t.naggs)
		}
		if !t.res.Grow(charge) {
			// A single group bigger than the heap: over-grant for progress.
			t.res.MustGrow(charge)
		}
	}
	if st == nil {
		if t.parts[p] == nil {
			t.parts[p] = make(map[uint64][]*groupState)
		}
		st = &groupState{key: append(types.Row(nil), key...), accs: make([]accumulator, t.naggs)}
		t.parts[p][h] = append(t.parts[p][h], st)
	}
	t.bytes[p] += charge
	return st, nil
}

// spillLargest appends the table's biggest partition to its run file (one
// file per (table, partition), so the merge of a partition replays exactly
// its own states) and clears it.
func (t *groupTable) spillLargest() error {
	victim, worst := -1, int64(0)
	for p := range t.bytes {
		if t.bytes[p] > worst {
			victim, worst = p, t.bytes[p]
		}
	}
	if victim < 0 {
		return nil // nothing buffered; caller over-grants
	}
	if t.spills[victim] == nil {
		f, err := t.res.NewSpillFile("agg")
		if err != nil {
			return err
		}
		t.spills[victim] = f
		t.writers[victim] = encoding.NewRowWriter(f)
	}
	before := t.spills[victim].Size()
	for _, states := range t.parts[victim] {
		for _, st := range states {
			if err := writeGroupState(t.writers[victim], st); err != nil {
				return err
			}
		}
	}
	t.res.NoteSpill(t.spills[victim].Size() - before)
	t.res.Shrink(t.bytes[victim])
	t.bytes[victim] = 0
	t.parts[victim] = nil
	return nil
}

// mergePartition folds partition p of every table into one map: first the
// in-memory partials, then each table's spilled run of that partition.
func mergePartition(tables []*groupTable, p int, res *mem.Reservation) (map[uint64][]*groupState, error) {
	var into map[uint64][]*groupState
	for _, t := range tables {
		if into == nil {
			into = t.parts[p] // adopt the first resident partial as the target
			continue
		}
		for h, states := range t.parts[p] {
			for _, st := range states {
				fold(into, h, st)
			}
		}
	}
	for _, t := range tables {
		if t.spills[p] == nil {
			continue
		}
		if into == nil {
			into = make(map[uint64][]*groupState)
		}
		if err := mergeSpilled(t.spills[p], res, into, t.naggs); err != nil {
			return nil, err
		}
	}
	return into, nil
}

// fold merges st into groups under hash h: into the state already holding
// its key, or as a new entry. It reports whether st was inserted.
func fold(groups map[uint64][]*groupState, h uint64, st *groupState) bool {
	for _, cand := range groups[h] {
		if groupKeyEqual(cand.key, st.key) {
			for i := range cand.accs {
				cand.accs[i].merge(&st.accs[i])
			}
			return false
		}
	}
	groups[h] = append(groups[h], st)
	return true
}

// mergeSpilled replays a run into a live group table, merging states for
// keys that are already present and inserting the rest. Growth during the
// merge is charged best-effort: the merged table is bounded by the distinct
// group count, so over-granting here beats failing the query.
func mergeSpilled(f *mem.SpillFile, res *mem.Reservation, groups map[uint64][]*groupState, naggs int) error {
	if err := f.Rewind(); err != nil {
		return err
	}
	rd := encoding.NewRowReader(f)
	for {
		st, err := readGroupState(rd, naggs)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if fold(groups, st.key.Hash(), st) {
			if c := groupCharge(st.key, naggs); !res.Grow(c) {
				res.MustGrow(c)
			}
		}
	}
}
