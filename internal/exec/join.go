package exec

import (
	"fmt"
	"io"

	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// JoinType selects the join semantics.
type JoinType uint8

const (
	// InnerJoin emits only matching pairs.
	InnerJoin JoinType = iota
	// LeftJoin preserves unmatched left rows, padding the right side
	// with NULLs (including Oracle's (+) outer-join syntax).
	LeftJoin
)

// graceParts is the join's fixed fan-out: enough partitions that spilling
// one frees a useful slice of the heap, few enough that every partition
// keeps a buffered file.
const graceParts = 64

// HashJoinOp is a Grace-style partitioned hash join (§II.B.7's partitioned
// join, in the style of Hybrid Hash Join). The right child is the build
// side (the planner puts the smaller input there); the left child streams
// as the probe side.
//
// Build rows hash into graceParts partitions charged against a HASHHEAP
// reservation; when a Grow is denied the largest resident partition spills
// to a mem.SpillFile and keeps growing on disk. Probe rows that hash to a
// spilled partition are parked in a per-partition probe file, and after the
// probe input is exhausted each spilled partition is joined on its own:
// build rows reloaded, table rebuilt, parked probe rows streamed through it
// (LEFT JOIN padding included), so peak memory is one partition instead of
// the whole build. A nil Gov denies nothing, so the in-memory join is this
// same path on a run in which no partition spilled.
//
// Both children are read batch-at-a-time: the build drops NULL-key rows
// while the data is still columnar, and the probe boxes a row only when it
// matches, parks or needs LEFT JOIN padding (a row-built batch hands back
// the row it already holds). Output is row-built batches.
type HashJoinOp struct {
	Left, Right         Operator
	LeftKeys, RightKeys []int
	Type                JoinType
	Gov                 *mem.Governor

	// Planner annotations, surfaced by EXPLAIN. EstRows is the estimated
	// output cardinality (0 = unplanned). BuildSide names the join's
	// build input in the query's syntactic orientation ("left" means the
	// planner swapped the inputs so the syntactically-left relation
	// builds; "" = no build-side selection ran). Reordered marks joins
	// whose position differs from the query's syntactic join order.
	EstRows   float64
	BuildSide string
	Reordered bool

	res     *mem.Reservation
	parts   []joinPartition
	out     types.Schema
	pending rowQueue

	probeDone  bool
	spillQueue []int // spilled partition indices awaiting drain

	// Operate-on-compressed join keys. When the vectorized build side
	// delivers a key column dictionary-encoded, build rows store that
	// cell as its dictionary code (an INT value) instead of the decoded
	// value: hashing and equality run in code space, the hash heap is
	// charged for fixed-width codes instead of strings, and the code
	// decodes back to the original value only when a match reaches the
	// output. The scheme is adopted from the FIRST build batch — the scan
	// latch guarantees one dictionary per column for the whole scan — and
	// a probe value outside the build dictionary is a definite non-match
	// (skipped, or NULL-padded under LeftJoin) without ever being hashed.
	// Every probe key is translated into the build side's representation
	// before it is hashed; a position that adopted no codes translates to
	// itself, so plain keys and code keys share one hash and one equality.
	codeKeys   []bool           // per key position: build cells hold codes
	buildDicts []*encoding.Dict // per key position, nil unless codeKeys[k]
	buildDoms  [][]types.Value  // decode snapshots for output emission
	remaps     []map[*encoding.Dict]*dictRemap
	pk         []types.Value  // scratch: one key in build representation
	modes      []probeKeyMode // scratch: per-batch probe translation
}

// probeKeyMode is the per-batch translation strategy for one key column.
type probeKeyMode struct {
	cv       *vec.Vector
	identity bool       // probe codes ARE build codes (same dictionary)
	remap    *dictRemap // probe codes remap into build codes
}

type joinPartition struct {
	rows  []types.Row
	table map[uint64][]int32 // key hash -> row indices in rows

	bytes int64          // reservation charge held by rows
	build *mem.SpillFile // non-nil while the partition's build rows are on disk
	bw    *encoding.RowWriter
	probe *mem.SpillFile // parked probe rows for a spilled partition
	pw    *encoding.RowWriter
}

// Schema implements Operator: left columns followed by right columns.
func (j *HashJoinOp) Schema() types.Schema {
	if j.out == nil {
		j.out = append(append(types.Schema{}, j.Left.Schema()...), j.Right.Schema()...)
	}
	return j.out
}

// Open implements Operator: it resets the previous execution's state,
// partitions the build side and opens the probe side.
func (j *HashJoinOp) Open() error {
	nk := len(j.RightKeys)
	if len(j.LeftKeys) != nk || nk == 0 {
		return fmt.Errorf("exec: hash join needs matching non-empty key lists")
	}
	j.pending.rows, j.probeDone, j.spillQueue = nil, false, nil
	j.parts = make([]joinPartition, graceParts)
	j.codeKeys, j.buildDicts, j.buildDoms, j.remaps = make([]bool, nk), nil, nil, nil
	j.pk = make([]types.Value, nk)
	j.modes = make([]probeKeyMode, nk)
	j.res = j.Gov.Acquire(mem.HashHeap)
	if err := j.build(); err != nil {
		return err
	}
	return j.Left.Open()
}

// build streams the build side into the partitions under the hash heap
// reservation: code keys are adopted from the first batch and key cells
// stored as codes, so the heap is charged for, and spilled build runs
// round-trip, fixed-width codes.
func (j *HashJoinOp) build() error {
	if err := j.Right.Open(); err != nil {
		return err
	}
	defer j.Right.Close()
	for {
		vb, err := j.Right.Next()
		if err != nil {
			return err
		}
		if vb == nil {
			break
		}
		j.adoptBuild(vb)
		for _, i := range vb.Idx() {
			r, ok := j.buildRow(vb, i)
			if !ok {
				continue
			}
			if err := j.ingestBuildRow(r); err != nil {
				return err
			}
		}
	}
	// Resident partitions get their probe tables now; spilled partitions
	// are accounted.
	for pi := range j.parts {
		p := &j.parts[pi]
		if p.build != nil {
			j.res.NoteSpill(p.build.Size())
			continue
		}
		j.index(p)
	}
	return nil
}

// ingestBuildRow places one build row (keys non-NULL, key cells already
// translated) into its partition under the hash heap reservation, spilling
// the largest partition when a Grow is denied.
func (j *HashJoinOp) ingestBuildRow(r types.Row) error {
	p := &j.parts[j.buildHash(r)%graceParts]
	if p.build != nil {
		_, err := p.bw.WriteRow(r)
		return err
	}
	charge := mem.RowBytes(r)
	if !j.res.Grow(charge) {
		if err := j.spillVictim(); err != nil {
			return err
		}
		if p.build != nil {
			_, err := p.bw.WriteRow(r)
			return err
		}
		if !j.res.Grow(charge) {
			// Single row past the heap: over-grant for progress.
			j.res.MustGrow(charge)
		}
	}
	p.rows = append(p.rows, r)
	p.bytes += charge
	return nil
}

// spillVictim moves the largest resident partition to disk and releases
// its reservation charge.
func (j *HashJoinOp) spillVictim() error {
	victim := -1
	var worst int64 = -1
	for pi := range j.parts {
		p := &j.parts[pi]
		if p.build == nil && p.bytes > worst {
			victim, worst = pi, p.bytes
		}
	}
	if victim < 0 {
		return nil // everything already on disk; caller over-grants
	}
	p := &j.parts[victim]
	f, err := j.res.NewSpillFile("join-build")
	if err != nil {
		return err
	}
	p.build, p.bw = f, encoding.NewRowWriter(f)
	for _, r := range p.rows {
		if _, err := p.bw.WriteRow(r); err != nil {
			return err
		}
	}
	j.res.Shrink(p.bytes)
	p.rows, p.bytes = nil, 0
	return nil
}

// index builds a resident partition's probe table over its rows.
func (j *HashJoinOp) index(p *joinPartition) {
	p.table = make(map[uint64][]int32, len(p.rows))
	for i, r := range p.rows {
		h := j.buildHash(r)
		p.table[h] = append(p.table[h], int32(i))
	}
}

// adoptBuild fixes the code-key scheme from the first build batch: a key
// position whose build vector is encoded (and whose probe column has the
// same kind, so dictionary translation cannot change comparison
// semantics) switches to code space. The scan latch holds for the whole
// build scan, so every later batch of the same scan carries the same
// dictionary and the adopted decode snapshot covers all of its codes.
func (j *HashJoinOp) adoptBuild(vb *vec.Batch) {
	if j.buildDicts != nil {
		return
	}
	nk := len(j.RightKeys)
	j.buildDicts = make([]*encoding.Dict, nk)
	j.buildDoms = make([][]types.Value, nk)
	j.remaps = make([]map[*encoding.Dict]*dictRemap, nk)
	lsch := j.Left.Schema()
	for k, rk := range j.RightKeys {
		cv := vb.Col(rk)
		if cv.Encoded() && lsch[j.LeftKeys[k]].Kind == cv.Kind {
			j.codeKeys[k] = true
			j.buildDicts[k] = cv.Dict
			j.buildDoms[k] = cv.Dom()
		}
	}
}

// buildRow takes one build-side row out of the batch with encoded key cells
// stored as their dictionary codes; ok is false when a key is NULL (or,
// defensively, when a key value falls outside the adopted dictionary —
// unreachable within one scan). Only a scan's batches carry codes, and their
// rows are boxed fresh, so the rows of a row-built batch are never written.
func (j *HashJoinOp) buildRow(vb *vec.Batch, i int) (types.Row, bool) {
	for _, rk := range j.RightKeys {
		if vb.Col(rk).IsNull(i) {
			return nil, false
		}
	}
	row := vb.Row(i)
	for k, rk := range j.RightKeys {
		if !j.codeKeys[k] {
			continue
		}
		cv := vb.Col(rk)
		if cv.Encoded() && cv.Dict == j.buildDicts[k] {
			row[rk] = types.NewInt(int64(cv.Codes[i]))
			continue
		}
		code, ok := j.buildDicts[k].EncodeExisting(row[rk])
		if !ok {
			return nil, false
		}
		row[rk] = types.NewInt(int64(code))
	}
	return row, true
}

// buildHash hashes a build row's key cells, which already hold the build
// representation.
func (j *HashJoinOp) buildHash(r types.Row) uint64 {
	for k, rk := range j.RightKeys {
		j.pk[k] = r[rk]
	}
	return hashKeyVals(j.pk)
}

// hashKeyVals is the join's one hash: a fold over a key in build
// representation, so a translated probe key lands in the partition and
// bucket its matching build rows were hashed into.
func hashKeyVals(pk []types.Value) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range pk {
		h = h*0x100000001b3 ^ v.Hash()
	}
	return h
}

// keysEqualVals verifies a candidate match (hash collisions) against a
// translated probe key.
func keysEqualVals(pk []types.Value, rrow types.Row, rk []int) bool {
	for i := range pk {
		if !types.Equal(pk[i], rrow[rk[i]]) {
			return false
		}
	}
	return true
}

// emitJoin concatenates a matched pair, decoding code-valued build key
// cells back to their dictionary values — the join's late
// materialization point.
func (j *HashJoinOp) emitJoin(lrow, rrow types.Row) types.Row {
	out := make(types.Row, 0, len(lrow)+len(rrow))
	out = append(append(out, lrow...), rrow...)
	for k, rk := range j.RightKeys {
		if j.codeKeys[k] {
			c, _ := out[len(lrow)+rk].AsInt()
			out[len(lrow)+rk] = j.buildDoms[k][c]
		}
	}
	return out
}

// Next implements Operator.
func (j *HashJoinOp) Next() (*vec.Batch, error) {
	for {
		if vb := j.pending.next(j.Schema(), j.probeDone && len(j.spillQueue) == 0); vb != nil {
			return vb, nil
		}
		if j.probeDone {
			if len(j.spillQueue) == 0 {
				return nil, nil
			}
			pi := j.spillQueue[0]
			j.spillQueue = j.spillQueue[1:]
			if err := j.drainSpilled(pi); err != nil {
				return nil, err
			}
			continue
		}
		vb, err := j.Left.Next()
		if err != nil {
			return nil, err
		}
		if vb == nil {
			j.probeDone = true
			j.sealProbeFiles()
		} else if err := j.probeBatch(vb); err != nil {
			return nil, err
		}
	}
}

// probeBatch is the join's one probe pull, fed by the probe child and by
// the parked rows of a spilled partition alike: per key column it fixes a
// translation mode once per batch (identity when the probe dictionary IS
// the build dictionary, a cached code→code remap when it differs, value
// lookup otherwise) and leaves the probe row unboxed until probeKey asks
// for it.
func (j *HashJoinOp) probeBatch(vb *vec.Batch) error {
	for k, lk := range j.LeftKeys {
		cv := vb.Col(lk)
		j.modes[k] = probeKeyMode{cv: cv}
		if j.codeKeys[k] && cv.Encoded() {
			if cv.Dict == j.buildDicts[k] {
				j.modes[k].identity = true
			} else {
				if j.remaps[k] == nil {
					j.remaps[k] = make(map[*encoding.Dict]*dictRemap)
				}
				r := j.remaps[k][cv.Dict]
				if r == nil {
					r = newDictRemap(j.buildDicts[k], cv.Dom())
					j.remaps[k][cv.Dict] = r
				}
				j.modes[k].remap = r
			}
		}
	}
	for _, i := range vb.Idx() {
		ok := true
		for k := range j.modes {
			if j.pk[k], ok = j.probeKeyAt(&j.modes[k], k, i); !ok {
				break
			}
		}
		if err := j.probeKey(j.pk, ok, func() types.Row { return vb.Row(i) }); err != nil {
			return err
		}
	}
	return nil
}

// probeKeyAt translates one probe key position of batch row i.
func (j *HashJoinOp) probeKeyAt(m *probeKeyMode, k, i int) (types.Value, bool) {
	cv := m.cv
	if cv.IsNull(i) {
		return types.Null, false
	}
	if !j.codeKeys[k] {
		return cv.Get(i), true
	}
	switch {
	case m.identity:
		return types.NewInt(int64(cv.Codes[i])), true
	case m.remap != nil:
		bc, ok := m.remap.lookup(cv.Codes[i])
		if !ok {
			return types.Null, false
		}
		return types.NewInt(int64(bc)), true
	default:
		bc, ok := j.buildDicts[k].EncodeExisting(cv.Get(i))
		if !ok {
			return types.Null, false
		}
		return types.NewInt(int64(bc)), true
	}
}

// probeKey is the probe kernel. pk is one probe row's key in build
// representation; ok=false (a NULL key, or a value absent from the build
// dictionary) is a definite non-match that is never hashed. A key whose
// partition lives on disk parks its row (original values; the key
// re-translates deterministically at drain — the dictionaries are frozen
// for the query's scans); otherwise the partition's table is probed. row
// materializes the probe row and is called only when the row is emitted,
// parked or NULL-padded.
func (j *HashJoinOp) probeKey(pk []types.Value, ok bool, row func() types.Row) error {
	var lrow types.Row
	if ok {
		h := hashKeyVals(pk)
		p := &j.parts[h%graceParts]
		if p.build != nil {
			if p.probe == nil {
				f, err := j.res.NewSpillFile("join-probe")
				if err != nil {
					return err
				}
				p.probe, p.pw = f, encoding.NewRowWriter(f)
			}
			_, err := p.pw.WriteRow(row())
			return err
		}
		for _, ri := range p.table[h] {
			if rrow := p.rows[ri]; keysEqualVals(pk, rrow, j.RightKeys) {
				if lrow == nil {
					lrow = row()
				}
				j.pending.rows = append(j.pending.rows, j.emitJoin(lrow, rrow))
			}
		}
	}
	if lrow == nil && j.Type == LeftJoin {
		j.pending.rows = append(j.pending.rows, padNulls(row(), j.Right.Schema()))
	}
	return nil
}

// padNulls returns lrow followed by one typed NULL per column of rs: the
// LEFT JOIN output for an unmatched left row.
func padNulls(lrow types.Row, rs types.Schema) types.Row {
	out := make(types.Row, 0, len(lrow)+len(rs))
	out = append(out, lrow...)
	for _, c := range rs {
		out = append(out, types.NullOf(c.Kind))
	}
	return out
}

// sealProbeFiles queues spilled partitions for the drain phase and
// accounts their probe files as spill runs.
func (j *HashJoinOp) sealProbeFiles() {
	for pi := range j.parts {
		p := &j.parts[pi]
		if p.build == nil {
			continue
		}
		j.spillQueue = append(j.spillQueue, pi)
		if p.probe != nil {
			j.res.NoteSpill(p.probe.Size())
		}
	}
}

// drainSpilled joins one spilled partition: reload its build rows, make it
// resident, stream the parked probe rows through the probe kernel.
func (j *HashJoinOp) drainSpilled(pi int) error {
	p := &j.parts[pi]
	defer func() {
		p.build.Close()
		p.probe.Close()
		j.res.Shrink(p.bytes)
		*p = joinPartition{}
	}()
	if err := p.build.Rewind(); err != nil {
		return err
	}
	rd := encoding.NewRowReader(p.build)
	for {
		r, err := rd.ReadRow()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		charge := mem.RowBytes(r)
		if !j.res.Grow(charge) {
			// One partition is 1/graceParts of the build; if even that
			// exceeds the heap, over-grant rather than recurse.
			j.res.MustGrow(charge)
		}
		p.rows = append(p.rows, r)
		p.bytes += charge
	}
	p.build.Close()
	p.build = nil // resident: probeKey now matches against it instead of parking
	j.index(p)
	if p.probe == nil {
		return nil
	}
	if err := p.probe.Rewind(); err != nil {
		return err
	}
	// The parked rows go back through the probe pull a batch at a time; a
	// key re-translates to what it was when the row was parked.
	prd := encoding.NewRowReader(p.probe)
	rows := make([]types.Row, 0, ChunkSize)
	for {
		rows = rows[:0]
		for len(rows) < ChunkSize {
			lrow, err := prd.ReadRow()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			rows = append(rows, lrow)
		}
		if len(rows) == 0 {
			return nil
		}
		if err := j.probeBatch(vec.FromRows(j.Left.Schema(), rows)); err != nil {
			return err
		}
	}
}

// CodeKeyCount reports how many join key positions ran in code space.
// Valid after Open; EXPLAIN ANALYZE reports it.
func (j *HashJoinOp) CodeKeyCount() int {
	n := 0
	for _, c := range j.codeKeys {
		if c {
			n++
		}
	}
	return n
}

// SpillStats reports runs and bytes spilled, for EXPLAIN ANALYZE. Valid
// after Close (counters outlive the reservation's grant).
func (j *HashJoinOp) SpillStats() (runs, bytes int64) {
	return j.res.SpillRuns(), j.res.SpillBytes()
}

// Close implements Operator.
func (j *HashJoinOp) Close() error {
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	for pi := range j.parts {
		p := &j.parts[pi]
		p.build.Close()
		p.probe.Close()
	}
	j.parts = nil
	j.pending.rows = nil
	j.spillQueue = nil
	j.res.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// NestedLoopJoinOp joins on an arbitrary predicate (non-equi joins,
// e.g. Oracle hierarchical or theta joins). Quadratic; the planner only
// picks it when no equi-keys exist.
type NestedLoopJoinOp struct {
	Left, Right Operator
	Pred        Expr // over the concatenated columns; nil = cross join
	Type        JoinType

	// Planner annotations, surfaced by EXPLAIN (see HashJoinOp).
	EstRows   float64
	Reordered bool

	right   []types.Row
	pairs   *vec.Batch    // one left row beside every right row: Pred's input
	lcells  []*vec.Vector // the pairs' left-hand columns, one constant each
	out     types.Schema
	pending rowQueue
	eos     bool
}

// Schema implements Operator.
func (j *NestedLoopJoinOp) Schema() types.Schema {
	if j.out == nil {
		j.out = append(append(types.Schema{}, j.Left.Schema()...), j.Right.Schema()...)
	}
	return j.out
}

// Open implements Operator.
func (j *NestedLoopJoinOp) Open() error {
	j.pending.rows, j.eos = nil, false
	var err error
	j.right, err = Drain(j.Right) // Drain opens and closes the build side
	if err != nil {
		return err
	}
	// The pair batch is built once: its right-hand columns are views of the
	// held rows, its left-hand ones boxed constants that Next overwrites for
	// each left row.
	rb := vec.FromRows(j.Right.Schema(), j.right)
	j.lcells = make([]*vec.Vector, len(j.Left.Schema()))
	cols := make([]*vec.Vector, 0, len(j.lcells)+rb.NumCols())
	for c := range j.lcells {
		j.lcells[c] = &vec.Vector{Const: true, Any: make([]types.Value, 1)}
		cols = append(cols, j.lcells[c])
	}
	for c := 0; c < rb.NumCols(); c++ {
		cols = append(cols, rb.Col(c))
	}
	j.pairs = vec.NewBatch(j.Schema(), cols, len(j.right))
	return j.Left.Open()
}

// Next implements Operator. Pred runs once per left row, over one batch
// that holds the row's cells as constant vectors beside the whole right
// side; a pair is built only when it matches.
func (j *NestedLoopJoinOp) Next() (*vec.Batch, error) {
	for {
		if vb := j.pending.next(j.Schema(), j.eos); vb != nil || j.eos {
			return vb, nil
		}
		vb, err := j.Left.Next()
		if err != nil {
			return nil, err
		}
		if vb == nil {
			j.eos = true
			continue
		}
		var lrow types.Row // scratch, per batch: RowInto may hand back the batch's own row
		for _, i := range vb.Idx() {
			lrow = vb.RowInto(lrow, i)
			sel := j.pairs.Idx()
			if j.Pred != nil {
				for c, cell := range j.lcells {
					cell.Any[0] = lrow[c]
				}
				pv, err := j.Pred.EvalVec(j.pairs)
				if err != nil {
					return nil, err
				}
				sel = SelTrue(pv, sel)
			}
			for _, r := range sel {
				pair := make(types.Row, 0, len(lrow)+len(j.right[r]))
				j.pending.rows = append(j.pending.rows, append(append(pair, lrow...), j.right[r]...))
			}
			if len(sel) == 0 && j.Type == LeftJoin {
				j.pending.rows = append(j.pending.rows, padNulls(lrow, j.Right.Schema()))
			}
		}
	}
}

// Close implements Operator.
func (j *NestedLoopJoinOp) Close() error {
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	j.right, j.pairs, j.lcells, j.pending.rows = nil, nil, nil, nil
	if err1 != nil {
		return err1
	}
	return err2
}
