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

// HashJoinOp is the executor's join: a Grace-style partitioned hash join
// (§II.B.7's partitioned join, in the style of Hybrid Hash Join). The right
// child is the build side (the planner puts the smaller input there); the
// left child streams as the probe side.
//
// The build gives every row with non-NULL keys the id of its distinct key
// in a groupTable with no aggregates — on dictionary codes where the scan
// delivers them, under the group-by's direct, words or bytes ids — and keeps
// its columns in typedRows, as SortOp does, beside the id and a chain
// through the rows of one key. With no keys the table has one key, as a
// GROUP BY without keys has one group, so a cross or theta join is the same
// operator with every build row on one chain. The probe puts its keys in
// the table's form and finds them without inserting. A cursor walks each
// probe row's chain and hands out at most ChunkSize candidate pairs at a
// time; they are gathered a column at a time (codes decode only there) and
// the Residual keeps those it passes. Under LEFT JOIN a probe row none of
// whose pairs passed is padded with NULLs once all of them were evaluated.
//
// Table and buffers charge a HASHHEAP reservation. A key belongs to one of
// the table's aggPartitions partitions; a denied charge spills the one
// holding the most to its build file, and once the build is read a
// partition with a file is wholly on disk. A probe row whose key may be
// there is parked in the partition's probe file. After the probe input each
// such partition is loaded alone, never denied (over-granted, not split
// again), and its parked rows probe it. A nil Gov denies nothing, so the
// in-memory join is this same path with no partition spilled.
type HashJoinOp struct {
	Left, Right         Operator
	LeftKeys, RightKeys []int // equal lengths; none pairs every probe row with every build row
	// Residual is the rest of the join condition, over the output layout
	// (probe columns, then build columns); nil keeps every key match.
	Residual Expr
	Type     JoinType
	Gov      *mem.Governor

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
	out     types.Schema
	shape   *keyShape                       // adopted from the first build batch
	remaps  []map[*encoding.Dict]*dictRemap // per key position: other dictionaries' codes
	table   *groupTable                     // the resident build keys; nil before a build batch
	rows    typedRows                       // the resident build rows
	gid     []uint32                        // per build row: its key's id
	next    []uint32                        // per build row: the next row of its key, +1 (0 ends)
	head    []uint32                        // per key id: its first row, +1
	parts   [aggPartitions]joinPartition
	spilled bool
	// EXPLAIN ANALYZE: the build table's keys, state and id scheme.
	keyIDs   int
	keyState int64
	ids      idScheme

	probeDone bool
	queue     []int               // spilled partitions with parked rows, to drain
	drained   int                 // the partition whose parked rows are probing
	parked    *encoding.RowReader // its parked rows

	// The cursor over the current probe batch's pairs: the positions of its
	// rows that can have output and their chains' first build rows (+1, 0
	// for none), the row it is at and that row's next build row (+1, 0 once
	// its chain is done). hit marks, by batch position, the rows a pair of
	// which passed the residual.
	cur    *vec.Batch
	probes []int
	heads  []uint32
	at     int
	chain  uint32
	hit    []bool
	// The chunk of pairs the cursor handed out: probe position and build
	// row (-1: LEFT JOIN padding).
	lpos, rrow []int

	keys                  []*vec.Vector // scratch
	sel, keep, park, pads []int
	renum                 []uint32
	pp                    []uint8
	cells                 types.Row
}

// joinPartition is one partition's spill files.
type joinPartition struct {
	build *mem.SpillFile // non-nil while the partition's build rows are on disk
	bw    *encoding.RowWriter
	probe *mem.SpillFile // parked probe rows for a spilled partition
	pw    *encoding.RowWriter
}

// joinRowBytes is what a build row of capacity costs beside its columns:
// its key id, its chain link, and at most one chain head.
const joinRowBytes = 12

// Schema implements Operator: left columns followed by right columns.
func (j *HashJoinOp) Schema() types.Schema {
	if j.out == nil {
		j.out = append(append(types.Schema{}, j.Left.Schema()...), j.Right.Schema()...)
	}
	return j.out
}

// Open implements Operator: it resets the previous execution's state,
// builds and opens the probe side.
func (j *HashJoinOp) Open() error {
	nk := len(j.RightKeys)
	if len(j.LeftKeys) != nk {
		return fmt.Errorf("exec: hash join needs matching key lists")
	}
	j.res = j.Gov.Acquire(mem.HashHeap)
	j.shape, j.remaps, j.spilled = nil, make([]map[*encoding.Dict]*dictRemap, nk), false
	j.reset(false)
	j.parts, j.keyIDs, j.keyState, j.ids = [aggPartitions]joinPartition{}, 0, 0, idsDirect
	j.probeDone, j.queue, j.parked = false, nil, nil
	j.cur, j.probes = nil, j.probes[:0] // no pairs pending
	if err := j.build(); err != nil {
		return err
	}
	return j.Left.Open()
}

// reset drops the resident build state, and its charge, and starts an empty
// table over the adopted key scheme. A final table and buffers are never
// denied.
func (j *HashJoinOp) reset(final bool) {
	j.res.Shrink(j.res.Used())
	j.rows = typedRows{res: j.res, perRow: joinRowBytes, final: final}
	j.gid, j.next, j.head, j.table = j.gid[:0], nil, nil, nil
	if j.shape != nil {
		j.table = newGroupTable(j.shape, j.res, nil, nil)
		j.table.final = final
	}
}

// build reads the build side into the table and the buffers, spilling
// partitions as charges are denied, and leaves every partition with a build
// file wholly on disk.
func (j *HashJoinOp) build() error {
	if err := j.Right.Open(); err != nil {
		return err
	}
	defer j.Right.Close()
	if err := j.fill(j.Right.Next); err != nil {
		return err
	}
	for pi := range j.parts {
		if p := &j.parts[pi]; p.build != nil {
			if err := j.spill(pi); err != nil { // rows that came after its first spill
				return err
			}
			j.res.NoteSpill(p.build.Size())
		}
	}
	if t := j.table; t != nil {
		j.keyIDs, j.keyState, j.ids = t.n, t.charged, t.ids
	}
	j.link()
	return nil
}

// fill ingests build batches until next returns nil, adopting the key scheme
// from the first.
func (j *HashJoinOp) fill(next func() (*vec.Batch, error)) error {
	for {
		vb, err := next()
		if err != nil || vb == nil {
			return err
		}
		if j.shape == nil {
			// A position keys on codes only where the probe column is of the
			// build's kind: keys of two kinds meet as canonical bytes.
			raw := make([]*vec.Vector, len(j.RightKeys))
			for k, c := range j.RightKeys {
				if raw[k] = vb.Col(c); raw[k].Encoded() && raw[k].Kind != j.Left.Schema()[j.LeftKeys[k]].Kind {
					d := *raw[k]
					d.Materialize()
					raw[k] = &d
				}
			}
			j.shape = adoptKeys(raw)
			j.reset(false)
		}
		if err := j.ingest(vb); err != nil {
			return err
		}
	}
}

// ingest files the build rows of vb whose keys are not NULL: each gets a
// place in the buffers, then its key's id. A denied charge spills the
// partition holding the most; rows buffered but not yet given an id stay
// buffered, so every key has a row.
func (j *HashJoinOp) ingest(vb *vec.Batch) error {
	keys := j.keysOf(vb, j.RightKeys)
	j.sel = j.sel[:0]
	for _, i := range vb.Idx() {
		if !nullKey(keys, i) {
			j.sel = append(j.sel, i)
		}
	}
	data := make([]*vec.Vector, vb.NumCols())
	for c := range data {
		data[c] = vb.Col(c)
	}
	t, rows := j.table, len(j.sel)
	t.keysFor(keys, j.sel, rows)
	for done, added := 0, 0; done < rows; {
		if added == done {
			added += j.rows.add(data, j.sel, done, rows)
		}
		m, err := t.assign(keys, j.sel, done, added)
		if err != nil {
			return err
		}
		j.gid = append(j.gid, t.gids[done:done+m]...)
		if done += m; done < rows {
			if err := j.spill(j.victim()); err != nil {
				return err
			}
		}
	}
	return nil
}

// victim is the partition holding the most: its keys, and its rows at the
// buffers' width a row. -1 when nothing is resident.
//
//dashdb:hotpath
func (j *HashJoinOp) victim() int {
	var side [aggPartitions]int64
	w := j.rows.width()
	for _, g := range j.gid {
		side[j.table.parts[g]] += w
	}
	return j.table.largest(&side)
}

// nullKey reports whether a key cell of position i is NULL.
//
//dashdb:hotpath
func nullKey(keys []*vec.Vector, i int) bool {
	for _, kv := range keys {
		if kv.IsNull(i) {
			return true
		}
	}
	return false
}

// spill appends partition pi's resident build rows to its build file as
// rowcodec cells and drops them: their keys leave the table, the surviving
// rows — then those buffered without an id yet — move down in order, and
// the strings of the rows written return to the reservation (capacity stays
// charged). It does nothing for -1 or a partition with nothing resident.
func (j *HashJoinOp) spill(pi int) error {
	t := j.table
	if pi < 0 || t.count[pi] == 0 {
		return nil
	}
	p := &j.parts[pi]
	if p.build == nil {
		f, err := j.res.NewSpillFile("join-build")
		if err != nil {
			return err
		}
		p.build, p.bw, j.spilled = f, encoding.NewRowWriter(f), true
	}
	j.renum = grown(j.renum, t.n) // the survivors' ids once drop compacts them
	id := uint32(0)
	for g := range t.n {
		j.renum[g] = id
		id += uint32(btoi(int(t.parts[g]) != pi))
	}
	keep, freed, ided := j.keep[:0], int64(0), len(j.gid)
	for r, g := range j.gid {
		if int(t.parts[g]) != pi {
			j.gid[len(keep)] = j.renum[g]
			keep = append(keep, r)
			continue
		}
		j.cells = j.rows.row(j.cells[:0], r)
		for _, c := range j.cells {
			if c.Kind() == types.KindString && !c.IsNull() {
				freed += int64(len(c.Str()))
			}
		}
		if _, err := p.bw.WriteRow(j.cells); err != nil {
			return err
		}
	}
	j.gid = j.gid[:len(keep)]
	for r := ided; r < j.rows.n; r++ {
		keep = append(keep, r)
	}
	j.keep = keep
	j.rows.keep(keep)
	t.drop(pi)
	j.res.Shrink(freed)
	return nil
}

// link threads every resident build row onto its key's chain, in row order.
func (j *HashJoinOp) link() {
	if j.table == nil {
		return
	}
	j.head, j.next = make([]uint32, j.table.n), make([]uint32, len(j.gid))
	for r := len(j.gid) - 1; r >= 0; r-- {
		g := j.gid[r]
		j.next[r], j.head[g] = j.head[g], uint32(r)+1
	}
}

// keysOf returns vb's columns cols with every code position as codes of the
// adopted dictionary: the column's own, another dictionary's remapped, or
// values looked up one by one, NULL for a value the dictionary lacks, which
// no key equals.
func (j *HashJoinOp) keysOf(vb *vec.Batch, cols []int) []*vec.Vector {
	j.keys = j.keys[:0]
	for k, c := range cols {
		kv := vb.Col(c)
		if j.shape.code[k] && !(kv.Encoded() && !kv.Const && kv.Dict == j.shape.dicts[k]) {
			kv = j.codesOf(k, kv, vb)
		}
		j.keys = append(j.keys, kv)
	}
	return j.keys
}

// codesOf is kv as codes of key position k's dictionary.
//
//dashdb:hotpath
func (j *HashJoinOp) codesOf(k int, kv *vec.Vector, vb *vec.Batch) *vec.Vector {
	d := j.shape.dicts[k]
	var remap *dictRemap
	if kv.Encoded() {
		if j.remaps[k] == nil {
			j.remaps[k] = make(map[*encoding.Dict]*dictRemap)
		}
		if remap = j.remaps[k][kv.Dict]; remap == nil {
			remap = newDictRemap(d, kv.Dom())
			j.remaps[k][kv.Dict] = remap
		}
	}
	out := &vec.Vector{Kind: j.shape.kinds[k], Codes: make([]uint64, vb.N), Dict: d}
	for _, i := range vb.Idx() {
		var code uint64
		ok := false
		switch {
		case kv.IsNull(i):
		case remap != nil:
			code, ok = remap.lookup(kv.Codes[kv.Ix(i)])
		default:
			code, ok = d.EncodeExisting(kv.Get(i))
		}
		if ok {
			out.Codes[i] = code
		} else {
			out.SetNull(i)
		}
	}
	return out
}

// Next implements Operator.
func (j *HashJoinOp) Next() (*vec.Batch, error) {
	for {
		if out, err := j.emit(); err != nil || out != nil {
			return out, err
		}
		vb, err := j.nextProbe()
		if err != nil || vb == nil {
			return nil, err
		}
		if err := j.probeBatch(vb); err != nil {
			return nil, err
		}
	}
}

// nextProbe is the next batch of probe rows: the probe child's, then, once
// its build rows are the resident ones, each spilled partition's parked
// rows. nil after the last.
func (j *HashJoinOp) nextProbe() (*vec.Batch, error) {
	for {
		if j.parked != nil {
			if vb, err := readBatch(j.parked, j.Left.Schema()); err != nil || vb != nil {
				return vb, err
			}
			j.parked = nil
			if err := j.parts[j.drained].probe.Close(); err != nil {
				return nil, err
			}
		}
		if !j.probeDone {
			vb, err := j.Left.Next()
			if err != nil || vb != nil {
				return vb, err
			}
			// The spilled partitions that parked rows are drained; one that
			// parked none has no output left.
			j.probeDone = true
			for pi := range j.parts {
				if p := &j.parts[pi]; p.probe != nil {
					j.queue = append(j.queue, pi)
					j.res.NoteSpill(p.probe.Size())
				}
			}
		}
		if len(j.queue) == 0 {
			return nil, nil
		}
		pi := j.queue[0]
		j.queue = j.queue[1:]
		if err := j.load(pi); err != nil {
			return nil, err
		}
	}
}

// readBatch reads up to ChunkSize rows of schema sch; nil at the end.
func readBatch(rd *encoding.RowReader, sch types.Schema) (*vec.Batch, error) {
	var rows []types.Row
	for len(rows) < ChunkSize {
		r, err := rd.ReadRow()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	return vec.FromRows(sch, rows), nil
}

// probeBatch finds the key of every live probe row and starts the cursor
// over the batch: a row with build rows of its key, or any row under LEFT
// JOIN, gets its chain's head. A row whose key no resident key equals but
// whose partition is on disk is parked in that partition's probe file
// instead.
func (j *HashJoinOp) probeBatch(vb *vec.Batch) error {
	idx := vb.Idx()
	j.cur, j.probes, j.heads, j.park = vb, j.probes[:0], j.heads[:0], j.park[:0]
	var keys []*vec.Vector
	var gids []uint32
	var parts []uint8
	if j.table != nil { // else no build rows: nothing matches
		keys = j.keysOf(vb, j.LeftKeys)
		j.table.keysFor(keys, vb.Sel, len(idx))
		if j.spilled {
			j.pp = grown(j.pp, len(idx))
			parts = j.pp
		}
		if err := j.table.find(keys, vb.Sel, len(idx), parts); err != nil {
			return err
		}
		gids = j.table.gids
	}
	for x, i := range idx {
		var head uint32
		switch {
		case gids == nil:
		case gids[x] != noGroup:
			head = j.head[gids[x]]
		case parts != nil && j.parts[parts[x]].build != nil && !nullKey(keys, i):
			j.park = append(j.park, x)
			continue
		}
		if head != 0 || j.Type == LeftJoin {
			j.probes, j.heads = append(j.probes, i), append(j.heads, head)
		}
	}
	j.at, j.chain = 0, 0
	if len(j.heads) > 0 {
		j.chain = j.heads[0]
	}
	if j.Residual != nil && j.Type == LeftJoin {
		j.hit = grown(j.hit, vb.N)
		clear(j.hit[:vb.N])
	}
	for _, x := range j.park {
		p := &j.parts[parts[x]]
		if p.probe == nil {
			f, err := j.res.NewSpillFile("join-probe")
			if err != nil {
				return err
			}
			p.probe, p.pw = f, encoding.NewRowWriter(f)
		}
		if _, err := p.pw.WriteRow(vb.Row(idx[x])); err != nil {
			return err
		}
	}
	return nil
}

// pairs hands out the cursor's next at most ChunkSize candidate pairs in
// lpos and rrow, resuming where the last call stopped: each row's build rows
// in chain order, then, under LEFT JOIN, its pad when it has none or the
// residual may reject them all.
//
//dashdb:hotpath
func (j *HashJoinOp) pairs() {
	if j.lpos == nil {
		j.lpos, j.rrow = make([]int, 0, ChunkSize), make([]int, 0, ChunkSize)
	}
	j.lpos, j.rrow = j.lpos[:0], j.rrow[:0]
	for j.at < len(j.probes) && len(j.lpos) < ChunkSize {
		i := j.probes[j.at]
		if j.chain != 0 {
			j.lpos, j.rrow = append(j.lpos, i), append(j.rrow, int(j.chain-1))
			j.chain = j.next[j.chain-1]
			continue
		}
		if j.Type == LeftJoin && (j.heads[j.at] == 0 || j.Residual != nil) {
			j.lpos, j.rrow = append(j.lpos, i), append(j.rrow, -1)
		}
		if j.at++; j.at < len(j.probes) {
			j.chain = j.heads[j.at]
		}
	}
}

// emit is the join's materialization point: the cursor's next chunk of
// pairs gathered into typed vectors — probe columns by probe position, build
// columns by build row, typed NULL build cells on a pad — and narrowed to
// what the residual keeps. nil when no pair is left.
//
//dashdb:hotpath
func (j *HashJoinOp) emit() (*vec.Batch, error) {
	for {
		j.pairs()
		n := len(j.lpos)
		if n == 0 {
			return nil, nil
		}
		cols := make([]*vec.Vector, 0, len(j.Schema()))
		for c := 0; c < j.cur.NumCols(); c++ {
			cols = append(cols, gather(j.cur.Col(c), j.lpos, 0, n))
		}
		j.pads = j.pads[:0]
		for x, r := range j.rrow {
			if r < 0 {
				j.rrow[x] = 0 // gathered, then overwritten with NULL
				j.pads = append(j.pads, x)
			}
		}
		for c, col := range j.Right.Schema() {
			var v *vec.Vector
			if j.rows.cap > 0 {
				v = gather(j.rows.cols[c], j.rrow, 0, n)
			} else {
				v = vec.New(col.Kind, n)
			}
			for _, x := range j.pads {
				v.SetNull(x)
				if v.Any != nil {
					v.Any[x] = types.NullOf(col.Kind)
				}
			}
			cols = append(cols, v)
		}
		out := vec.NewBatch(j.Schema(), cols, n)
		if j.Residual == nil {
			return out, nil
		}
		if err := j.check(out); err != nil || len(out.Sel) > 0 {
			return out, err
		}
	}
}

// check narrows a chunk to the pairs the residual passes — pads skip it —
// and, under LEFT JOIN, the pads of rows none of whose pairs passed: the
// cursor hands out a row's pad after its pairs, so hit is final there.
func (j *HashJoinOp) check(out *vec.Batch) error {
	in := diffSorted(out.Idx(), j.pads)
	pv, err := j.Residual.EvalVec(out.WithSel(in))
	if err != nil {
		return err
	}
	out.Sel = SelTrue(pv, in)
	if j.Type != LeftJoin {
		return nil
	}
	pass, keep := out.Sel, make([]int, 0, len(out.Sel)+len(j.pads))
	for x, p, q := 0, 0, 0; x < out.N; x++ {
		switch {
		case p < len(pass) && pass[p] == x:
			p++
			j.hit[j.lpos[x]] = true
			keep = append(keep, x)
		case q < len(j.pads) && j.pads[q] == x:
			q++
			if !j.hit[j.lpos[x]] {
				keep = append(keep, x)
			}
		}
	}
	out.Sel = keep
	return nil
}

// load makes spilled partition pi the only resident one: its build rows are
// read back into a fresh table and buffers that are never denied, and its
// parked rows become the probe input.
func (j *HashJoinOp) load(pi int) error {
	j.reset(true)
	p := &j.parts[pi]
	if err := p.build.Rewind(); err != nil {
		return err
	}
	rd := encoding.NewRowReader(p.build)
	if err := j.fill(func() (*vec.Batch, error) { return readBatch(rd, j.Right.Schema()) }); err != nil {
		return err
	}
	if err := p.build.Close(); err != nil {
		return err
	}
	p.build = nil // resident: its keys match now instead of parking
	j.link()
	if err := p.probe.Rewind(); err != nil {
		return err
	}
	j.drained, j.parked = pi, encoding.NewRowReader(p.probe)
	return nil
}

// CodeKeyCount reports how many join key positions ran in code space.
// Valid after Open; EXPLAIN ANALYZE reports it.
func (j *HashJoinOp) CodeKeyCount() int { return j.shape.codeKeys() }

// GroupStats reports, after Open, the build's key table as GroupByOp
// reports its groups: the distinct keys resident at the end of the build,
// the bytes the table had allocated, and how key ids were found —
// "direct", "words" or "bytes". EXPLAIN ANALYZE prints the scheme.
func (j *HashJoinOp) GroupStats() (keys int, state int64, ids string) {
	return j.keyIDs, j.keyState, j.ids.String()
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
	j.parts = [aggPartitions]joinPartition{}
	j.table, j.rows, j.gid, j.next, j.head = nil, typedRows{}, nil, nil, nil
	j.cur, j.probes, j.heads, j.hit, j.lpos, j.rrow = nil, nil, nil, nil, nil, nil
	j.queue, j.parked = nil, nil
	j.res.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
