package exec

// The group table of grouped aggregation: it turns a batch's key vectors
// into a group-id vector, holds the keys and the per-aggregate state lanes
// those ids index, and spills a hash partition's groups when the HASHHEAP
// reservation denies it room. Every lane merges exactly, so a spilled group
// is just an early partial: the merge reads it back and folds it in group by
// group, as it folds another worker's table, and the result is the
// in-memory one.

import (
	"encoding/binary"
	"errors"
	"math"

	"dashdb/internal/bitpack"
	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

const (
	// aggPartitions is the spill fan-out: a group belongs to one of 64 hash
	// partitions, each with its own append-only run file per table, so the
	// file count is bounded by workers × fan-out, not by the denials.
	aggPartitions = 64
	// directMax bounds the slot array direct indexing allocates up front.
	directMax = 1024
	// minGroups is a hashed table's first capacity; it doubles from there.
	minGroups = 16
	// sideQuantum is how many bytes of row surcharge are charged at a time.
	sideQuantum = 4 << 10
)

// idScheme is how a table finds the group id of a key.
type idScheme uint8

const (
	// idsDirect: no keys, or every key a dictionary code and the product of
	// the dictionary sizes at most directMax — keys are held as under
	// idsWords, but a key's slot is arithmetic on its codes: no hash, no
	// probe, no compare.
	idsDirect idScheme = iota
	// idsWords: every key fixed-width — a code, an integer-family payload or
	// canonical float bits — one word a key plus a NULL mask, found through
	// an open-addressing table.
	idsWords
	// idsBytes: anything else (strings without a dictionary, boxed cells)
	// serialized canonically into the table's key arena and hashed as bytes.
	idsBytes
)

func (s idScheme) String() string { return [...]string{"direct", "words", "bytes"}[s] }

// keyShape is what the operator fixed from the first batch's key vectors:
// which positions group on the codes of which dictionary, the vector kind of
// the others, and the id scheme tables start in. Two things move a table off
// it: a code past the adopted dictionary sizes turns a direct table into a
// words table, a key that cannot be held as a word turns either into idsBytes.
type keyShape struct {
	ids   idScheme
	code  []bool
	dicts []*encoding.Dict
	kinds []types.Kind
	sizes []uint64 // idsDirect: slots a key position spans, dictionary size + 1 for NULL
	space int      // idsDirect: the product of sizes
}

func adoptKeys(keyVecs []*vec.Vector) *keyShape {
	n := len(keyVecs)
	s := &keyShape{code: make([]bool, n), dicts: make([]*encoding.Dict, n), kinds: make([]types.Kind, n), sizes: make([]uint64, n)}
	space := uint64(1)
	for k, kv := range keyVecs {
		s.kinds[k] = kv.Kind
		switch {
		case kv.Encoded():
			s.code[k], s.dicts[k], s.sizes[k] = true, kv.Dict, uint64(len(kv.Dom()))+1
			space = min(space*s.sizes[k], directMax+1)
		case !kv.Const && (kv.I64 != nil || kv.F64 != nil):
			s.ids = max(s.ids, idsWords)
		default:
			s.ids = idsBytes
		}
	}
	if s.space = int(space); space > directMax {
		s.ids = max(s.ids, idsWords)
	}
	return s
}

// codeKeys is how many key positions are keyed on codes; 0 before a shape
// is adopted.
func (s *keyShape) codeKeys() (n int) {
	for k := 0; s != nil && k < len(s.code); k++ {
		n += btoi(s.code[k])
	}
	return n
}

// groupTable is one ingest worker's groups, or the merge's. Group ids are
// dense, 0..n-1 in insertion order, under every scheme. The table is
// thread-local; the reservation it charges — for what it allocates, when it
// allocates it — is shared by every worker of the operator.
type groupTable struct {
	shape *keyShape
	res   *mem.Reservation
	ids   idScheme
	final bool // the merge target: never denied, never spilled

	n, cap int
	stride int      // words a key: one per position, then the NULL mask
	keys   []uint64 // idsDirect, idsWords: key g is keys[g*stride:][:stride]
	arena  []byte   // idsBytes: canonical keys, each followed by its cells' kinds
	koff   []uint32 // idsBytes: key g is arena[koff[g]:koff[g+1]]
	slots  []uint32 // id+1: open addressing over a power of two ≥ 2×cap, or (idsDirect) the key space
	parts  []uint8  // each group's spill partition
	lanes  []lane

	perGroup  int64 // bytes charged per group of capacity
	charged   int64
	surcharge int64                // rowSurcharge of the aggregate list
	count     [aggPartitions]int64 // groups per partition
	side      [aggPartitions]int64 // surcharge bytes per partition

	spills [aggPartitions]*mem.SpillFile

	gids  []uint32 // the current batch's group ids, one per live row
	words []uint64 // the current batch's key words
	kw    []uint64 // one key's words
	kbuf  []byte   // one key's canonical bytes, then its kinds
	cells types.Row
	dense []int
	sc    laneScratch
}

// rowSurcharge is the per-input-row reservation charge for aggregates
// whose state grows with input (value lists, distinct sets). Zero for
// fixed-state aggregate lists, which charge only capacity.
func rowSurcharge(specs []AggSpec) int64 {
	var sz int64
	for _, s := range specs {
		switch s.Func {
		case AggMedian, AggPercentileCont, AggPercentileDisc:
			sz += 8 // one float64 per row
		case AggCountDistinct:
			sz += 48 // set entry upper bound; overcharging spills earlier
		}
	}
	return sz
}

// newGroupTable builds an empty table; args are the first batch's argument
// vectors (nil without one), which type the MIN/MAX lanes.
func newGroupTable(shape *keyShape, res *mem.Reservation, aggs []AggSpec, args []*vec.Vector) *groupTable {
	nk := len(shape.code)
	t := &groupTable{shape: shape, res: res, ids: shape.ids, stride: nk + (nk+63)/64,
		lanes: newLanes(aggs, args), surcharge: rowSurcharge(aggs)}
	t.kw = make([]uint64, t.stride)
	t.settle()
	if t.ids == idsDirect {
		t.slots = make([]uint32, shape.space)
		t.charge(4 * int64(shape.space)) // nothing to spill yet: never denied
	}
	return t
}

// settle brings perGroup, and the charge for the capacity held, in line
// with the key scheme and the lanes' widths (a MIN/MAX lane that boxed
// itself got wider).
func (t *groupTable) settle() {
	w := int64(1) // partition byte
	switch t.ids {
	case idsDirect:
		w += int64(t.stride) * 8
	case idsWords:
		w += int64(t.stride)*8 + 8
	case idsBytes:
		w += 4 + 8
	}
	for _, l := range t.lanes {
		w += l.width()
	}
	d := (w - t.perGroup) * int64(t.cap)
	if d > 0 {
		t.res.MustGrow(d)
	} else {
		t.res.Shrink(-d)
	}
	t.charged += d
	t.perGroup = w
}

// charge takes n more bytes from the reservation. False means denied: the
// caller spills and tries again. The merge target and a table with nothing
// to spill are over-granted instead, for progress.
func (t *groupTable) charge(n int64) bool {
	if n > 0 && !t.res.Grow(n) {
		if !t.final && t.n > 0 {
			return false
		}
		t.res.MustGrow(n)
	}
	t.charged += n
	return true
}

func (t *groupTable) setCap(n int) {
	t.cap = n
	for _, l := range t.lanes {
		l.grow(n)
	}
	if t.ids == idsBytes {
		t.koff = grown(t.koff, n+1)
	} else {
		t.keys = grown(t.keys, n*t.stride)
	}
	t.parts = grown(t.parts, n)
	if t.ids != idsDirect && len(t.slots) < 2*n {
		t.slots = make([]uint32, 2*n) // n is minGroups × 2^k
		t.rehash()
	}
}

// room makes space for one more group, doubling the capacity when it is
// full; false means the reservation denied the growth.
func (t *groupTable) room() bool {
	if t.n < t.cap {
		return true
	}
	n := max(minGroups, 2*t.cap)
	if !t.charge(int64(n-t.cap) * t.perGroup) {
		return false
	}
	t.setCap(n)
	return true
}

// --- keys: words, canonical bytes, cells

const (
	nanBits  = 0x7ff8000000000001
	hashSeed = 0x9e3779b97f4a7c15
)

// floatWord is a float key's word: one NaN, +0 = -0, as types.Compare has it.
//
//dashdb:hotpath
func floatWord(f float64) uint64 {
	switch {
	case f != f:
		return nanBits
	case f == 0:
		return 0
	}
	return math.Float64bits(f)
}

// valueOf boxes a fixed-width payload word as a value of kind k.
func valueOf(k types.Kind, w uint64) types.Value {
	switch k {
	case types.KindBool:
		return types.NewBool(w != 0)
	case types.KindFloat:
		return types.NewFloat(math.Float64frombits(w))
	case types.KindDate:
		return types.NewDate(int64(w))
	case types.KindTimestamp:
		return types.NewTimestamp(int64(w))
	}
	return types.NewInt(int64(w))
}

//dashdb:hotpath
func hashWords(ws []uint64) uint64 {
	h := uint64(hashSeed)
	for _, w := range ws {
		h = (h ^ w) * 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h * 0x94d049bb133111eb
}

//dashdb:hotpath
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return (h ^ h>>32) * 0x94d049bb133111eb
}

// Canonical key cells: equal bytes exactly when groupKeyEqual held — NULL
// equals NULL, numbers compare by value whatever their kind (an integral
// DOUBLE is the BIGINT it equals), one NaN, +0 = -0, other kinds never equal
// across kinds. Cells are self-delimiting, so a key is their concatenation.
const (
	tagNull byte = iota
	tagNum
	tagFloat
	tagBool
	tagDate
	tagTimestamp
	tagString
)

func appendKeyCell(b []byte, v types.Value) []byte {
	switch {
	case v.IsNull():
		return append(b, tagNull)
	case v.Kind() == types.KindString:
		s := v.Str()
		return append(binary.AppendUvarint(append(b, tagString), uint64(len(s))), s...)
	case v.Kind() == types.KindFloat:
		return appendKeyWord(b, types.KindFloat, math.Float64bits(v.Float()))
	}
	return appendKeyWord(b, v.Kind(), uint64(v.Int()))
}

// appendKeyWord is appendKeyCell for a non-NULL fixed-width payload word of
// kind k (a float's bits).
func appendKeyWord(b []byte, k types.Kind, w uint64) []byte {
	tag := tagTimestamp
	switch k {
	case types.KindInt:
		tag = tagNum
	case types.KindFloat:
		f := math.Float64frombits(w)
		if f != math.Trunc(f) || f < math.MinInt64 || f >= math.MaxInt64 {
			return binary.LittleEndian.AppendUint64(append(b, tagFloat), floatWord(f))
		}
		tag, w = tagNum, uint64(int64(f))
	case types.KindBool:
		tag = tagBool
	case types.KindDate:
		tag = tagDate
	}
	return binary.LittleEndian.AppendUint64(append(b, tag), w)
}

// readKeyCell decodes the cell at the head of b as a value of the kind it
// was written from, and returns the rest.
func readKeyCell(b []byte, kind types.Kind) (types.Value, []byte) {
	switch tag := b[0]; tag {
	case tagNull:
		return types.NullOf(kind), b[1:]
	case tagString:
		n, w := binary.Uvarint(b[1:])
		b = b[1+w:]
		return types.NewString(string(b[:n])), b[n:]
	default:
		w := binary.LittleEndian.Uint64(b[1:])
		if tag == tagNum && kind == types.KindFloat {
			return types.NewFloat(float64(int64(w))), b[9:]
		}
		return valueOf(kind, w), b[9:]
	}
}

// keyCell is the cell key position k contributes at batch position i: the
// dictionary code where the position groups on codes, else the value.
func (t *groupTable) keyCell(k int, kv *vec.Vector, i int) (types.Value, error) {
	switch {
	case !t.shape.code[k]:
		return kv.Get(i), nil
	case !kv.Encoded() || kv.Dict != t.shape.dicts[k]:
		return types.Null, errOutsideDict // one scan, one dictionary a column
	case kv.IsNull(i):
		return types.NullOf(types.KindInt), nil
	}
	return types.NewInt(int64(kv.Codes[i])), nil
}

var errOutsideDict = errors.New("exec: group key outside adopted dictionary")

// keyCells appends group g's key as cells: codes where a position groups on
// codes, values elsewhere. Cells are the form keys take between tables and
// in spilled blocks, whatever scheme either side is in.
func (t *groupTable) keyCells(row types.Row, g uint32) types.Row {
	nk := len(t.shape.code)
	if t.ids == idsBytes {
		b := t.arena[t.koff[g]:t.koff[g+1]]
		kinds := b[len(b)-nk:]
		for k := 0; k < nk; k++ {
			var v types.Value
			v, b = readKeyCell(b, types.Kind(kinds[k]))
			row = append(row, v)
		}
		return row
	}
	ws := t.keys[int(g)*t.stride:][:t.stride]
	for k := 0; k < nk; k++ {
		kind := t.shape.kinds[k]
		if t.shape.code[k] {
			kind = types.KindInt
		}
		if ws[nk+k>>6]>>(k&63)&1 != 0 {
			row = append(row, types.NullOf(kind))
		} else {
			row = append(row, valueOf(kind, ws[k]))
		}
	}
	return row
}

// partOf is the spill partition of a key of words: the one its canonical
// cells hash to, as findBytes has it, so a key keeps its partition whatever
// scheme the table is in when the key is inserted or looked up.
//
//dashdb:hotpath
func (t *groupTable) partOf(key []uint64) uint8 {
	t.kbuf = t.kbuf[:0]
	nk := len(t.shape.code)
	for k := range nk {
		switch {
		case key[nk+k>>6]>>(k&63)&1 != 0:
			t.kbuf = append(t.kbuf, tagNull)
		case t.shape.code[k]:
			t.kbuf = appendKeyWord(t.kbuf, types.KindInt, key[k])
		default:
			t.kbuf = appendKeyWord(t.kbuf, t.shape.kinds[k], key[k])
		}
	}
	return uint8(hashBytes(t.kbuf) >> 58)
}

// cellWords writes a key's cells as words into t.kw; false when a cell is
// not of the fixed-width kind its position adopted.
func (t *groupTable) cellWords(cells types.Row) bool {
	nk := len(cells)
	clear(t.kw)
	for k, c := range cells {
		switch {
		case c.IsNull():
			t.kw[nk+k>>6] |= 1 << (k & 63)
		case t.shape.code[k]:
			t.kw[k] = uint64(c.Int())
		case c.Kind() != t.shape.kinds[k]:
			return false
		case c.Kind() == types.KindFloat:
			t.kw[k] = floatWord(c.Float())
		default:
			t.kw[k] = uint64(c.Int())
		}
	}
	return true
}

// appendKey appends a key's canonical cells, then the kind each arrived in.
func appendKey(b []byte, cells types.Row) []byte {
	for _, c := range cells {
		b = appendKeyCell(b, c)
	}
	for _, c := range cells {
		b = append(b, byte(c.Kind()))
	}
	return b
}

// lookupCells finds or creates the group of a key given as cells. ok is
// false when the table must spill before it can take a new group — never on
// the merge target.
func (t *groupTable) lookupCells(cells types.Row) (g uint32, ok bool) {
	if t.ids != idsBytes {
		if t.cellWords(cells) {
			return t.lookupWords(t.kw)
		}
		t.demote()
	}
	t.kbuf = appendKey(t.kbuf[:0], cells)
	key := t.kbuf[:len(t.kbuf)-len(cells)]
	g, slot, part, found := t.findBytes(key)
	if found {
		return g, true
	}
	if t.n == t.cap {
		if !t.room() {
			return 0, false
		}
		_, slot, _, _ = t.findBytes(key)
	}
	if need := len(t.arena) + len(t.kbuf); need > cap(t.arena) {
		n := max(256, 2*cap(t.arena), need)
		if !t.charge(int64(n - cap(t.arena))) {
			return 0, false
		}
		t.arena = append(make([]byte, 0, n), t.arena...)
	}
	t.arena = append(t.arena, t.kbuf...)
	t.koff[t.n+1] = uint32(len(t.arena))
	return t.insert(slot, part), true
}

// insert gives the key just stored the next group id.
//
//dashdb:hotpath
func (t *groupTable) insert(slot int, part uint8) uint32 {
	g := uint32(t.n)
	t.n++
	t.slots[slot] = g + 1
	t.parts[g] = part
	t.count[part]++
	return g
}

// findBytes probes for a canonical key: its group, or the empty slot it
// would take, and the spill partition it belongs to.
func (t *groupTable) findBytes(key []byte) (g uint32, slot int, part uint8, found bool) {
	h := hashBytes(key)
	part = uint8(h >> 58)
	if len(t.slots) == 0 {
		return 0, 0, part, false
	}
	nk, mask := len(t.shape.code), len(t.slots)-1
	for slot = int(h) & mask; ; slot = (slot + 1) & mask {
		id := t.slots[slot]
		if id == 0 {
			return 0, slot, part, false
		}
		if string(t.arena[t.koff[id-1]:t.koff[id]-uint32(nk)]) == string(key) {
			return id - 1, slot, part, true
		}
	}
}

// findWords is findBytes for a key of words, less the partition (partOf
// has it). Under idsDirect the slot is the key's position in the product of
// its dictionaries: nothing is hashed, probed or compared — and slot is -1
// for a code past the adopted dictionary sizes, which no group has.
//
//dashdb:hotpath
func (t *groupTable) findWords(key []uint64) (g uint32, slot int, found bool) {
	if t.ids == idsDirect {
		idx, ok := t.directSlot(key)
		if !ok {
			return 0, -1, false
		}
		id := t.slots[idx]
		return id - 1, idx, id != 0
	}
	h := hashWords(key)
	if len(t.slots) == 0 {
		return 0, 0, false
	}
	st, mask := len(key), len(t.slots)-1
probe:
	for slot = int(h) & mask; ; slot = (slot + 1) & mask {
		id := t.slots[slot]
		if id == 0 {
			return 0, slot, false
		}
		have := t.keys[int(id-1)*st:][:st]
		for w := range key {
			if have[w] != key[w] {
				continue probe
			}
		}
		return id - 1, slot, true
	}
}

// directSlot is a key's position in the product of its dictionaries, NULL
// first in each. False means a code the adopted dictionary sizes do not cover.
//
//dashdb:hotpath
func (t *groupTable) directSlot(key []uint64) (int, bool) {
	nk := len(t.shape.sizes)
	slot, mult := uint64(0), uint64(1)
	for k, size := range t.shape.sizes {
		id := key[k] + 1
		if key[nk+k>>6]>>(k&63)&1 != 0 {
			id = 0
		}
		if id >= size {
			return 0, false
		}
		slot += id * mult
		mult *= size
	}
	return int(slot), true
}

// hashKeys turns a direct table into a words table: it met a code past the
// dictionary sizes adopted from the first batch, which has no slot to index.
//
//dashdb:coldpath
func (t *groupTable) hashKeys() {
	t.res.Shrink(4 * int64(len(t.slots)))
	t.charged -= 4 * int64(len(t.slots))
	t.ids, t.slots = idsWords, make([]uint32, 2*t.cap)
	t.settle()
	t.rehash()
}

// lookupWords finds or creates the group of a key of words.
//
//dashdb:hotpath
func (t *groupTable) lookupWords(key []uint64) (uint32, bool) {
	g, slot, found := t.findWords(key)
	if found {
		return g, true
	}
	if slot < 0 { // a direct table has no slot for this code: hash instead
		t.hashKeys()
		_, slot, _ = t.findWords(key)
	}
	if t.n == t.cap {
		if !t.room() {
			return 0, false
		}
		_, slot, _ = t.findWords(key) // the slots may have been rebuilt
	}
	copy(t.keys[t.n*len(key):], key)
	return t.insert(slot, t.partOf(key)), true
}

// rehash rebuilds the slots from the stored keys.
func (t *groupTable) rehash() {
	clear(t.slots)
	nk := uint32(len(t.shape.code))
	for g := 0; g < t.n; g++ {
		var slot int
		if t.ids == idsBytes {
			_, slot, _, _ = t.findBytes(t.arena[t.koff[g] : t.koff[g+1]-nk])
		} else {
			_, slot, _ = t.findWords(t.keys[g*t.stride:][:t.stride])
		}
		t.slots[slot] = uint32(g) + 1
	}
}

// demote re-keys a direct or words table as idsBytes in place: group ids,
// partitions and lanes stay as they are, the keys are re-serialized from
// their cells. Never denied.
func (t *groupTable) demote() {
	if t.ids == idsDirect {
		t.hashKeys()
	}
	var arena []byte
	koff := make([]uint32, t.cap+1)
	for g := 0; g < t.n; g++ {
		t.cells = t.keyCells(t.cells[:0], uint32(g))
		arena = appendKey(arena, t.cells)
		koff[g+1] = uint32(len(arena))
	}
	t.res.MustGrow(int64(cap(arena)))
	t.charged += int64(cap(arena))
	t.ids, t.keys, t.arena, t.koff = idsBytes, nil, arena, koff
	t.settle()
	t.rehash()
}

// --- ingest

// ingest folds one batch into the table: group ids for its live rows, then
// every lane's kernel over them. A denied growth splits the batch: the rows
// assigned so far are folded, the largest partition is spilled, and the rest
// follow. Aggregates whose state grows with input are charged their row
// surcharge ahead of every sideQuantum bytes' worth of rows.
func (t *groupTable) ingest(keys, args, arg2s []*vec.Vector, sel []int, rows int) error {
	t.keysFor(keys, sel, rows)
	step := rows
	if t.surcharge > 0 {
		step = int(max(1, sideQuantum/t.surcharge))
	}
	for done := 0; done < rows; {
		want := min(step, rows-done)
		for !t.charge(int64(want) * t.surcharge) {
			if err := t.spillLargest(); err != nil {
				return err
			}
		}
		m, err := t.assign(keys, sel, done, done+want)
		if err != nil {
			return err
		}
		t.res.Shrink(int64(want-m) * t.surcharge)
		t.charged -= int64(want-m) * t.surcharge
		seg := sel
		if m < rows { // split: the kernels take the segment's positions explicitly
			if seg == nil {
				for len(t.dense) < rows {
					t.dense = append(t.dense, len(t.dense))
				}
				seg = t.dense
			}
			seg = seg[done : done+m]
		}
		gids := t.gids[done : done+m]
		for i, l := range t.lanes {
			if err := l.update(gids, args[i], arg2s[i], seg, &t.sc); err != nil {
				return err
			}
		}
		t.settle()
		if t.surcharge > 0 {
			for _, g := range gids {
				t.side[t.parts[g]] += t.surcharge
			}
		}
		if done += m; m < want {
			if err := t.spillLargest(); err != nil {
				return err
			}
		}
	}
	return nil
}

// keysFor readies the table to assign a batch's live rows: their key words,
// when every key vector is in the fixed-width form its position adopted, or
// else the table demotes itself to idsBytes.
func (t *groupTable) keysFor(keys []*vec.Vector, sel []int, rows int) {
	t.gids = grown(t.gids, rows)
	if t.ids != idsBytes && !t.keyWords(keys, sel, rows) {
		t.demote()
	}
}

// keyWords fills t.words for the batch's live rows; false when a key vector
// is not in the fixed-width form its position adopted.
func (t *groupTable) keyWords(keys []*vec.Vector, sel []int, rows int) bool {
	t.words = grown(t.words, rows*t.stride)
	words := t.words[:rows*t.stride]
	clear(words)
	for k, kv := range keys {
		mask := len(keys) + k>>6
		switch {
		case kv.Const:
			return false
		case t.shape.code[k]:
			if !kv.Encoded() || kv.Dict != t.shape.dicts[k] {
				return false
			}
			wordsOf(words, t.stride, k, mask, kv.Codes, kv.Nulls, sel)
		case kv.Kind != t.shape.kinds[k]:
			return false
		case kv.I64 != nil:
			wordsOf(words, t.stride, k, mask, kv.I64, kv.Nulls, sel)
		case kv.F64 != nil:
			wordsOfFloats(words, t.stride, k, mask, kv.F64, kv.Nulls, sel)
		default:
			return false
		}
	}
	return true
}

// wordsOf writes key position k of every live row: the payload (a code, an
// integer-family value) as the word, or the position's bit in the NULL mask
// word.
//
//dashdb:hotpath
func wordsOf[T int64 | uint64](words []uint64, stride, k, mask int, vals []T, nulls *bitpack.Bitmap, sel []int) {
	bit := uint64(1) << (k & 63)
	for j, w := 0, 0; w < len(words); j, w = j+1, w+stride {
		if i := at(sel, j); nulls != nil && nulls.Get(i) {
			words[w+mask] |= bit
		} else {
			words[w+k] = uint64(vals[i])
		}
	}
}

//dashdb:hotpath
func wordsOfFloats(words []uint64, stride, k, mask int, vals []float64, nulls *bitpack.Bitmap, sel []int) {
	bit := uint64(1) << (k & 63)
	for j, w := 0, 0; w < len(words); j, w = j+1, w+stride {
		if i := at(sel, j); nulls != nil && nulls.Get(i) {
			words[w+mask] |= bit
		} else {
			words[w+k] = floatWord(vals[i])
		}
	}
}

// assign gives live rows from..rows-1 their group ids and returns how many
// it got through: fewer than asked means the table must spill first.
func (t *groupTable) assign(keys []*vec.Vector, sel []int, from, rows int) (int, error) {
	if t.ids != idsBytes {
		return t.assignWords(from, rows), nil
	}
	for j := from; j < rows; j++ {
		t.cells = t.cells[:0]
		for k, kv := range keys {
			c, err := t.keyCell(k, kv, at(sel, j))
			if err != nil {
				return 0, err
			}
			t.cells = append(t.cells, c)
		}
		g, ok := t.lookupCells(t.cells)
		if !ok {
			return j - from, nil
		}
		t.gids[j] = g
	}
	return rows - from, nil
}

//dashdb:hotpath
func (t *groupTable) assignWords(from, rows int) int {
	for j := from; j < rows; j++ {
		g, ok := t.lookupWords(t.words[j*t.stride:][:t.stride])
		if !ok {
			return j - from
		}
		t.gids[j] = g
	}
	return rows - from
}

// noGroup is find's answer for a key no group has.
const noGroup = ^uint32(0)

// find is assign without inserting, a hash join's probe: after keysFor, for
// live rows 0..rows-1 it sets t.gids[j] to the group of the row's key, or
// noGroup, and, when parts is not nil, parts[j] to the partition the key is,
// or would be, filed under. It never charges.
//
//dashdb:hotpath
func (t *groupTable) find(keys []*vec.Vector, sel []int, rows int, parts []uint8) error {
	for j := range rows {
		var g uint32
		var part uint8
		found := false
		if t.ids != idsBytes {
			key := t.words[j*t.stride:][:t.stride]
			if g, _, found = t.findWords(key); !found && parts != nil {
				part = t.partOf(key)
			}
		} else {
			t.kbuf = t.kbuf[:0]
			for k, kv := range keys {
				c, err := t.keyCell(k, kv, at(sel, j))
				if err != nil {
					return err
				}
				t.kbuf = appendKeyCell(t.kbuf, c)
			}
			g, _, part, found = t.findBytes(t.kbuf)
		}
		if found {
			part = t.parts[g]
		} else {
			g = noGroup
		}
		t.gids[j] = g
		if parts != nil {
			parts[j] = part
		}
	}
	return nil
}

// --- spill and merge

// spillLargest appends the groups of the table's biggest partition to that
// partition's run file as one block (spill.go) — their key cells, which the
// block types by column (a code as BIGINT), then every lane's state
// columns — and drops them from the table.
func (t *groupTable) spillLargest() error {
	victim := t.largest(&t.side)
	if victim < 0 {
		return nil // nothing resident; charge over-grants
	}
	if t.spills[victim] == nil {
		f, err := t.res.NewSpillFile("agg")
		if err != nil {
			return err
		}
		t.spills[victim] = f
	}
	f, before := t.spills[victim], t.spills[victim].Size()
	gs := make([]uint32, 0, t.count[victim])
	for g := 0; g < t.n; g++ {
		if int(t.parts[g]) == victim {
			gs = append(gs, uint32(g))
		}
	}
	cols := make([]*vec.Vector, len(t.shape.code))
	for k := range cols {
		cols[k] = vec.New(types.KindNull, len(gs))
	}
	for r, g := range gs {
		t.cells = t.keyCells(t.cells[:0], g)
		for k, c := range t.cells {
			cols[k].Any[r] = c
		}
	}
	for _, l := range t.lanes {
		cols = append(cols, l.spill(gs)...)
	}
	if err := spillBlock(f, vec.NewBatch(nil, cols, len(gs))); err != nil {
		return err
	}
	t.res.NoteSpill(f.Size() - before)
	t.drop(victim)
	return nil
}

// largest is the partition holding the most: its groups at perGroup each,
// plus side[p], what the owner keeps beside them. -1 when no group is
// resident.
func (t *groupTable) largest(side *[aggPartitions]int64) int {
	victim, worst := -1, int64(-1)
	for p, c := range t.count {
		if w := c*t.perGroup + side[p]; c > 0 && w > worst {
			victim, worst = p, w
		}
	}
	return victim
}

// drop removes partition p's groups from the table: the survivors move down,
// keeping their order, so ids stay dense. Capacity stays allocated and
// charged; what returns to the reservation is p's surcharge.
func (t *groupTable) drop(p int) {
	keep := 0
	for g := 0; g < t.n; g++ {
		if int(t.parts[g]) != p {
			t.move(keep, g)
			keep++
		}
	}
	for g := keep; g < t.n; g++ {
		for _, l := range t.lanes {
			l.clear(uint32(g))
		}
	}
	if t.ids == idsBytes {
		t.arena = t.arena[:t.koff[keep]]
	}
	t.n = keep
	t.rehash()
	t.res.Shrink(t.side[p])
	t.charged -= t.side[p]
	t.count[p], t.side[p] = 0, 0
}

// move renumbers group src as dst ≤ src: key, partition and lanes.
func (t *groupTable) move(dst, src int) {
	if dst == src {
		return
	}
	if t.ids == idsBytes {
		n := copy(t.arena[t.koff[dst]:], t.arena[t.koff[src]:t.koff[src+1]])
		t.koff[dst+1] = t.koff[dst] + uint32(n)
	} else {
		copy(t.keys[dst*t.stride:][:t.stride], t.keys[src*t.stride:])
	}
	t.parts[dst] = t.parts[src]
	for _, l := range t.lanes {
		l.clear(uint32(dst))
		l.merge(uint32(dst), l, uint32(src))
	}
}

// absorb folds every group of o into t, the merge target.
func (t *groupTable) absorb(o *groupTable) {
	for og := uint32(0); int(og) < o.n; og++ {
		o.cells = o.keyCells(o.cells[:0], og)
		g, _ := t.lookupCells(o.cells)
		for i, l := range t.lanes {
			l.merge(g, o.lanes[i], og)
		}
	}
	t.res.Shrink(o.charged)
}

// replay folds a run file's blocks into t, the merge target, through rec:
// lanes each block's groups are loaded into.
func (t *groupTable) replay(f *mem.SpillFile, rec []lane) error {
	if err := f.Rewind(); err != nil {
		return err
	}
	nk := len(t.shape.code)
	var cells types.Row // not t.cells: a demote in lookupCells writes those
	for {
		vb, err := readBlock(f)
		if err != nil || vb == nil {
			return err
		}
		cols := make([]*vec.Vector, vb.NumCols())
		for c := range cols {
			cols[c] = vb.Col(c)
		}
		if len(cols) < nk {
			return errBadRun
		}
		rest := cols[nk:]
		for _, l := range rec {
			kinds := l.spill(nil)
			if len(rest) < len(kinds) {
				return errBadRun
			}
			for c, k := range kinds {
				if k.Kind != types.KindNull && (rest[c].Kind != k.Kind || !typedVec(rest[c])) {
					return errBadRun
				}
			}
			l.grow(vb.N)
			if err := l.load(rest[:len(kinds)]); err != nil {
				return err
			}
			rest = rest[len(kinds):]
		}
		if len(rest) != 0 {
			return errBadRun
		}
		for r := range vb.N {
			cells = cells[:0]
			for _, kv := range cols[:nk] {
				cells = append(cells, kv.Get(r))
			}
			g, _ := t.lookupCells(cells)
			for i, l := range rec {
				t.lanes[i].merge(g, l, uint32(r))
			}
		}
	}
}
