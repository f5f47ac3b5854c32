package encoding

import (
	"sort"
	"sync"

	"dashdb/internal/types"
)

// Dict is the frequency-partitioned, order-preserving dictionary encoding
// (paper §II.B.1–2, "frequency encoding"). The values observed during
// analysis are split into frequency partitions: partition 0 holds the most
// frequently occurring values and is assigned the numerically smallest
// codes, so strides consisting of hot values repack to very narrow code
// widths at seal time. Within each partition codes are assigned in value
// order, making codes binary-comparable inside a partition — exactly the
// paper's "order preserving codes".
//
// Values that show up only after analysis (post-load INSERTs) are admitted
// into an unsorted extension region; predicates over those codes carry a
// residual value-space recheck.
type Dict struct {
	// mu guards all mutable state. Code-carrying vectors hold a *Dict
	// reference that outlives the table latch under which it was captured,
	// so a concurrent INSERT may extend the extension region while the
	// executor translates predicates or decodes group keys.
	mu        sync.RWMutex
	kind      types.Kind
	parts     []dictPartition
	extension []types.Value
	extStart  uint64
	lookup    codeMap
	card      uint64
	// decoded caches code→value so the scan/join/grouping hot path never
	// replays front-coded blocks; it grows append-only with the domain.
	decoded []types.Value
}

// codeMap is a dictionary's one value→code lookup. A string dictionary
// keys it by the string itself, so a load hashes its lane's strings as
// they are and boxes none (EncodeStrings); a dictionary of any other kind
// keys it by the value. Exactly one of the two maps is set, and every key
// is a non-NULL value of the dictionary's kind.
type codeMap struct {
	strs map[string]uint64      // KindString
	vals map[types.Value]uint64 // every other kind
}

func newCodeMap(kind types.Kind, n int) codeMap {
	if kind == types.KindString {
		return codeMap{strs: make(map[string]uint64, n)}
	}
	return codeMap{vals: make(map[types.Value]uint64, n)}
}

// get returns the code of v, a non-NULL value of the dictionary's kind.
func (m codeMap) get(v types.Value) (uint64, bool) {
	if m.strs != nil {
		code, ok := m.strs[v.Str()]
		return code, ok
	}
	code, ok := m.vals[v]
	return code, ok
}

func (m codeMap) put(v types.Value, code uint64) {
	if m.strs != nil {
		m.strs[v.Str()] = code
	} else {
		m.vals[v] = code
	}
}

func (m codeMap) len() int { return len(m.strs) + len(m.vals) }

// dictPartition is one sorted code range. Strings are held front-coded;
// other kinds as a plain sorted slice.
type dictPartition struct {
	start uint64
	strs  *FrontCodedList
	vals  []types.Value
}

func (p *dictPartition) len() int {
	if p.strs != nil {
		return p.strs.Len()
	}
	return len(p.vals)
}

// search returns the insertion position of v and whether it is present.
func (p *dictPartition) search(v types.Value) (int, bool) {
	if p.strs != nil {
		return p.strs.Search(v.Str())
	}
	pos := sort.Search(len(p.vals), func(i int) bool {
		return types.Compare(p.vals[i], v) >= 0
	})
	return pos, pos < len(p.vals) && types.Compare(p.vals[pos], v) == 0
}

// hotCoverage is the share of total occurrences the hot partition aims to
// cover. minHotBenefit prevents splitting when the hot set is not
// materially smaller than the full domain.
const (
	hotCoverage   = 0.90
	minHotBenefit = 4 // hot set must be ≥4× smaller than the domain
)

// BuildDict analyzes the given values (NULLs ignored) and constructs the
// dictionary. Every distinct non-NULL value in the sample receives a code.
func BuildDict(kind types.Kind, sample []types.Value) *Dict {
	hist := make(map[types.Value]int)
	total := 0
	for _, v := range sample {
		if v.IsNull() {
			continue
		}
		cv, err := types.Coerce(v, kind)
		if err != nil {
			cv = v
		}
		hist[cv]++
		total++
	}
	distinct := make([]seen, 0, len(hist))
	for v, n := range hist {
		distinct = append(distinct, seen{v, n})
	}
	return dictOf(kind, distinct, total)
}

// buildDictOf is BuildDict over typed values of kind, all non-NULL: they
// are counted as they are, and only the distinct ones are boxed.
func buildDictOf[T comparable](kind types.Kind, vals []T, box func(T) types.Value) *Dict {
	hist := make(map[T]int)
	for _, x := range vals {
		hist[x]++
	}
	distinct := make([]seen, 0, len(hist))
	for x, n := range hist {
		distinct = append(distinct, seen{box(x), n})
	}
	return dictOf(kind, distinct, len(vals))
}

// seen is a distinct value with its count, so ordering by frequency reads
// the count beside the value instead of hashing both per comparison.
type seen struct {
	v types.Value
	n int
}

// dictOf builds the dictionary of the distinct values of a sample of total
// non-NULL values.
func dictOf(kind types.Kind, distinct []seen, total int) *Dict {
	// Pick the hot set: the smallest group of most-frequent values
	// covering hotCoverage of all occurrences.
	sort.Slice(distinct, func(i, j int) bool {
		if distinct[i].n != distinct[j].n {
			return distinct[i].n > distinct[j].n
		}
		return types.Compare(distinct[i].v, distinct[j].v) < 0
	})
	hotN := 0
	covered := 0
	for hotN < len(distinct) && float64(covered) < hotCoverage*float64(total) {
		covered += distinct[hotN].n
		hotN++
	}
	if hotN*minHotBenefit > len(distinct) {
		hotN = 0 // hot set too large to pay for a second partition
	}

	d := &Dict{kind: kind, lookup: newCodeMap(kind, len(distinct))}
	hot, cold := make([]types.Value, 0, hotN), make([]types.Value, 0, len(distinct)-hotN)
	for i, e := range distinct {
		if i < hotN {
			hot = append(hot, e.v)
		} else {
			cold = append(cold, e.v)
		}
	}
	for _, part := range [][]types.Value{hot, cold} {
		if len(part) == 0 {
			continue
		}
		sort.Slice(part, func(i, j int) bool { return types.Compare(part[i], part[j]) < 0 })
		d.addPartition(part)
	}
	d.extStart = d.card
	return d
}

// NewDict returns an empty dictionary whose entire domain is extension
// codes; used when a column receives data before any analysis pass.
func NewDict(kind types.Kind) *Dict {
	return &Dict{kind: kind, lookup: newCodeMap(kind, 0)}
}

func (d *Dict) addPartition(sorted []types.Value) {
	p := dictPartition{start: d.card}
	if d.kind == types.KindString {
		strs := make([]string, len(sorted))
		for i, v := range sorted {
			strs[i] = v.Str()
		}
		p.strs = NewFrontCodedList(strs)
	} else {
		p.vals = sorted
	}
	for i, v := range sorted {
		d.lookup.put(v, d.card+uint64(i))
		d.decoded = append(d.decoded, v)
	}
	d.card += uint64(len(sorted))
	d.parts = append(d.parts, p)
}

// Kind reports KindDict.
func (d *Dict) Kind() Kind { return KindDict }

// Cardinality returns the number of distinct codes assigned so far.
func (d *Dict) Cardinality() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int(d.card)
}

// Width returns the bits needed for the current highest code.
func (d *Dict) Width() uint {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.card <= 1 {
		return 1
	}
	w := uint(1)
	for ; w < 64; w++ {
		if d.card-1 < 1<<w {
			break
		}
	}
	return w
}

// MemSize estimates dictionary storage in bytes.
func (d *Dict) MemSize() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	sz := 0
	for i := range d.parts {
		if d.parts[i].strs != nil {
			sz += d.parts[i].strs.MemSize()
		} else {
			for _, v := range d.parts[i].vals {
				sz += 16 + len(v.Str())
			}
		}
	}
	for _, v := range d.extension {
		sz += 16 + len(v.Str())
	}
	sz += d.lookup.len() * 24
	return sz
}

// normalize coerces a value into the dictionary's kind for lookup.
func (d *Dict) normalize(v types.Value) (types.Value, bool) {
	cv, err := types.Coerce(v, d.kind)
	if err != nil {
		return types.Null, false
	}
	return cv, true
}

// ExistingCodes looks a batch of values up in the domain under one read
// lock: codes[k] is vals[k]'s code where found[k]. A NULL, or a value
// that does not coerce to the dictionary's kind, is not found. The hash
// join probes its dictionary-keyed build a batch at a time through it.
//
//dashdb:hotpath
func (d *Dict) ExistingCodes(vals []types.Value, codes []uint64, found []bool) {
	d.mu.RLock() //dashdb:nolint hotpath one read lock per batch, not per value: a concurrent load may grow the domain
	defer d.mu.RUnlock()
	for k, v := range vals {
		switch {
		case v.IsNull():
			found[k] = false
		case v.Kind() != d.kind:
			codes[k], found[k] = d.coercedLocked(v)
		default:
			codes[k], found[k] = d.lookup.get(v)
		}
	}
}

// coercedLocked is ExistingCodes' lookup of a value of another kind than
// the dictionary's. The caller holds mu.
//
//dashdb:coldpath join keys of two kinds: a dictionary-keyed build is probed with its own kind
func (d *Dict) coercedLocked(v types.Value) (uint64, bool) {
	cv, ok := d.normalize(v)
	if !ok {
		return 0, false
	}
	return d.lookup.get(cv)
}

// Encode returns v's code, admitting unseen values into the extension
// region. v must be non-NULL.
func (d *Dict) Encode(v types.Value) uint64 {
	cv, ok := d.normalize(v)
	if !ok {
		panic("encoding: Dict.Encode value not coercible to dictionary kind")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.encodeLocked(cv)
}

// EncodeAll writes the code of each value in vals to codes, 0 for a NULL,
// admitting unseen values into the extension region. It takes the lock
// once for the whole run.
func (d *Dict) EncodeAll(vals []types.Value, codes []uint64) {
	codes = codes[:len(vals)]
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, v := range vals {
		if v.IsNull() {
			codes[i] = 0
			continue
		}
		if v.Kind() != d.kind { // a value of the column's kind is its own normal form
			var ok bool
			if v, ok = d.normalize(v); !ok {
				panic("encoding: Dict.EncodeAll value not coercible to dictionary kind")
			}
		}
		codes[i] = d.encodeLocked(v)
	}
}

// EncodeStrings is EncodeAll over a VARCHAR lane: codes[i] is the code of
// strs[i], or 0 where nulls[i], unseen strings admitted into the extension
// region. A load encodes a string column's lane through it, looking each
// string up as it is, with no value boxed. The dictionary's kind must be
// KindString.
func (d *Dict) EncodeStrings(strs []string, nulls []bool, codes []uint64) {
	if d.kind != types.KindString {
		panic("encoding: Dict.EncodeStrings on a dictionary of " + d.kind.String())
	}
	codes, nulls = codes[:len(strs)], nulls[:len(strs)]
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, s := range strs {
		if nulls[i] {
			codes[i] = 0
			continue
		}
		code, ok := d.lookup.strs[s]
		if !ok {
			code = d.extendLocked(types.NewString(s))
		}
		codes[i] = code
	}
}

// encodeLocked returns the code of the normalized value cv, appending it
// to the extension region when it is new. Caller holds mu.
func (d *Dict) encodeLocked(cv types.Value) uint64 {
	if code, ok := d.lookup.get(cv); ok {
		return code
	}
	return d.extendLocked(cv)
}

// extendLocked admits cv, a normalized value not in the domain, into the
// extension region and returns its code. Caller holds mu.
func (d *Dict) extendLocked(cv types.Value) uint64 {
	code := d.card
	d.lookup.put(cv, code)
	d.extension = append(d.extension, cv)
	d.decoded = append(d.decoded, cv)
	d.card++
	return code
}

// Decode maps a code back to its value via the decode cache.
func (d *Dict) Decode(code uint64) types.Value {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if code < uint64(len(d.decoded)) {
		return d.decoded[code]
	}
	panic("encoding: Dict.Decode code out of range")
}

// Snapshot returns a stable view of the code→value cache: codes
// 0..len(snapshot)-1 decode by plain slice indexing, with no lock taken
// per element. The slice is capped so concurrent Encode appends can never
// alias into it; entries themselves are immutable once published. Hot
// loops (group-key emit, join output, vector materialization) index a
// snapshot instead of calling Decode per row.
func (d *Dict) Snapshot() []types.Value {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.decoded[:len(d.decoded):len(d.decoded)]
}

// Translate converts "column OP v" into code space. Equality is a single
// exact code; ordered comparisons become one exact range per sorted
// partition plus a residual range over the unsorted extension region.
func (d *Dict) Translate(op CmpOp, v types.Value) Predicate {
	if v.IsNull() {
		return NonePredicate()
	}
	cv, ok := d.normalize(v)
	if !ok {
		if op == OpNE {
			return AllPredicate()
		}
		return NonePredicate()
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	switch op {
	case OpEQ:
		code, ok := d.lookup.get(cv)
		if !ok {
			return NonePredicate()
		}
		return Predicate{Ranges: []CodeRange{{code, code}}}
	case OpNE:
		code, ok := d.lookup.get(cv)
		if !ok {
			return AllPredicate()
		}
		var rs []CodeRange
		if code > 0 {
			rs = append(rs, CodeRange{0, code - 1})
		}
		if code < d.card-1 {
			rs = append(rs, CodeRange{code + 1, d.card - 1})
		}
		if len(rs) == 0 {
			return NonePredicate()
		}
		return Predicate{Ranges: rs}
	}
	// Ordered comparison: one code range per sorted partition.
	var pred Predicate
	for i := range d.parts {
		p := &d.parts[i]
		n := p.len()
		if n == 0 {
			continue
		}
		pos, found := p.search(cv)
		var lo, hi int // matching index range [lo, hi) inside partition
		switch op {
		case OpLT:
			lo, hi = 0, pos
		case OpLE:
			lo, hi = 0, pos
			if found {
				hi = pos + 1
			}
		case OpGT:
			lo, hi = pos, n
			if found {
				lo = pos + 1
			}
		case OpGE:
			lo, hi = pos, n
		}
		if lo < hi {
			pred.Ranges = append(pred.Ranges, CodeRange{
				p.start + uint64(lo), p.start + uint64(hi-1),
			})
		}
	}
	if len(d.extension) > 0 {
		pred.Residual = append(pred.Residual, CodeRange{d.extStart, d.card - 1})
	}
	if len(pred.Ranges) == 0 && len(pred.Residual) == 0 {
		return NonePredicate()
	}
	return pred
}
