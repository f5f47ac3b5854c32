package exec

import (
	"math"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// leadKeys is a bounded group-by worker's running cut on the group key
// that feeds its scan's bound: the words of the n first keys it has seen
// in the key's order, as encodeWord has them (DESC complemented, so the
// order is always ascending). Once n keys are known the n-th is
// published, non-strict, so the scan keeps every row that ties with it:
// whatever the rows that come later hold, n groups at or before the value
// are already held, and a row past it sorts after all of them.
//
// The cut is amortized: the n-th is selected when the n-th key arrives,
// and again each time the candidates reach 2n, so a key costs O(1) however
// large n is, and the published value keeps fewer than 2n of the keys seen.
// The candidates are charged to the group-by's reservation; a denied
// charge stops the counting, and what was published stays.
//
// NULL keys are not counted. They sort last descending, after any value;
// ascending they sort first, and the scan applies an OpLE bound only to a
// column that holds no NULL (columnar.Bound).
type leadKeys struct {
	bound *columnar.Bound
	res   *mem.Reservation
	kind  types.Kind // the keys': the first seen fixes it
	mask  uint64     // ^0 descending
	n     int
	words []uint64 // the candidates: every key seen at or before top
	held  int64    // bytes of words charged to res
	top   uint64   // the n-th word, once full
	full  bool
	sent  bool // top was published
	off   bool // a charge was denied: no more keys are counted
}

// newLeadKeys returns the cut publishing into b the n-th key, charging its
// candidates to res, or nil when there is no bound to feed.
func newLeadKeys(b *columnar.Bound, n int, res *mem.Reservation) *leadKeys {
	if b == nil || n <= 0 {
		return nil
	}
	l := &leadKeys{bound: b, res: res, kind: types.KindNull, n: n}
	if b.Op == encoding.OpGE {
		l.mask = math.MaxUint64
	}
	return l
}

// reset forgets every key seen; what was published stays.
func (l *leadKeys) reset() { l.words, l.full, l.sent = l.words[:0], false, false }

// release drops the candidates and their charge: no more keys are counted,
// and within keeps the last cut.
func (l *leadKeys) release() {
	if l == nil {
		return
	}
	l.res.Shrink(l.held)
	l.words, l.held, l.off = nil, 0, true
}

// add counts one key word (a value word as encodeWord writes it, before
// the direction mask). A word past the n-th is dropped at once.
func (l *leadKeys) add(w uint64) {
	if w ^= l.mask; l.off || l.full && w > l.top {
		return
	}
	if len(l.words) == cap(l.words) {
		grown := min(max(2*cap(l.words), 64), 2*l.n)
		if !l.res.Grow(8 * int64(grown-cap(l.words))) {
			l.release()
			return
		}
		l.held += 8 * int64(grown-cap(l.words))
		l.words = append(make([]uint64, 0, grown), l.words...)
	}
	if l.words = append(l.words, w); len(l.words) == l.n && !l.full || len(l.words) == 2*l.n {
		l.cut()
	}
}

// kindOf reports whether keys of kind k may be counted: the first kind
// seen fixes the keys', and one column has one.
func (l *leadKeys) kindOf(k types.Kind) bool {
	if l.kind == types.KindNull {
		l.kind = k
	}
	return k == l.kind && k != types.KindNull
}

// addCell counts one boxed key; a NULL or a cell of another kind than the
// column's is not counted.
func (l *leadKeys) addCell(x types.Value) {
	if !x.IsNull() && l.kindOf(x.Kind()) {
		l.add(cellWord(x, l.kind))
	}
}

// within returns the positions among the live rows 0..rows-1 of v (through
// sel) whose key is within the cut — its word at most top, or a NULL
// ascending, which sorts first — in dst's storage; nil, every row, until n
// keys are known. The others sort after n rows or groups already held.
func (l *leadKeys) within(v *vec.Vector, sel []int, rows int, dst *[]int) []int {
	if !l.full {
		return nil
	}
	out := (*dst)[:0]
	for r := range rows {
		i := at(sel, r)
		var w uint64
		switch {
		case v.IsNull(i):
			if l.mask == 0 {
				out = append(out, i)
			}
			continue
		case v.I64 != nil && !v.Const:
			w = uint64(v.I64[i]) ^ 1<<63
		case v.F64 != nil && !v.Const:
			w = f64Word(v.F64[i])
		case v.Str != nil && !v.Const:
			w = strWord(v.Str[i])
		default:
			w = cellWord(v.Get(i), l.kind)
		}
		if w^l.mask <= l.top {
			out = append(out, i)
		}
	}
	*dst = out
	return out
}

// cut keeps the n first candidates, the n-th last as top.
func (l *leadKeys) cut() {
	nthWord(l.words, l.n-1)
	l.words = l.words[:l.n]
	l.top, l.full, l.sent = l.words[l.n-1], true, false
}

// publish tightens the bound to the n-th key when a cut has moved it since
// the last publish: O(1), so a producer may call it after every batch.
func (l *leadKeys) publish() {
	if !l.full || l.sent {
		return
	}
	l.sent = true
	if v, ok := wordValue(l.kind, l.top^l.mask, l.mask != 0); ok {
		l.bound.Tighten(v)
	}
}

// wordValue is a value of kind that keeps every key whose word is w or
// before it: the value itself where words are exact, and for a string —
// whose word is its first 8 bytes — the least string after every string of
// word w ascending, or the least string of word w descending. ok is false
// for a word no value keeps the rows of: a NaN, or the last string word
// ascending.
func wordValue(kind types.Kind, w uint64, desc bool) (v types.Value, ok bool) {
	switch kind {
	case types.KindFloat:
		if w == math.MaxUint64 {
			return v, false // NaN
		}
		if w>>63 != 0 {
			return types.NewFloat(math.Float64frombits(w &^ (1 << 63))), true
		}
		return types.NewFloat(math.Float64frombits(^w)), true
	case types.KindString:
		if !desc {
			if w == math.MaxUint64 {
				return v, false
			}
			w++
		}
		var b [8]byte
		n := 0
		for i := range b {
			if b[i] = byte(w >> (56 - 8*i)); b[i] != 0 {
				n = i + 1
			}
		}
		return types.NewString(string(b[:n])), true
	case types.KindNull:
		return v, false
	}
	return valueOf(kind, w^1<<63), true
}

// nthWord reorders ws so that ws[k] is the word that sorting would put
// there, none after it smaller and none before it larger: Hoare's select.
func nthWord(ws []uint64, k int) {
	lo, hi := 0, len(ws)-1
	for lo < hi {
		p := ws[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for ws[i] < p {
				i++
			}
			for ws[j] > p {
				j--
			}
			if i <= j {
				ws[i], ws[j] = ws[j], ws[i]
				i, j = i+1, j-1
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}
