package exec

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"

	"dashdb/internal/columnar"
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

// compare orders ids a and b by the key: compareAt, DESC applied.
func (k sortCol) compare(a, b int) int {
	c := compareAt(k.v, a, b)
	if k.desc {
		return -c
	}
	return c
}

// keyOrder orders ids a and b by the keys and then by id, so equal keys keep
// id order. It orders what words cannot: keys past a record's width.
func keyOrder(keys []sortCol, a, b int) int {
	for _, k := range keys {
		if c := k.compare(a, b); c != 0 {
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

// record is one row's normalized key: its key words, most significant
// first, then its id, so records compare as words and never tie. Nine words
// hold four keys that hold a NULL, or eight that hold none.
type record interface {
	[2]uint64 | [3]uint64 | [4]uint64 | [5]uint64 | [6]uint64 | [7]uint64 | [8]uint64 | [9]uint64
}

// keyWord is one word of a normalized key: a key's NULL flag, or its value
// as kind orders it (KindNull: a boxed column of mixed kinds, whose value
// word is a constant).
type keyWord struct {
	col  sortCol
	kind types.Kind
	flag bool
}

// keyRowBytes is what sorting costs a row beside its columns: the widest
// record its keys can take (a flag and a value word a key, and the id) and
// its 4 B place in the order.
func keyRowBytes(keys int) int64 { return int64(8*(2*keys+1) + 4) }

// sort puts the first top of ids 0..n-1 in key order and rewinds the
// cursor. Each key column is encoded once into order-preserving words
// (encodeWord), laid out a record a row, and the records are sorted as
// words, past the first top only as far as it takes to find them.
// compareAt is left only what equal words do not decide: string prefixes,
// mixed-kind boxed columns, and keys past the ninth word.
func (s *sortedCols) sort(keys []sortCol, n, top int) {
	s.next = 0
	var words []keyWord
	rest := keys[len(keys):]
	for j, k := range keys {
		kind, nulls := wordKind(k.v, nil, n)
		if len(words)+1+btoi(nulls) > 8 {
			rest = keys[j:]
			break
		}
		if nulls {
			words = append(words, keyWord{col: k, flag: true})
		}
		words = append(words, keyWord{col: k, kind: kind})
	}
	switch len(words) + 1 {
	case 1:
		s.order = make([]uint32, top)
		for id := range s.order {
			s.order[id] = uint32(id)
		}
	case 2:
		s.order = sortRecords[[2]uint64](words, rest, n, top)
	case 3:
		s.order = sortRecords[[3]uint64](words, rest, n, top)
	case 4:
		s.order = sortRecords[[4]uint64](words, rest, n, top)
	case 5:
		s.order = sortRecords[[5]uint64](words, rest, n, top)
	case 6:
		s.order = sortRecords[[6]uint64](words, rest, n, top)
	case 7:
		s.order = sortRecords[[7]uint64](words, rest, n, top)
	case 8:
		s.order = sortRecords[[8]uint64](words, rest, n, top)
	default:
		s.order = sortRecords[[9]uint64](words, rest, n, top)
	}
}

// sortRecords encodes ids 0..n-1 into records of words, sorts them and
// returns the ids of the first top in record order. rest are the keys the
// words leave out.
func sortRecords[E record](words []keyWord, rest []sortCol, n, top int) []uint32 {
	recs := make([]E, n)
	ties := make([]sortCol, len(words)) // by word position: the key whose equal words compareAt orders
	tied := len(rest) > 0
	for j, w := range words {
		encodeWord(recs, j, w, nil)
		if !w.flag && (w.kind == types.KindString || w.kind == types.KindNull) {
			ties[j], tied = w.col, true
		}
	}
	id := len(words)
	for r := range recs {
		recs[r][id] = uint64(r)
	}
	if tied {
		slices.SortFunc(recs, recordOrder[E](ties, rest))
	} else {
		quickWords(recs, top, 2*bits.Len(uint(n)))
	}
	order := make([]uint32, top)
	for r := range order {
		order[r] = uint32(recs[r][id])
	}
	return order
}

// quickWords puts the top least of records whose words alone order them
// first, in order, the rest after them in no order: quicksort on a median
// of three with the comparison inlined, which slices.SortFunc's comparison
// function is not (twice the speed on the benchmark's sort), going into a
// part only when it holds one of the top, insertion sort below 12
// records, and pdqsort past depth partitions.
func quickWords[E record](r []E, top, depth int) {
	for len(r) > 12 && top > 0 {
		if depth == 0 {
			slices.SortFunc(r, recordOrder[E](nil, nil))
			return
		}
		depth--
		m, hi := len(r)/2, len(r)-1
		if wordsLess(&r[m], &r[0]) {
			r[m], r[0] = r[0], r[m]
		}
		if wordsLess(&r[hi], &r[m]) {
			r[hi], r[m] = r[m], r[hi]
			if wordsLess(&r[m], &r[0]) {
				r[m], r[0] = r[0], r[m]
			}
		}
		r[0], r[m] = r[m], r[0]
		// Records never tie (the id is a word), so the pivot r[0] splits
		// the others into those before it and those after.
		p, i, j := r[0], 1, hi
		for {
			for i <= j && wordsLess(&r[i], &p) {
				i++
			}
			for i <= j && wordsLess(&p, &r[j]) {
				j--
			}
			if i >= j {
				break
			}
			r[i], r[j] = r[j], r[i]
			i, j = i+1, j-1
		}
		r[0], r[j] = r[j], r[0]
		switch {
		case top <= j: // the pivot and the records after it are past the top
			r = r[:j]
		case j < len(r)-j:
			quickWords(r[:j], j, depth)
			r, top = r[j+1:], top-j-1
		default:
			quickWords(r[j+1:], top-j-1, depth)
			r, top = r[:j], j
		}
	}
	for i := 1; i < len(r) && top > 0; i++ {
		for j := i; j > 0 && wordsLess(&r[j], &r[j-1]); j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
}

// wordsLess reports whether record a's words order it before b.
func wordsLess[E record](a, b *E) bool {
	for j := range len(*a) {
		if (*a)[j] != (*b)[j] {
			return (*a)[j] < (*b)[j]
		}
	}
	return false
}

// recordOrder compares two records word by word. With ties (nil: none) it
// also hands equal words of a tie position, and then the keys in rest, to
// compareAt, the id last.
func recordOrder[E record](ties, rest []sortCol) func(a, b E) int {
	if ties == nil {
		return func(a, b E) int {
			for j := range len(a) {
				if a[j] != b[j] {
					return cmp.Compare(a[j], b[j])
				}
			}
			return 0
		}
	}
	return func(a, b E) int {
		id := len(a) - 1
		x, y := int(a[id]), int(b[id])
		for j := range id {
			if a[j] != b[j] {
				return cmp.Compare(a[j], b[j])
			}
			if ties[j].v != nil {
				if c := ties[j].compare(x, y); c != 0 {
					return c
				}
			}
		}
		return keyOrder(rest, x, y)
	}
}

// wordKind is the kind whose words order rows 0..n-1 of v (positions
// through sel): its payload's, or for a boxed or constant vector the one
// kind its non-NULL cells share — KindNull when they mix, KindInt
// when every cell is NULL. nulls reports whether v may hold a NULL there.
//
//dashdb:hotpath
func wordKind(v *vec.Vector, sel []int, n int) (kind types.Kind, nulls bool) {
	if typedVec(v) {
		return v.Kind, v.Nulls != nil
	}
	seen := false
	for r := range n {
		x := v.Get(at(sel, r))
		switch {
		case x.IsNull():
			nulls = true
		case !seen:
			kind, seen = x.Kind(), true
		case x.Kind() != kind:
			kind = types.KindNull
		}
	}
	if !seen {
		kind = types.KindInt
	}
	return kind, nulls
}

// encodeWord writes word w of rows 0..len(recs)-1 of its key (positions
// through sel) into recs[r][j]: ascending, a NULL flag is 0 for NULL and 1
// otherwise, and a value word orders as types.Compare orders values of its
// kind, a NULL's being 0; DESC complements both. So NULLs sort first
// ascending and last descending, as compareAt has them.
//
//dashdb:hotpath
func encodeWord[E record](recs []E, j int, w keyWord, sel []int) {
	v, mask := w.col.v, uint64(0)
	if w.col.desc {
		mask = ^mask
	}
	switch {
	case w.flag:
		for r := range recs {
			recs[r][j] = uint64(1-btoi(v.IsNull(at(sel, r)))) ^ mask
		}
		return
	case v.I64 != nil && !v.Const:
		for r := range recs {
			recs[r][j] = uint64(v.I64[at(sel, r)]) ^ 1<<63 ^ mask
		}
	case v.F64 != nil && !v.Const:
		for r := range recs {
			recs[r][j] = f64Word(v.F64[at(sel, r)]) ^ mask
		}
	case v.Str != nil && !v.Const:
		for r := range recs {
			recs[r][j] = strWord(v.Str[at(sel, r)]) ^ mask
		}
	default:
		for r := range recs {
			recs[r][j] = cellWord(v.Get(at(sel, r)), w.kind) ^ mask
		}
		return
	}
	if v.Nulls != nil {
		for r := range recs {
			if v.Nulls.Get(at(sel, r)) {
				recs[r][j] = mask
			}
		}
	}
}

// cellWord is a boxed cell's value word as kind orders it: 0 for NULL and
// for every cell of a mixed-kind column.
//
//dashdb:hotpath
func cellWord(x types.Value, kind types.Kind) uint64 {
	switch {
	case x.IsNull(), kind == types.KindNull:
		return 0
	case kind == types.KindFloat:
		return f64Word(x.Float())
	case kind == types.KindString:
		return strWord(x.Str())
	}
	return uint64(x.Int()) ^ 1<<63
}

// f64Word orders a DOUBLE as lessF64 and types.Compare do: −0 as +0, every
// NaN as one value after +Inf.
//
//dashdb:hotpath
func f64Word(f float64) uint64 {
	switch {
	case f != f:
		return math.MaxUint64
	case f == 0:
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// strWord is a string's first 8 bytes, big-endian and zero-padded: strings
// with different words order as their words, and equal words leave the
// order to strings.Compare.
//
//dashdb:hotpath
func strWord(s string) uint64 {
	var w uint64
	for i := range 8 {
		w <<= 8
		if i < len(s) {
			w |= uint64(s[i])
		}
	}
	return w
}

// batch gathers the next ChunkSize ids in order into typed vectors, an
// owned batch; nil after the last.
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
	vb := vec.NewBatch(sch, cols, b-a)
	vb.Own()
	return vb
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
	pos := func(j int) int {
		if sel != nil {
			return int(sel[j])
		}
		return j
	}
	switch {
	case dst.Any != nil:
		for j := j0; j < j1; j++ {
			dst.Any[to+j-j0] = src.Get(pos(j))
		}
		return
	case dst.I64 != nil:
		for j := j0; j < j1; j++ {
			dst.I64[to+j-j0] = src.I64[pos(j)]
		}
	case dst.F64 != nil:
		for j := j0; j < j1; j++ {
			dst.F64[to+j-j0] = src.F64[pos(j)]
		}
	default:
		for j := j0; j < j1; j++ {
			dst.Str[to+j-j0] = src.Str[pos(j)]
		}
	}
	if src.Nulls != nil {
		for j := j0; j < j1; j++ {
			if src.Nulls.Get(pos(j)) {
				dst.SetNull(to + j - j0)
			}
		}
	}
}

// gather copies rows sel[a:b] of src into a new vector, typed like src or
// boxed when src has no typed payload (a constant, a mixed-kind column); a
// code vector decodes first. The payload is pooled: the vector
// goes into an owned batch, as a scan's do.
func gather[I int | uint32](src *vec.Vector, sel []I, a, b int) *vec.Vector {
	src.Materialize()
	kind := src.Kind
	if !typedVec(src) {
		kind = types.KindNull
	}
	dst := vec.NewPooled(kind, b-a)
	put(dst, src, 0, sel, a, b)
	return dst
}

// bufKind is the kind of a buffer that holds buf's rows and then v's: buf's
// own, or boxed (KindNull) when v's payload is not buf's — a UNION ALL of
// BIGINT and DOUBLE, a mixed-kind column, a constant. Boxing keeps every cell
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
	decodeCols(in)
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
			need += strBytes(v, sel, done, done+m)
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

// strBytes is the bytes of the strings at live rows from..to-1 of v
// (positions through sel): what typedRows charges for them.
func strBytes(v *vec.Vector, sel []int, from, to int) (n int64) {
	for j := from; j < to && v.I64 == nil && v.F64 == nil; j++ {
		if x := v.Get(at(sel, j)); x.Kind() == types.KindString && !x.IsNull() {
			n += int64(len(x.Str()))
		}
	}
	return n
}

// decodeCols replaces every code vector of in with a decoded copy.
func decodeCols(in []*vec.Vector) {
	for c, v := range in {
		in[c] = v.Decoded()
	}
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
// With a governor the buffers charge a SORTHEAP reservation, keyRowBytes a
// row of capacity for the normalized keys and the order beside them;
// nothing is credited back until a spill drops them. A denied charge sorts
// the buffered rows and spills them as one run of blocks (spill.go) — the
// data columns, then the keys that are not bare columns — and Next k-way
// merges the runs into typed output columns, comparing the runs' current
// key values, never re-evaluating a key.
//
// The merge holds one block of each run it reads, charged to the
// reservation while it is held. A block holds at most a mergeWays-th of
// the rows any denied charge left buffered, so a merge of mergeWays runs
// holds about what the heap held; past mergeWays runs, merge passes first
// merge them mergeWays at a time into runs of such blocks.
//
// Bound > 0 says only the first Bound rows are read (a LIMIT above, OFFSET
// included). After each input batch that leaves 2·Bound rows or more
// buffered the sort trims: it keeps the first Bound of them, in input
// order, and remembers the Bound-th as the cutoff, so later rows that sort
// after it are not copied. A batch is added whole, so at most 2·Bound rows
// and one batch are buffered, and a trim's sort is amortized over the
// batch. A spilled run and the emit stop at Bound rows too.
//
// Publish, set by the planner when the leading key is a bare column of a
// columnar scan below, is that scan's bound, which the sort tightens to
// the leading key of each cutoff it sets, so the scan stops decoding rows
// the sort would drop: the first publish comes after the first batch that
// brings the rows taken to 2·Bound. A bounded GroupByOp applies the same
// trim to its group ids (groupCut).
type SortOp struct {
	Child   Operator
	Keys    []SortKey
	Gov     *mem.Governor
	Bound   int
	Publish *columnar.Bound

	res    *mem.Reservation
	keyCol []int      // the buffer each key reads
	rows   typedRows  // output columns, then computed keys
	out    sortedCols // the buffered rows in key order, when nothing spilled
	cut    cutoff

	runs  []*sortRun
	block int        // rows a run's block holds
	live  []*sortRun // the runs not at their end, in merge order (push)
	spans []runSpan  // scratch: the rows of the merge's next batch
}

// mergeWays is the most runs one merge reads at once.
const mergeWays = 16

// cutoff is a bounded sort's Bound-th row, once one is known, and the
// scratch incoming rows are checked against it in.
type cutoff struct {
	keys []cutKey // nil until a sort of the buffered rows found a Bound-th
	recs [][2]uint64
	cmps []int
	pass []int
}

// cutKey is one key of the cutoff row: its NULL flag and value words, the
// kind the value word encodes, and the value, for what words cannot order.
type cutKey struct {
	rec  [2]uint64
	kind types.Kind
	val  types.Value
}

// sortRun is one spilled, sorted run being merged: its current block, what
// that block is charged, and the row of it the merge is at.
type sortRun struct {
	file   *mem.SpillFile
	seq    int // place among the runs merged together, the stability tiebreak
	cur    *vec.Batch
	charge int64
	at     int
}

// runSpan is rows from..to-1 of one run's block, consecutive in the merge.
type runSpan struct {
	b        *vec.Batch
	from, to int
}

// Schema implements Operator.
func (s *SortOp) Schema() types.Schema { return s.Child.Schema() }

// Open implements Operator: drains the child, trimming a bounded sort's
// buffer after each batch and spilling sorted runs whenever the sort heap
// reservation denies growth.
func (s *SortOp) Open() error {
	if err := s.Child.Open(); err != nil {
		return err
	}
	defer s.Child.Close()
	s.res = s.Gov.Acquire(mem.SortHeap)
	s.rows = typedRows{res: s.res, perRow: keyRowBytes(len(s.Keys))}
	s.cut.keys, s.block = nil, ChunkSize
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
		sel, rows := vb.Sel, vb.Rows()
		if s.cut.keys != nil {
			decodeCols(in)
			sel = s.below(in, sel, rows)
			rows = len(sel)
		}
		for done := 0; done < rows; {
			if done += s.rows.add(in, sel, done, rows); done < rows {
				s.block = min(s.block, max(1, s.rows.n/mergeWays))
				if err := s.spill(); err != nil {
					return err
				}
			}
		}
		if s.Bound > 0 && s.rows.n >= 2*s.Bound {
			s.trim()
		}
		vb.Release() // the buffers hold copies of every row kept
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

// sortBuf puts the buffered rows in key order. Under a bound only the
// first Bound are selected and ordered, and the Bound-th becomes the
// cutoff.
func (s *SortOp) sortBuf() {
	if s.rows.n == 0 {
		return
	}
	keys := make([]sortCol, len(s.Keys))
	for j, k := range s.Keys {
		keys[j] = sortCol{v: s.rows.cols[s.keyCol[j]], desc: k.Desc}
	}
	top := s.rows.n
	if s.Bound > 0 {
		top = min(top, s.Bound)
	}
	s.out = sortedCols{cols: s.rows.cols[:len(s.Schema())]}
	if s.out.sort(keys, s.rows.n, top); top == s.Bound {
		s.setCut(keys, int(s.out.order[s.Bound-1]))
	}
}

// trim keeps the buffered rows among the first Bound in key order, in
// input order, so ties stay stable, and drops the rest in place.
func (s *SortOp) trim() {
	s.sortBuf()
	ids := make([]int, len(s.out.order))
	for i, id := range s.out.order {
		ids[i] = int(id)
	}
	slices.Sort(ids)
	s.rows.keep(ids)
	s.out = sortedCols{}
}

// setCut makes buffered row id the cutoff, and tightens the scan's bound
// to its leading key: Bound rows at or before it are held, buffered or
// spilled, so a row past it sorts after all of them.
func (s *SortOp) setCut(keys []sortCol, id int) {
	sel, rec := []int{id}, make([][2]uint64, 1)
	s.cut.keys = make([]cutKey, len(keys))
	for j, k := range keys {
		kind, _ := wordKind(k.v, sel, 1)
		encodeWord(rec, 0, keyWord{col: k, flag: true}, sel)
		encodeWord(rec, 1, keyWord{col: k, kind: kind}, sel)
		s.cut.keys[j] = cutKey{rec: rec[0], kind: kind, val: k.v.Get(id)}
	}
	if s.Publish != nil {
		s.Publish.Tighten(s.cut.keys[0].val) // a NULL publishes nothing
	}
}

// below returns the positions of the n live rows of in (through sel) that
// sort before the cutoff. A row whose keys equal the cutoff's comes after
// it in input order, so it is not among them.
func (s *SortOp) below(in []*vec.Vector, sel []int, n int) []int {
	c := &s.cut
	c.recs = slices.Grow(c.recs[:0], n)[:n]
	c.cmps = slices.Grow(c.cmps[:0], n)[:n]
	clear(c.cmps)
	for j, k := range s.Keys {
		col, ck := sortCol{v: in[s.keyCol[j]], desc: k.Desc}, c.keys[j]
		kind, _ := wordKind(col.v, sel, n)
		words := kind == ck.kind && kind != types.KindNull
		encodeWord(c.recs, 0, keyWord{col: col, flag: true}, sel)
		if words {
			encodeWord(c.recs, 1, keyWord{col: col, kind: kind}, sel)
		}
		for r, rec := range c.recs {
			if c.cmps[r] != 0 {
				continue
			}
			x := cmp.Compare(rec[0], ck.rec[0])
			if x == 0 && words {
				x = cmp.Compare(rec[1], ck.rec[1])
			}
			if x == 0 && (!words || kind == types.KindString) {
				if x = types.Compare(col.v.Get(at(sel, r)), ck.val); k.Desc {
					x = -x
				}
			}
			c.cmps[r] = x
		}
	}
	c.pass = c.pass[:0]
	for r, x := range c.cmps {
		if x < 0 {
			c.pass = append(c.pass, at(sel, r))
		}
	}
	return c.pass
}

// spill writes the buffered rows to a fresh spill file as one sorted run,
// every buffer a column of its blocks, and drops the buffers and their
// charge.
func (s *SortOp) spill() error {
	s.sortBuf()
	f, err := s.res.NewSpillFile("sort")
	if err != nil {
		return err
	}
	s.runs = append(s.runs, &sortRun{file: f})
	if err := spillRows(f, s.rows.cols, s.out.order, s.block); err != nil {
		return err
	}
	s.res.NoteSpill(f.Size())
	s.res.Shrink(s.res.Used())
	s.rows.cols, s.rows.n, s.rows.cap, s.out = nil, 0, 0, sortedCols{}
	return nil
}

// openMerge runs merge passes while more than mergeWays runs are left —
// each merges mergeWays consecutive runs into one run in their place, so
// equal keys stay in input order — and starts the merge Next reads.
func (s *SortOp) openMerge() error {
	for len(s.runs) > mergeWays {
		for i := 0; i < len(s.runs)-1; i++ {
			k := min(mergeWays, len(s.runs)-i)
			f, err := s.res.NewSpillFile("sort")
			if err != nil {
				return err
			}
			s.runs = slices.Insert(s.runs, i, &sortRun{file: f})
			if err := s.startMerge(s.runs[i+1 : i+1+k]); err != nil {
				return err
			}
			for width := s.live[0].cur.NumCols(); len(s.live) > 0; {
				vb, err := s.merge(s.block, width)
				if err == nil {
					err = spillBlock(f, vb)
					vb.Release()
				}
				if err != nil {
					return err
				}
			}
			s.res.NoteSpill(f.Size())
			s.runs = slices.Delete(s.runs, i+1, i+1+k)
		}
	}
	return s.startMerge(s.runs)
}

// startMerge rewinds runs and files each in the merge.
func (s *SortOp) startMerge(runs []*sortRun) error {
	for seq, run := range runs {
		if err := run.file.Rewind(); err != nil {
			return err
		}
		run.seq = seq
		if err := s.push(run); err != nil {
			return err
		}
	}
	return nil
}

// push moves run to its next row, reading its next block past the end of
// one — the block it leaves returns its charge, the next is charged — and
// files it in live, or closes the run at its end. live holds the runs
// last-first by runOrder.
func (s *SortOp) push(run *sortRun) error {
	for run.at++; run.cur == nil || run.at >= run.cur.N; run.at = 0 {
		s.res.Shrink(run.charge)
		vb, err := readBlock(run.file)
		if err != nil {
			return err
		}
		if run.cur, run.charge = vb, 0; vb == nil {
			return run.file.Close()
		}
		for c := range vb.NumCols() {
			run.charge += kindWidth[vb.Col(c).Kind]*int64(vb.N) + strBytes(vb.Col(c), nil, 0, vb.N)
		}
		s.res.MustGrow(run.charge)
	}
	i, _ := slices.BinarySearchFunc(s.live, run, func(a, b *sortRun) int { return s.runOrder(b, a) })
	s.live = slices.Insert(s.live, i, run)
	return nil
}

// runOrder orders two runs by the keys of their current rows, then by seq:
// among equal keys the earlier run (earlier input rows) comes first, so the
// merge is stable.
func (s *SortOp) runOrder(a, b *sortRun) int {
	for j, c := range s.keyCol {
		x := types.Compare(a.cur.Col(c).Get(a.at), b.cur.Col(c).Get(b.at))
		if s.Keys[j].Desc {
			x = -x
		}
		if x != 0 {
			return x
		}
	}
	return cmp.Compare(a.seq, b.seq)
}

// Next implements Operator: the next ChunkSize rows, from the runs when
// there are runs.
func (s *SortOp) Next() (*vec.Batch, error) {
	if len(s.runs) == 0 {
		return s.out.batch(s.Schema()), nil
	}
	return s.merge(ChunkSize, len(s.Schema()))
}

// merge returns the next rows, at most limit, in merge order: the blocks'
// first width columns, copied a span of one block at a time into columns
// typed like the blocks' (boxed where they differ); nil at the end of the
// merge.
func (s *SortOp) merge(limit, width int) (*vec.Batch, error) {
	s.spans = s.spans[:0]
	n := 0
	for ; n < limit && len(s.live) > 0; n++ {
		run := s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		if k := len(s.spans) - 1; k >= 0 && s.spans[k].b == run.cur && s.spans[k].to == run.at {
			s.spans[k].to++
		} else {
			s.spans = append(s.spans, runSpan{b: run.cur, from: run.at, to: run.at + 1})
		}
		if err := s.push(run); err != nil {
			return nil, err
		}
	}
	if n == 0 {
		return nil, nil
	}
	cols := make([]*vec.Vector, width)
	for c := range cols {
		kind := s.spans[0].b.Col(c).Kind
		for _, sp := range s.spans {
			if v := sp.b.Col(c); v.Kind != kind || !typedVec(v) {
				kind = types.KindNull
			}
		}
		cols[c] = vec.NewPooled(kind, n)
		to := 0
		for _, sp := range s.spans {
			put(cols[c], sp.b.Col(c), to, []int(nil), sp.from, sp.to)
			to += sp.to - sp.from
		}
	}
	vb := vec.NewBatch(s.Schema(), cols, n)
	vb.Own()
	return vb, nil
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
	s.runs, s.live, s.spans = nil, nil, nil
	s.rows.cols, s.rows.n, s.rows.cap, s.out = nil, 0, 0, sortedCols{}
	s.res.Close()
	return firstErr
}
