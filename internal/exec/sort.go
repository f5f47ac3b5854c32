package exec

import (
	"cmp"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"

	"dashdb/internal/encoding"
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
// id order. It orders what words cannot: the spill merge's run heads, and
// keys past a record's width.
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

// sort puts ids 0..n-1 in key order and rewinds the cursor. Each key column
// is encoded once into order-preserving words (encodeWord), laid out a
// record a row, and the records are sorted as words. compareAt is left only
// what equal words do not decide: string prefixes, mixed-kind boxed
// columns, and keys past the ninth word.
func (s *sortedCols) sort(keys []sortCol, n int) {
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
		s.order = make([]uint32, n)
		for id := range s.order {
			s.order[id] = uint32(id)
		}
	case 2:
		s.order = sortRecords[[2]uint64](words, rest, n)
	case 3:
		s.order = sortRecords[[3]uint64](words, rest, n)
	case 4:
		s.order = sortRecords[[4]uint64](words, rest, n)
	case 5:
		s.order = sortRecords[[5]uint64](words, rest, n)
	case 6:
		s.order = sortRecords[[6]uint64](words, rest, n)
	case 7:
		s.order = sortRecords[[7]uint64](words, rest, n)
	case 8:
		s.order = sortRecords[[8]uint64](words, rest, n)
	default:
		s.order = sortRecords[[9]uint64](words, rest, n)
	}
}

// sortRecords encodes ids 0..n-1 into records of words, sorts them and
// returns the ids in record order. rest are the keys the words leave out.
func sortRecords[E record](words []keyWord, rest []sortCol, n int) []uint32 {
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
		quickWords(recs, 2*bits.Len(uint(n)))
	}
	order := make([]uint32, n)
	for r := range recs {
		order[r] = uint32(recs[r][id])
	}
	return order
}

// quickWords sorts records whose words alone order them: quicksort on a
// median of three with the comparison inlined, which slices.SortFunc's
// comparison function is not (twice the speed on the benchmark's sort),
// insertion sort below 12 records, and pdqsort past depth partitions.
func quickWords[E record](r []E, depth int) {
	for len(r) > 12 {
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
		if j < len(r)-j {
			quickWords(r[:j], depth)
			r = r[j+1:]
		} else {
			quickWords(r[j+1:], depth)
			r = r[:j]
		}
	}
	for i := 1; i < len(r); i++ {
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
// through sel): its payload's, or for a boxed, constant or row-backed vector
// the one kind its non-NULL cells share — KindNull when they mix, KindInt
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

// batch gathers the next ChunkSize ids in order into typed vectors; nil
// after the last.
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
	return vec.NewBatch(sch, cols, b-a)
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
// boxed when src has no typed payload (a constant, a row-built batch's
// column); a code vector decodes first.
func gather[I int | uint32](src *vec.Vector, sel []I, a, b int) *vec.Vector {
	src.Materialize()
	kind := src.Kind
	if !typedVec(src) {
		kind = types.KindNull
	}
	dst := vec.New(kind, b-a)
	put(dst, src, 0, sel, a, b)
	return dst
}

// bufKind is the kind of a buffer that holds buf's rows and then v's: buf's
// own, or boxed (KindNull) when v's payload is not buf's — a UNION ALL of
// BIGINT and DOUBLE, a row-built batch, a constant. Boxing keeps every cell
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
			if v.I64 == nil && v.F64 == nil {
				for j := done; j < done+m; j++ {
					if x := v.Get(at(sel, j)); x.Kind() == types.KindString && !x.IsNull() {
						need += int64(len(x.Str()))
					}
				}
			}
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

// decodeCols replaces every code vector of in with a decoded copy.
func decodeCols(in []*vec.Vector) {
	for c, v := range in {
		if v.Encoded() {
			d := *v
			d.Materialize()
			in[c] = &d
		}
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

// row appends row r's cells to dst.
func (b *typedRows) row(dst types.Row, r int) types.Row {
	for _, c := range b.cols {
		dst = append(dst, c.Get(r))
	}
	return dst
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
// the buffered rows and spills them as one rowcodec run — the data cells,
// then the cells of the keys that are not bare columns — and Next k-way
// merges the runs, comparing their key cells through keyOrder, never
// re-evaluating a key.
//
// Bound > 0 says only the first Bound rows are read (a LIMIT above, OFFSET
// included). Whenever the buffered rows reach max(2·Bound, 4096) the sort
// keeps the first Bound of them, in input order, and remembers the Bound-th
// as the cutoff: later rows that sort after it are not copied. A spilled
// run and the emit stop at Bound rows too.
type SortOp struct {
	Child Operator
	Keys  []SortKey
	Gov   *mem.Governor
	Bound int

	res    *mem.Reservation
	keyCol []int      // the buffer each key reads
	rows   typedRows  // output columns, then computed keys
	out    sortedCols // the buffered rows in key order, when nothing spilled
	cut    cutoff

	runs    []*sortRun
	runKeys []sortCol  // every run's current key cells, at the run's seq
	live    []*sortRun // the runs not at their end, in merge order (push)
	merged  rowQueue
}

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

// sortRun is one spilled, sorted run being replayed during the merge.
type sortRun struct {
	file *mem.SpillFile
	rd   *encoding.RowReader
	seq  int       // run creation order, the stability tiebreak
	row  types.Row // current data row
}

// Schema implements Operator.
func (s *SortOp) Schema() types.Schema { return s.Child.Schema() }

// Open implements Operator: drains the child, spilling sorted runs
// whenever the sort heap reservation denies growth.
func (s *SortOp) Open() error {
	if err := s.Child.Open(); err != nil {
		return err
	}
	defer s.Child.Close()
	s.res = s.Gov.Acquire(mem.SortHeap)
	s.rows = typedRows{res: s.res, perRow: keyRowBytes(len(s.Keys))}
	s.cut.keys = nil
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
			to := rows
			if s.Bound > 0 {
				to = min(rows, done+s.trimAt()-s.rows.n)
			}
			done += s.rows.add(in, sel, done, to)
			switch {
			case s.Bound > 0 && s.rows.n >= s.trimAt():
				s.trim()
			case done < to:
				if err := s.spill(); err != nil {
					return err
				}
			}
		}
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

// sortBuf puts the buffered rows in key order. Under a bound the order
// stops at Bound ids, and the Bound-th row becomes the cutoff.
func (s *SortOp) sortBuf() {
	if s.rows.n == 0 {
		return
	}
	keys := make([]sortCol, len(s.Keys))
	for j, k := range s.Keys {
		keys[j] = sortCol{v: s.rows.cols[s.keyCol[j]], desc: k.Desc}
	}
	s.out = sortedCols{cols: s.rows.cols[:len(s.Schema())]}
	s.out.sort(keys, s.rows.n)
	if s.Bound > 0 && len(s.out.order) >= s.Bound {
		s.out.order = s.out.order[:s.Bound]
		s.setCut(keys, int(s.out.order[s.Bound-1]))
	}
}

// trimAt is how many buffered rows a bounded sort trims at.
func (s *SortOp) trimAt() int { return max(2*s.Bound, 4096) }

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

// setCut makes buffered row id the cutoff.
func (s *SortOp) setCut(keys []sortCol, id int) {
	sel, rec := []int{id}, make([][2]uint64, 1)
	s.cut.keys = make([]cutKey, len(keys))
	for j, k := range keys {
		kind, _ := wordKind(k.v, sel, 1)
		encodeWord(rec, 0, keyWord{col: k, flag: true}, sel)
		encodeWord(rec, 1, keyWord{col: k, kind: kind}, sel)
		s.cut.keys[j] = cutKey{rec: rec[0], kind: kind, val: k.v.Get(id)}
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
// every buffer's cells a row, and drops the buffers and their charge.
func (s *SortOp) spill() error {
	s.sortBuf()
	f, err := s.res.NewSpillFile("sort")
	if err != nil {
		return err
	}
	s.runs = append(s.runs, &sortRun{file: f, seq: len(s.runs)})
	w := encoding.NewRowWriter(f)
	var row types.Row
	for _, id := range s.out.order {
		row = s.rows.row(row[:0], int(id))
		if _, err := w.WriteRow(row); err != nil {
			return err
		}
	}
	s.res.NoteSpill(f.Size())
	s.res.Shrink(s.res.Used())
	s.rows.cols, s.rows.n, s.rows.cap, s.out = nil, 0, 0, sortedCols{}
	return nil
}

// openMerge rewinds every run and files each in the merge.
func (s *SortOp) openMerge() error {
	s.runKeys = make([]sortCol, len(s.Keys))
	for j, k := range s.Keys {
		s.runKeys[j] = sortCol{v: vec.New(types.KindNull, len(s.runs)), desc: k.Desc}
	}
	for _, run := range s.runs {
		if err := run.file.Rewind(); err != nil {
			return err
		}
		run.rd = encoding.NewRowReader(run.file)
		if err := s.push(run); err != nil {
			return err
		}
	}
	return nil
}

// push reads run's next row, files its key cells at the run's seq in
// runKeys and the run in live, or closes the run at its end. live holds the
// runs last-first by keyOrder over those cells, the run seq as the id: among
// equal keys the earlier run (earlier input rows) comes first, so the merge
// is stable.
func (s *SortOp) push(run *sortRun) error {
	row, err := run.rd.ReadRow()
	if err == io.EOF {
		return run.file.Close()
	}
	if err != nil {
		return err
	}
	nCols := len(s.Schema())
	run.row = row[:nCols:nCols]
	for j, c := range s.keyCol {
		s.runKeys[j].v.Any[run.seq] = row[c]
	}
	i, _ := slices.BinarySearchFunc(s.live, run, func(a, b *sortRun) int { return keyOrder(s.runKeys, b.seq, a.seq) })
	s.live = slices.Insert(s.live, i, run)
	return nil
}

// Next implements Operator.
func (s *SortOp) Next() (*vec.Batch, error) {
	if len(s.runs) == 0 {
		return s.out.batch(s.Schema()), nil
	}
	for len(s.merged.rows) < ChunkSize && len(s.live) > 0 {
		run := s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		s.merged.rows = append(s.merged.rows, run.row)
		if err := s.push(run); err != nil {
			return nil, err
		}
	}
	return s.merged.next(s.Schema(), true), nil
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
	s.runs, s.live, s.merged = nil, nil, rowQueue{}
	s.rows.cols, s.rows.n, s.rows.cap, s.out = nil, 0, 0, sortedCols{}
	s.res.Close()
	return firstErr
}
