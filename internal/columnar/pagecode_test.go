package columnar

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"
	"testing"

	"dashdb/internal/bitpack"
	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
)

// Sealed pages pack each code's offset from their stride's smallest code,
// keep the few offsets too wide for the packed width as exceptions, and
// hold a NULL bitmap only when a cell is NULL. The table below gives
// every shape of stride that matters to that layout: a sequential BIGINT
// (wide codes, a narrow span), a date-clustered DATE, a fixed-point
// DOUBLE, a dictionary VARCHAR whose later values land in the dictionary's
// extension (residual ranges; stride 8 holds a few of them among the
// first values, whose codes are narrow, so its page patches the wide
// ones), a nullable BIGINT whose strides hold some NULLs, only NULLs, or
// two values in no order (width 1 over a non-zero base), and two fat-tail
// columns whose strides hold a few outliers among narrow values: a
// nullable BIGINT and a fixed-point DOUBLE. Their outliers sit at a
// stride's first and last position and a dozen between; the BIGINT's
// stride 2 holds NULLs too, its stride 3 no outlier, and its stride 4 so
// many that patching does not pay. A stride whose codes never descend and
// hold no NULL packs them against its line when that is smaller, as the
// sequential BIGINT's and the DATE's do; the last column, a nullable
// BIGINT, gives each stride a shape of sorted codes (see sortedValue).
// Nine strides are sealed; the tenth is open.

const pageCodeRows = 9*page.StrideSize + 200

func pageCodeSchema() types.Schema {
	return types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "d", Kind: types.KindDate},
		{Name: "f", Kind: types.KindFloat},
		{Name: "s", Kind: types.KindString, Nullable: true},
		{Name: "v", Kind: types.KindInt, Nullable: true},
		{Name: "big", Kind: types.KindInt, Nullable: true},
		{Name: "amt", Kind: types.KindFloat},
		{Name: "srt", Kind: types.KindInt, Nullable: true},
	}
}

// pageCodeEncoded asks a batch for the VARCHAR's dictionary codes.
var pageCodeEncoded = []bool{false, false, false, true, false, false, false, false}

// sortedValue returns the last column's value at offset off of stride
// stride: in stride 0 consecutive codes, in 1 plateaus of 90 equal codes
// (as a date has), in 2 codes climbing 50 a cell but for one jump, three
// cells lifted to the fourth's code (line residuals of 150, 100 and 50
// among zeros, which the page patches), in 3 the column's least value for
// 600 cells and then a climb, so below the line from its first code by
// more than that code (the frame of reference pads below its least value,
// so no stride's first code is 0, but the line plus the bias passes below
// code 0 as it does from a first code of 0), in 4 a single code, in 5 exactly
// two, in 6 a climb that descends at its last cell and in 7 a climb with
// one NULL (both frame of reference), in 8 a climb of uneven steps (the
// residuals of a random walk) and in 9, the open stride, a short climb.
func sortedValue(stride, off int) types.Value {
	switch stride {
	case 0:
		return types.NewInt(int64(2_000 + off))
	case 1:
		return types.NewInt(int64(10_000 + off/90))
	case 2:
		if off >= 600 && off < 603 {
			off = 603
		}
		return types.NewInt(int64(20_000 + 50*off))
	case 3:
		return types.NewInt(int64(200 * max(0, off-600)))
	case 4:
		return types.NewInt(30_000)
	case 5:
		return types.NewInt(int64(40_000 + 500*(off/700)))
	case 6:
		if off == page.StrideSize-1 {
			off = 0
		}
		return types.NewInt(int64(50_000 + 3*off))
	case 7:
		if off == 400 {
			return types.NullOf(types.KindInt)
		}
		return types.NewInt(int64(60_000 + 2*off))
	case 8:
		v := 70_000
		for k := 0; k < off; k++ {
			v += k * 7919 % 7
		}
		return types.NewInt(int64(v))
	}
	return types.NewInt(int64(80_000 + 2*off))
}

// pageCodeRow returns row i; the table loads rows [0, 6 strides) first,
// so the VARCHAR's values after that extend its dictionary.
func pageCodeRow(i int) types.Row {
	day0, _ := types.ParseDate("2010-01-01")
	stride := i / page.StrideSize
	off := i % page.StrideSize
	s := types.NewString(fmt.Sprintf("name%03d", (i/7)%50))
	if stride >= 6 && (stride != 8 || off%101 == 7) {
		s = types.NewString(fmt.Sprintf("name%03dx", (i/5)%40))
	}
	if (stride == 1 || stride == 7) && i%11 == 0 {
		s = types.NullOf(types.KindString)
	}
	var v types.Value
	switch {
	case stride == 0:
		v = types.NewInt(int64(i % 100))
	case stride == 1 && i%3 == 0, stride == 2, stride == 9 && i%4 == 0:
		v = types.NullOf(types.KindInt)
	case stride == 1:
		v = types.NewInt(int64(5000 + i%7))
	case stride == 3:
		v = types.NewInt(int64(42 + i%3%2))
	default:
		v = types.NewInt(int64(i*13) % 10007)
	}
	outlier := off == 0 || off == page.StrideSize-1 || off%97 == 50
	big := types.NewInt(int64(i*7919) % 5000)
	switch {
	case stride == 2 && i%5 == 0:
		big = types.NullOf(types.KindInt)
	case stride == 3:
	case outlier, stride == 4 && i%4 == 0:
		big = types.NewInt(int64(1_000_000 + off))
	}
	amt := types.NewFloat(float64((i*37)%100000) / 100)
	if off == 0 || off == page.StrideSize-1 || off%89 == 3 {
		amt = types.NewFloat(100_000 + float64(off)/100)
	}
	return types.Row{
		types.NewInt(int64(1_000_000 + i)),
		types.NewDate(day0.Int() + int64(i/60)),
		types.NewFloat(float64((i*37)%100000) / 100),
		s,
		v,
		big,
		amt,
		sortedValue(stride, off),
	}
}

func newPageCodeTable(t testing.TB) (*Table, []types.Row) {
	return newPageCodeTableOn(t, nil)
}

// newPageCodeTableOn is newPageCodeTable over store (nil: the default).
func newPageCodeTableOn(t testing.TB, store PageStore) (*Table, []types.Row) {
	t.Helper()
	rows := make([]types.Row, pageCodeRows)
	for i := range rows {
		rows[i] = pageCodeRow(i)
	}
	tbl := NewTable(1, "pagecode", pageCodeSchema(), Config{Store: store})
	first := 6 * page.StrideSize
	if err := tbl.InsertBatch(rows[:first]); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch(rows[first:]); err != nil {
		t.Fatal(err)
	}
	if r := tbl.Stats().Rebuilds; r != 0 {
		t.Fatalf("%d rebuilds: the later values must extend the encoders", r)
	}
	return tbl, rows
}

// pageCodeConsts gives each column's constants: below, inside and above
// its values, on stride boundaries, and values only some strides hold.
func pageCodeConsts() [][]types.Value {
	day0, _ := types.ParseDate("2010-01-01")
	date := func(d int64) types.Value { return types.NewDate(day0.Int() + d) }
	ints := func(xs ...int64) []types.Value {
		out := make([]types.Value, len(xs))
		for i, x := range xs {
			out[i] = types.NewInt(x)
		}
		return out
	}
	return [][]types.Value{
		ints(999_990, 1_000_000, 1_003_000, 1_005_120, 1_000_000+pageCodeRows-1, 1_100_000),
		{date(-1), date(0), date(17), date(77), date(pageCodeRows / 60), date(400)},
		{types.NewFloat(-1), types.NewFloat(0), types.NewFloat(123.45), types.NewFloat(500.005), types.NewFloat(999.99), types.NewFloat(2000)},
		{types.NewString("a"), types.NewString("name010"), types.NewString("name010x"), types.NewString("name025"), types.NewString("name049x"), types.NewString("zzz")},
		ints(-1, 0, 41, 42, 43, 99, 5003, 10006, 20000),
		ints(-1, 0, 4999, 5000, 1_000_000, 1_000_500, 1_001_023, 1_001_024),
		{types.NewFloat(0), types.NewFloat(999.99), types.NewFloat(1000), types.NewFloat(100_000), types.NewFloat(100_005.11), types.NewFloat(100_010.23), types.NewFloat(100_011)},
		ints(-1, 0, 2_500, 10_005, 40_500, 20_000+50*601, 50_150, 60_800, 71_000, 80_100),
	}
}

// plainFilter returns the ids of rows satisfying every predicate, read
// from the rows with Go comparisons (a NULL satisfies none).
func plainFilter(rows []types.Row, preds []Pred) []int64 {
	var ids []int64
	for _, r := range rows {
		ok := true
		for _, p := range preds {
			v := r[p.Col]
			if v.IsNull() || !cmpHolds(p.Op, types.Compare(v, p.Val)) {
				ok = false
				break
			}
		}
		if ok {
			ids = append(ids, r[0].Int())
		}
	}
	return ids
}

func cmpHolds(op encoding.CmpOp, c int) bool {
	switch op {
	case encoding.OpEQ:
		return c == 0
	case encoding.OpNE:
		return c != 0
	case encoding.OpLT:
		return c < 0
	case encoding.OpLE:
		return c <= 0
	case encoding.OpGT:
		return c > 0
	}
	return c >= 0
}

// pageCodeScans returns the ids each scan path selects for preds, checking
// on the way that every delivered row reads back as rows[id] through the
// batch's decoded vectors, its dictionary codes and its per-cell values.
func pageCodeScans(t *testing.T, tbl *Table, rows []types.Row, preds []Pred) map[string][]int64 {
	t.Helper()
	var mu sync.Mutex
	out := map[string][]int64{}
	check := func(name string, b *Batch) bool {
		vs := b.VectorsEnc(nil, pageCodeEncoded)
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < b.Len(); i++ {
			id := b.RowID(i)
			out[name] = append(out[name], rows[id][0].Int())
			for ci, want := range rows[id] {
				for _, got := range []types.Value{vs[ci].Get(i), b.Value(ci, i)} {
					if got.IsNull() != want.IsNull() || !want.IsNull() && types.Compare(got, want) != 0 {
						t.Errorf("%s %v: row %d column %d reads %v, want %v", name, preds, id, ci, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	for _, dop := range []int{1, 2} {
		name := fmt.Sprintf("Scan dop %d", dop)
		if err := scanDop(tbl, preds, dop, func(_ int, b *Batch) bool { return check(name, b) }); err != nil {
			t.Fatal(err)
		}
		slices.Sort(out[name])
	}
	if err := scanNaive(tbl, preds, func(b *Batch) bool { return check("ScanNaive", b) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPageCodeScanParity: every comparison, ≠, BETWEEN (a GE and an LE
// conjunct) and the column pairs over strides whose page bases differ
// and whose pages patch their outliers select what ScanNaive and a plain
// Go filter select, at dop 1 and 2, and every row reads back as loaded.
func TestPageCodeScanParity(t *testing.T) {
	tbl, rows := newPageCodeTable(t)
	st := tbl.Snapshot()
	if r := st.state().cols[3].enc.Translate(encoding.OpLT, types.NewString("name010x")); len(r.Residual) == 0 {
		t.Fatal("the VARCHAR's later values must be residual in its dictionary")
	}
	st.Release()
	ops := []encoding.CmpOp{encoding.OpEQ, encoding.OpNE, encoding.OpLT, encoding.OpLE, encoding.OpGT, encoding.OpGE}
	groups := make([][][]Pred, len(pageCodeSchema())+1) // a column's cases each, then the pairs
	for ci, consts := range pageCodeConsts() {
		for _, c := range consts {
			for _, op := range ops {
				groups[ci] = append(groups[ci], []Pred{{Col: ci, Op: op, Val: c}})
			}
			for _, hi := range consts {
				groups[ci] = append(groups[ci], []Pred{{Col: ci, Op: encoding.OpGE, Val: c}, {Col: ci, Op: encoding.OpLE, Val: hi}})
			}
		}
	}
	groups[len(groups)-1] = [][]Pred{
		{{Col: 4, Op: encoding.OpNE, Val: types.NewInt(42)}, {Col: 0, Op: encoding.OpLT, Val: types.NewInt(1_004_500)}},
		{{Col: 3, Op: encoding.OpGE, Val: types.NewString("name020")}, {Col: 4, Op: encoding.OpLE, Val: types.NewInt(5003)}},
		{{Col: 1, Op: encoding.OpGT, Val: types.NewDate(0)}, {Col: 2, Op: encoding.OpLT, Val: types.NewFloat(250.5)}},
		{{Col: 5, Op: encoding.OpGE, Val: types.NewInt(1_000_000)}, {Col: 6, Op: encoding.OpNE, Val: types.NewFloat(100_010.23)}},
		{{Col: 3, Op: encoding.OpGE, Val: types.NewString("name020x")}, {Col: 5, Op: encoding.OpLT, Val: types.NewInt(3000)}},
		{{Col: 7, Op: encoding.OpGE, Val: types.NewInt(10_005)}, {Col: 0, Op: encoding.OpLT, Val: types.NewInt(1_008_500)}},
	}
	// Every seventh case of every group also scans the same rows stored as
	// a release before flag 8 wrote its pages, each read through
	// Unmarshal's repack.
	old, _ := newPageCodeTableOn(t, delimitedStore{NewMemStore()})
	t.Run("delimited", func(t *testing.T) {
		t.Parallel()
		for _, cases := range groups {
			for k := 0; k < len(cases); k += 7 {
				want := plainFilter(rows, cases[k])
				for name, got := range pageCodeScans(t, old, rows, cases[k]) {
					if !slices.Equal(got, want) {
						t.Fatalf("%v: %s over pages without flag 8 selects %d rows, the plain filter %d", cases[k], name, len(got), len(want))
					}
				}
			}
		}
	})
	// The groups scan the one table side by side, as concurrent readers do.
	for gi, cases := range groups {
		name := "pairs"
		if gi < len(pageCodeSchema()) {
			name = pageCodeSchema()[gi].Name
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, preds := range cases {
				want := plainFilter(rows, preds)
				for name, got := range pageCodeScans(t, tbl, rows, preds) {
					if !slices.Equal(got, want) {
						t.Fatalf("%v: %s selects %d rows, the plain filter %d", preds, name, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestCoveredConjunctReadsNoPage: on a date-clustered table (four days a
// stride), a date window skips the strides outside it, and of those inside
// reads a page only where a conjunct does not hold for every row: the
// stride the window starts inside, and the stride whose dates hold a NULL
// although the window covers its span. The answers equal ScanNaive's and
// a plain filter's at dop 1 and 2.
func TestCoveredConjunctReadsNoPage(t *testing.T) {
	const strides = 8
	schema := types.Schema{{Name: "id", Kind: types.KindInt}, {Name: "d", Kind: types.KindDate, Nullable: true}}
	rows := make([]types.Row, strides*page.StrideSize)
	for i := range rows {
		d := types.NewDate(18_000 + int64(i/(page.StrideSize/4)))
		if i/page.StrideSize == 5 && i%7 == 0 {
			d = types.NullOf(types.KindDate)
		}
		rows[i] = types.Row{types.NewInt(int64(i)), d}
	}
	tbl := NewTable(1, "dated", schema, Config{})
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	// Days 18 006–18 023: strides 1 (from its third day) to 5.
	window := []Pred{{Col: 1, Op: encoding.OpGE, Val: types.NewDate(18_006)}, {Col: 1, Op: encoding.OpLE, Val: types.NewDate(18_023)}}
	for _, dop := range []int{1, 2} {
		tbl.ResetStats()
		n := 0
		var mu sync.Mutex
		if err := scanDop(tbl, window, dop, func(_ int, b *Batch) bool {
			mu.Lock()
			defer mu.Unlock()
			n += b.Len()
			return true
		}); err != nil {
			t.Fatal(err)
		}
		st := tbl.Stats()
		if want := len(plainFilter(rows, window)); n != want {
			t.Fatalf("dop %d: %d rows, want %d", dop, n, want)
		}
		if st.StridesVisited != 5 || st.PagesRead != 2 {
			t.Fatalf("dop %d: visited %d strides and read %d pages, want 5 and 2 (stride 1's and stride 5's)", dop, st.StridesVisited, st.PagesRead)
		}
	}
	want := plainFilter(rows, window)
	for name, got := range scanIDs(t, tbl, window) {
		if !slices.Equal(got, want) {
			t.Fatalf("%s selects %d rows, the plain filter %d", name, len(got), len(want))
		}
	}
}

// TestPageCodeInAndNull: IN lists and IS [NOT] NULL, which a scan leaves
// to the operators above it, read the same rows from the delivered
// vectors as from the loaded rows.
func TestPageCodeInAndNull(t *testing.T) {
	tbl, rows := newPageCodeTable(t)
	in := map[int][]types.Value{
		0: {types.NewInt(1_000_005), types.NewInt(1_007_000), types.NewInt(7)},
		3: {types.NewString("name007"), types.NewString("name033x"), types.NewString("none")},
		4: {types.NewInt(0), types.NewInt(42), types.NewInt(5006), types.NewInt(-3)},
		5: {types.NewInt(1_000_000), types.NewInt(1_001_023), types.NewInt(1_000_147), types.NewInt(7919), types.NewInt(0)},
		6: {types.NewFloat(100_000), types.NewFloat(100_010.23), types.NewFloat(3.7), types.NewFloat(12)},
		7: {types.NewInt(0), types.NewInt(2_500), types.NewInt(10_005), types.NewInt(50_150), types.NewInt(60_800), types.NewInt(80_100), types.NewInt(5)},
	}
	type tally struct{ in, null, notNull map[int]int }
	count := func(get func(ci int) types.Value, t *tally) {
		for ci, list := range in {
			v := get(ci)
			if !v.IsNull() && slices.ContainsFunc(list, func(x types.Value) bool { return types.Compare(v, x) == 0 }) {
				t.in[ci]++
			}
		}
		for ci := range pageCodeSchema() {
			if get(ci).IsNull() {
				t.null[ci]++
			} else {
				t.notNull[ci]++
			}
		}
	}
	newTally := func() *tally { return &tally{map[int]int{}, map[int]int{}, map[int]int{}} }
	want := newTally()
	for _, r := range rows {
		count(func(ci int) types.Value { return r[ci] }, want)
	}
	for _, dop := range []int{1, 2} {
		got := newTally()
		var mu sync.Mutex
		err := scanDop(tbl, nil, dop, func(_ int, b *Batch) bool {
			vs := b.VectorsEnc(nil, pageCodeEncoded)
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < b.Len(); i++ {
				count(func(ci int) types.Value { return vs[ci].Get(i) }, got)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for name, pair := range map[string][2]map[int]int{"IN": {got.in, want.in}, "IS NULL": {got.null, want.null}, "IS NOT NULL": {got.notNull, want.notNull}} {
			for ci := range pageCodeSchema() {
				if pair[0][ci] != pair[1][ci] {
					t.Errorf("dop %d: %s on column %d counts %d rows, want %d", dop, name, ci, pair[0][ci], pair[1][ci])
				}
			}
		}
	}
	if want.null[4] == 0 || want.in[4] == 0 || want.null[3] == 0 || want.null[5] == 0 || want.in[5] == 0 || want.in[6] == 0 || want.null[7] == 0 || want.in[7] == 0 {
		t.Fatal("the table must hold NULLs and IN matches")
	}
}

// sealedPageBytes returns the bytes of the sealed page of codes (a NULL
// cell's code ignored), the exceptions it keeps and whether it is a line
// page. A frame-of-reference page packs each code's offset from the
// smallest non-NULL code; it takes a 128-byte NULL bitmap only when a cell
// is NULL, and its 32-byte header. When no cell is NULL and the codes, two
// or more, never descend, the line page packs each code's residual from
// the line first + i·slope/2¹⁶, slope = (last − first)·2¹⁶/(n − 1) (both
// divisions rounding down), less the smallest residual, and takes 8 bytes
// more; it is the page when the slope, the last code and the offsets fit
// 32 bits and it is the smaller. Either packs its offsets as
// smallestPacking says.
func sealedPageBytes(codes []uint64, nulls []bool) (bytes, patched int, sorted bool) {
	lo, hi, anyNull := uint64(math.MaxUint64), uint64(0), false
	for i, c := range codes {
		if nulls[i] {
			anyNull = true
		} else {
			lo, hi = min(lo, c), max(hi, c)
		}
	}
	if lo > hi {
		lo = 0
	}
	offs := make([]uint64, len(codes))
	for i, c := range codes {
		if !nulls[i] {
			offs[i] = c - lo
		}
	}
	bytes, patched = smallestPacking(offs)
	bytes += 32
	if anyNull {
		return bytes + page.StrideSize/8, patched, false
	}
	n := len(codes)
	if n < 2 || !slices.IsSorted(codes) {
		return bytes, patched, false
	}
	first, last := codes[0], codes[n-1]
	slope := (last - first) * 65536 / uint64(n-1)
	res := make([]int64, n)
	for i, c := range codes {
		res[i] = int64(c) - int64(first) - int64(uint64(i)*slope/65536)
	}
	bias := slices.Min(res)
	for i, r := range res {
		offs[i] = uint64(r - bias)
	}
	if last > math.MaxUint32 || slope > math.MaxUint32 || slices.Max(offs) > math.MaxUint32 || bias < math.MinInt32 {
		return bytes, patched, false
	}
	if lineBytes, linePatched := smallestPacking(offs); lineBytes+32+8 < bytes {
		return lineBytes + 32 + 8, linePatched, true
	}
	return bytes, patched, false
}

// smallestPacking returns the bytes of offs packed at the width w that
// makes them smallest, ⌈n/⌊64/w⌋⌉ words of 8 bytes for n offsets,
// counting 6 bytes for each offset wider than w bits (the widest w
// winning a tie), and how many offsets those are.
func smallestPacking(offs []uint64) (bytes, patched int) {
	bytes = math.MaxInt
	for w := bitpack.WidthFor(slices.Max(offs)); w >= 1; w-- {
		wide := 0
		for _, o := range offs {
			if o>>w != 0 {
				wide++
			}
		}
		perWord := 64 / int(w)
		if size := (len(offs)+perWord-1)/perWord*8 + 6*wide; size < bytes {
			bytes, patched = size, wide
		}
	}
	return bytes, patched
}

// TestPageCodeBytesExact pins Compression().PageBytes, and every page's
// MemSize and exception count, the tail's too, to sealedPageBytes of the
// stride's codes (the rows re-encoded), and which pages are line pages to
// what it says. The column shares in the report sum to PageBytes and count
// the exceptions and line pages.
func TestPageCodeBytesExact(t *testing.T) {
	tbl, rows := newPageCodeTable(t)
	snap := tbl.Snapshot()
	defer snap.Release()
	want := 0
	sizes, excs := make([][]int, len(pageCodeSchema())), make([][]int, len(pageCodeSchema()))
	lines := make([][]bool, len(pageCodeSchema()))
	for ci := range snap.state().cols {
		c := &snap.state().cols[ci]
		for s := range snap.state().strides() {
			n := snap.state().strideRows(s)
			vals := make([]types.Value, n)
			nulls := make([]bool, n)
			for k := range vals {
				vals[k] = rows[s*page.StrideSize+k][ci]
				nulls[k] = vals[k].IsNull()
			}
			codes := make([]uint64, n)
			c.enc.EncodeAll(vals, codes)
			size, patched, sorted := sealedPageBytes(codes, nulls)
			pg, err := tbl.pageOf(snap.state(), ci, s)
			if err != nil || pg.MemSize() != size || pg.Patched() != patched || pg.Sorted() != sorted {
				t.Fatalf("column %d stride %d: page of %d B with %d exceptions, line page %v (err %v), want %d B with %d, %v", ci, s, pg.MemSize(), pg.Patched(), pg.Sorted(), err, size, patched, sorted)
			}
			// A line page serializes its slope, rounded down, in bytes 28–31.
			if slope := (codes[len(codes)-1] - codes[0]) * 65536 / uint64(len(codes)-1); sorted && uint64(binary.LittleEndian.Uint32(pg.Marshal()[28:])) != slope {
				t.Fatalf("column %d stride %d: slope %d, want %d", ci, s, binary.LittleEndian.Uint32(pg.Marshal()[28:]), slope)
			}
			want += size
			sizes[ci], excs[ci] = append(sizes[ci], size), append(excs[ci], patched)
			lines[ci] = append(lines[ci], sorted)
		}
	}
	rep := tbl.Compression()
	if rep.PageBytes != want {
		t.Fatalf("PageBytes %d, want %d", rep.PageBytes, want)
	}
	sum := 0
	for ci, cp := range rep.Columns {
		sum += cp.PageBytes
		patched := 0
		for _, n := range excs[ci] {
			patched += n
		}
		if cp.PatchedCodes != patched {
			t.Errorf("column %d reports %d patched codes, its pages hold %d", ci, cp.PatchedCodes, patched)
		}
		if sorted := len(slices.DeleteFunc(slices.Clone(lines[ci]), func(l bool) bool { return !l })); cp.SortedPages != sorted {
			t.Errorf("column %d reports %d line pages, it has %d", ci, cp.SortedPages, sorted)
		}
	}
	if sum != rep.PageBytes {
		t.Errorf("column page bytes sum to %d, PageBytes is %d", sum, rep.PageBytes)
	}
	// Known pages. A page packs ⌊64/w⌋ codes of w bits a word. 1 024
	// sequential ids lie on their line: 16 words of width 1, the header and
	// the line's 8 B (168 B; their frame of reference is 171 words of 10
	// bits, 1 400 B); the all-NULL stride's 16 words of width 1, its bitmap
	// and header (288 B); no uniform column patches. The fat-tail BIGINT's
	// narrow values are below 5 000 (13 bits) and its outliers past a
	// million (20 bits): 13 to 16 bits pack 4 a word (256 words) and 17 to
	// 21 only 3 (342), so a stride with 13 outliers (its first and last
	// position and 11 between) packs 256 words and 13 exceptions
	// (2 158 B). Stride 2 loses 2 of them to NULLs and holds a bitmap;
	// stride 3 has no outlier; stride 4's 267 would cost 1 602 B to save
	// 688, so both pack every code.
	//
	// The sorted column's line pages: consecutive codes and plateaus pack
	// 16 words of width 1 (168 B), as does the lifted run with its three
	// residuals kept as exceptions (186 B). Stride 3 climbs 84 600 after
	// 600 cells at its least value, so its line climbs about 82.7 a cell
	// and lies about 49 600 above the 600th: residuals of 16 bits, four a
	// word (256 words, 2 088 B), where its frame of reference takes 17
	// bits, three a word. A single code packs 16 words of width 1 (160 B),
	// a climb of 3 a cell that descends at its end 205 words of 12 bits
	// (1 672 B) and a climb of 2 a cell with one NULL 205 words of 11 bits
	// and a bitmap (1 800 B): frames of reference.
	for _, c := range []struct {
		col, stride, size, patched int
		line                       bool
	}{
		{0, 0, 16*8 + 8 + 32, 0, true}, {0, 4, 16*8 + 8 + 32, 0, true}, {4, 2, 16*8 + 128 + 32, 0, false},
		{5, 0, 256*8 + 13*6 + 32, 13, false}, {5, 8, 256*8 + 13*6 + 32, 13, false},
		{5, 2, 256*8 + 11*6 + 128 + 32, 11, false}, {5, 3, 256*8 + 32, 0, false}, {5, 4, 342*8 + 32, 0, false},
		{7, 0, 16*8 + 8 + 32, 0, true}, {7, 1, 16*8 + 8 + 32, 0, true}, {7, 2, 16*8 + 3*6 + 8 + 32, 3, true},
		{7, 3, 256*8 + 8 + 32, 0, true}, {7, 4, 16*8 + 32, 0, false}, {7, 6, 205*8 + 32, 0, false},
		{7, 7, 205*8 + 128 + 32, 0, false},
	} {
		if sizes[c.col][c.stride] != c.size || excs[c.col][c.stride] != c.patched || lines[c.col][c.stride] != c.line {
			t.Errorf("column %d stride %d: %d B with %d exceptions, line page %v; want %d B with %d, %v", c.col, c.stride, sizes[c.col][c.stride], excs[c.col][c.stride], lines[c.col][c.stride], c.size, c.patched, c.line)
		}
	}
	// Stride 3's line plus its bias passes below code 0: its smallest
	// residual is below minus its first code.
	pg := mustPage(t, tbl, 7, 3)
	first, _ := pg.Get(0)
	last, _ := pg.Get(page.StrideSize - 1)
	slope, bias := (last-first)*65536/(page.StrideSize-1), int64(0)
	for i := 0; i < page.StrideSize; i++ {
		c, _ := pg.Get(i)
		bias = min(bias, int64(c)-int64(first)-int64(uint64(i)*slope/65536))
	}
	if int64(first)+bias >= 0 {
		t.Errorf("the sorted column's stride 3 starts at code %d and dips %d below its line: not below code 0", first, -bias)
	}
	for _, ci := range []int{0, 1, 2, 4} {
		if rep.Columns[ci].PatchedCodes != 0 {
			t.Errorf("column %d patches %d codes", ci, rep.Columns[ci].PatchedCodes)
		}
	}
	// The DOUBLE's outliers and the VARCHAR's extension values in stride 8
	// patch.
	if excs[6][0] == 0 || excs[3][8] == 0 {
		t.Errorf("DOUBLE stride 0 patches %d codes, VARCHAR stride 8 %d", excs[6][0], excs[3][8])
	}
}

// delimitedStore is a PageStore whose pages read back as a release before
// flag 8 in header byte 26 wrote them: each code in a cell one bit wider
// than the page's width, ⌊64/(width+1)⌋ a word.
type delimitedStore struct{ PageStore }

func (s delimitedStore) ReadPage(id page.ID) ([]byte, error) {
	data, err := s.PageStore.ReadPage(id)
	if err != nil || len(data) < 32 || binary.LittleEndian.Uint16(data) != 0xDA5B || data[26]&8 == 0 {
		return data, err
	}
	width := uint(binary.LittleEndian.Uint16(data[2:]))
	n, words := int(binary.LittleEndian.Uint32(data[14:])), int(binary.LittleEndian.Uint32(data[18:]))
	at := 28 // the packed words follow the header, a line's 8 B and a bitmap
	if data[26]&4 != 0 {
		at += 8
	}
	if data[26]&1 == 0 {
		at += page.StrideSize / 8
	}
	per, oldPer := int(64/width), int(64/(width+1))
	packed := make([]uint64, (n+oldPer-1)/oldPer)
	for i := 0; i < n; i++ {
		code := binary.LittleEndian.Uint64(data[at+8*(i/per):]) >> (uint(i%per) * width) & (1<<width - 1)
		packed[i/oldPer] |= code << (uint(i%oldPer) * (width + 1))
	}
	out := slices.Clone(data[:at])
	for _, w := range packed {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	out = append(out, data[at+8*words:len(data)-4]...)
	out[26] &^= 8
	binary.LittleEndian.PutUint32(out[18:], uint32(len(packed)))
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out)), nil
}

// mustPage loads column ci's sealed page of stride s.
func mustPage(t *testing.T, tbl *Table, ci, s int) *page.Page {
	t.Helper()
	snap := tbl.Snapshot()
	defer snap.Release()
	pg, err := tbl.loadPageGen(ci, snap.state().cols[ci].gen, s)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}
