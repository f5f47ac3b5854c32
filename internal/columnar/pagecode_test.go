package columnar

import (
	"fmt"
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
// one repeated value (width 1 over a non-zero base), and two fat-tail
// columns whose strides hold a few outliers among narrow values: a
// nullable BIGINT and a fixed-point DOUBLE. Their outliers sit at a
// stride's first and last position and a dozen between; the BIGINT's
// stride 2 holds NULLs too, its stride 3 no outlier, and its stride 4 so
// many that patching does not pay. Nine strides are sealed; the tenth is
// open.

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
	}
}

// pageCodeEncoded asks a batch for the VARCHAR's dictionary codes.
var pageCodeEncoded = []bool{false, false, false, true, false, false, false}

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
		v = types.NewInt(42)
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
	}
}

func newPageCodeTable(t testing.TB) (*Table, []types.Row) {
	t.Helper()
	rows := make([]types.Row, pageCodeRows)
	for i := range rows {
		rows[i] = pageCodeRow(i)
	}
	tbl := NewTable(1, "pagecode", pageCodeSchema(), Config{})
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
	var cases [][]Pred
	for ci, consts := range pageCodeConsts() {
		for _, c := range consts {
			for _, op := range ops {
				cases = append(cases, []Pred{{Col: ci, Op: op, Val: c}})
			}
			for _, hi := range consts {
				cases = append(cases, []Pred{{Col: ci, Op: encoding.OpGE, Val: c}, {Col: ci, Op: encoding.OpLE, Val: hi}})
			}
		}
	}
	cases = append(cases,
		[]Pred{{Col: 4, Op: encoding.OpNE, Val: types.NewInt(42)}, {Col: 0, Op: encoding.OpLT, Val: types.NewInt(1_004_500)}},
		[]Pred{{Col: 3, Op: encoding.OpGE, Val: types.NewString("name020")}, {Col: 4, Op: encoding.OpLE, Val: types.NewInt(5003)}},
		[]Pred{{Col: 1, Op: encoding.OpGT, Val: types.NewDate(0)}, {Col: 2, Op: encoding.OpLT, Val: types.NewFloat(250.5)}},
		[]Pred{{Col: 5, Op: encoding.OpGE, Val: types.NewInt(1_000_000)}, {Col: 6, Op: encoding.OpNE, Val: types.NewFloat(100_010.23)}},
		[]Pred{{Col: 3, Op: encoding.OpGE, Val: types.NewString("name020x")}, {Col: 5, Op: encoding.OpLT, Val: types.NewInt(3000)}},
	)
	for _, preds := range cases {
		want := plainFilter(rows, preds)
		for name, got := range pageCodeScans(t, tbl, rows, preds) {
			if !slices.Equal(got, want) {
				t.Fatalf("%v: %s selects %d rows, the plain filter %d", preds, name, len(got), len(want))
			}
		}
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
	if want.null[4] == 0 || want.in[4] == 0 || want.null[3] == 0 || want.null[5] == 0 || want.in[5] == 0 || want.in[6] == 0 {
		t.Fatal("the table must hold NULLs and IN matches")
	}
}

// sealedPageBytes returns the bytes of the sealed page of codes (a NULL
// cell's code ignored) and the exceptions it keeps: its packed words at
// the width w that makes the page smallest, counting 6 bytes for each
// offset from the smallest non-NULL code that is wider than w bits (the
// widest w winning a tie), plus a 128-byte NULL bitmap only when a cell is
// NULL, plus its 32-byte header.
func sealedPageBytes(codes []uint64, nulls []bool) (bytes, patched int) {
	lo, hi, anyNull := uint64(math.MaxUint64), uint64(0), false
	for i, c := range codes {
		if nulls[i] {
			anyNull = true
		} else {
			lo, hi = min(lo, c), max(hi, c)
		}
	}
	if lo > hi {
		lo, hi = 0, 0
	}
	bytes = math.MaxInt
	for w := bitpack.WidthFor(hi - lo); w >= 1; w-- {
		wide := 0
		for i, c := range codes {
			if !nulls[i] && (c-lo)>>w != 0 {
				wide++
			}
		}
		perWord := 64 / int(w+1)
		if size := (len(codes)+perWord-1)/perWord*8 + 6*wide; size < bytes {
			bytes, patched = size, wide
		}
	}
	bytes += 32
	if anyNull {
		bytes += page.StrideSize / 8
	}
	return bytes, patched
}

// TestPageCodeBytesExact pins Compression().PageBytes, and every sealed
// page's MemSize and exception count, to sealedPageBytes of the stride's
// codes (the rows re-encoded); the open stride counts 8 bytes a code.
// The column shares in the report sum to PageBytes and count the
// exceptions.
func TestPageCodeBytesExact(t *testing.T) {
	tbl, rows := newPageCodeTable(t)
	snap := tbl.Snapshot()
	defer snap.Release()
	want := 0
	sizes, excs := make([][]int, len(pageCodeSchema())), make([][]int, len(pageCodeSchema()))
	for ci := range snap.state().cols {
		c := &snap.state().cols[ci]
		for s := range c.syn {
			vals := make([]types.Value, page.StrideSize)
			nulls := make([]bool, page.StrideSize)
			for k := range vals {
				vals[k] = rows[s*page.StrideSize+k][ci]
				nulls[k] = vals[k].IsNull()
			}
			codes := make([]uint64, page.StrideSize)
			c.enc.EncodeAll(vals, codes)
			size, patched := sealedPageBytes(codes, nulls)
			pg, err := tbl.loadPageGen(ci, c.gen, s)
			if err != nil || pg.MemSize() != size || pg.Patched() != patched {
				t.Fatalf("column %d stride %d: page of %d B with %d exceptions (err %v), want %d B with %d", ci, s, pg.MemSize(), pg.Patched(), err, size, patched)
			}
			want += size
			sizes[ci], excs[ci] = append(sizes[ci], size), append(excs[ci], patched)
		}
		want += len(c.openCodes) * 8
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
	}
	if sum != rep.PageBytes {
		t.Errorf("column page bytes sum to %d, PageBytes is %d", sum, rep.PageBytes)
	}
	// Known pages. 1 024 sequential ids span 1 023: 205 words of 10 bits
	// (1 672 B with the header); the all-NULL stride's 32 words of width
	// 1, its bitmap and header (416 B); no uniform column patches. The
	// fat-tail BIGINT's narrow values are below 5 000 (13 bits) and its
	// outliers past a million (20 bits): 13 to 15 bits pack 4 a word (256
	// words) and 20 only 3 (342), so a stride with 13 outliers (its first
	// and last position and 11 between) packs 256 words and 13 exceptions
	// (2 158 B). Stride 2 loses 2 of them to NULLs and holds a bitmap;
	// stride 3 has no outlier; stride 4's 267 would cost 1 602 B to save
	// 688, so both pack every code.
	for _, c := range []struct {
		col, stride, size, patched int
	}{
		{0, 0, 205*8 + 32, 0}, {0, 4, 205*8 + 32, 0}, {4, 2, 32*8 + 128 + 32, 0},
		{5, 0, 256*8 + 13*6 + 32, 13}, {5, 8, 256*8 + 13*6 + 32, 13},
		{5, 2, 256*8 + 11*6 + 128 + 32, 11}, {5, 3, 256*8 + 32, 0}, {5, 4, 342*8 + 32, 0},
	} {
		if sizes[c.col][c.stride] != c.size || excs[c.col][c.stride] != c.patched {
			t.Errorf("column %d stride %d: %d B with %d exceptions, want %d B with %d", c.col, c.stride, sizes[c.col][c.stride], excs[c.col][c.stride], c.size, c.patched)
		}
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
