package exec

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/page"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// genSchema is the generated group-by suite's table: six key columns of
// every shape the group table tells apart, then measures.
func genSchema() types.Schema {
	return types.Schema{
		{Name: "d1", Kind: types.KindString, Nullable: true}, // dictionary string
		{Name: "d2", Kind: types.KindInt, Nullable: true},    // dictionary int (wide span)
		{Name: "i", Kind: types.KindInt, Nullable: true},
		{Name: "dt", Kind: types.KindDate, Nullable: true},
		{Name: "f", Kind: types.KindFloat, Nullable: true}, // NaN, +0, -0, an integral value
		{Name: "s", Kind: types.KindString, Nullable: true},
		{Name: "m", Kind: types.KindInt, Nullable: true},   // prefixes leave int64, totals fit
		{Name: "x", Kind: types.KindFloat, Nullable: true}, // 1e6 + halves: Σx² cancels
		{Name: "y", Kind: types.KindFloat, Nullable: true},
		{Name: "o", Kind: types.KindInt}, // totals leave int64
	}
}

// genRows draws n rows. Every other run of four rows shares its key columns
// and carries +2^62, +2^62, -2^62, -2^62 (plus noise) in m, so whatever the
// grouping a group's m total fits int64 while a prefix, a worker's partial or
// a spilled partial does not.
func genRows(rng *rand.Rand, n int) []types.Row {
	null := func(p int, v types.Value) types.Value {
		if rng.Intn(p) == 0 {
			return types.NullOf(v.Kind())
		}
		return v
	}
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), 1.5, -2.25, 1e300, 3}
	rows := make([]types.Row, n)
	for i := range rows {
		r := types.Row{
			null(10, types.NewString(dictRegions[rng.Intn(4)])),
			null(10, types.NewInt(int64(rng.Intn(6))*1_000_000_000_000)),
			null(12, types.NewInt(int64(rng.Intn(40)-5))),
			null(20, types.NewDate(int64(19000+rng.Intn(30)))),
			null(9, types.NewFloat(floats[rng.Intn(len(floats))])),
			null(15, types.NewString(fmt.Sprintf("s%03d", rng.Intn(150)))),
			null(7, types.NewInt(int64(rng.Intn(1_000_000)))),
			null(20, types.NewFloat(1e6+float64(rng.Intn(2000))*0.5)),
			null(20, types.NewFloat(float64(rng.Intn(1000))*0.25-100)),
			types.NewInt(math.MaxInt64 / 2),
		}
		if big := i < n/4*4 && (i/4)%2 == 0; big {
			if i%4 != 0 {
				copy(r[:6], rows[i-1][:6])
			}
			sign := int64(1 - 2*(i%4/2))
			r[6] = types.NewInt(sign<<62 + int64(rng.Intn(1_000_000)))
		}
		rows[i] = r
	}
	return rows
}

func col(c int) Expr { return ColRef(c) }

// genAggs: every AggFunc. The mergeable list ingests on Dop workers; the
// full list adds MEDIAN/PERCENTILE, which ingest on one.
func genAggs(full bool) []AggSpec {
	aggs := []AggSpec{
		{Func: AggCountStar, Name: "cnt"},
		{Func: AggCount, Arg: col(6), Name: "cnt_m"},
		{Func: AggCountDistinct, Arg: col(4), Name: "cd_f"},
		{Func: AggCountDistinct, Arg: col(5), Name: "cd_s"},
		{Func: AggSum, Arg: col(6), Name: "sum_m"},
		{Func: AggSum, Arg: col(7), Name: "sum_x"},
		{Func: AggAvg, Arg: col(7), Name: "avg_x"},
		{Func: AggAvg, Arg: col(2), Name: "avg_i"},
		{Func: AggMin, Arg: col(5), Name: "min_s"},
		{Func: AggMax, Arg: col(4), Name: "max_f"},
		{Func: AggMin, Arg: col(3), Name: "min_dt"},
		{Func: AggMax, Arg: col(0), Name: "max_d1"},
		{Func: AggStddevPop, Arg: col(7), Name: "sdp"},
		{Func: AggStddevSamp, Arg: col(7), Name: "sds"},
		{Func: AggVarPop, Arg: col(7), Name: "vp"},
		{Func: AggVarSamp, Arg: col(7), Name: "vs"},
		{Func: AggCovarPop, Arg: col(7), Arg2: col(8), Name: "cp"},
		{Func: AggCovarSamp, Arg: col(7), Arg2: col(8), Name: "cs"},
	}
	if full {
		aggs = append(aggs,
			AggSpec{Func: AggMedian, Arg: col(7), Name: "med"},
			AggSpec{Func: AggPercentileCont, Arg: col(8), Param: 0.25, Name: "p25"},
			AggSpec{Func: AggPercentileDisc, Arg: col(7), Param: 0.9, Name: "pd90"})
	}
	return aggs
}

// genConstAggs: every AggFunc over a literal and over a NULL literal (what
// sql compiles `STDDEV(1)`, `MEDIAN(?)` and `COVAR_POP(x, 2)` to) — a Const
// vector holds one value however many rows the batch has.
func genConstAggs(full bool) []AggSpec {
	three, null := Const{V: types.NewInt(3)}, Const{V: types.Null}
	funcs := []AggFunc{AggCount, AggCountDistinct, AggSum, AggAvg, AggMin, AggMax,
		AggStddevPop, AggStddevSamp, AggVarPop, AggVarSamp}
	if full {
		funcs = append(funcs, AggMedian, AggPercentileCont, AggPercentileDisc)
	}
	var aggs []AggSpec
	for _, f := range funcs {
		aggs = append(aggs,
			AggSpec{Func: f, Arg: three, Param: 0.5, Name: fmt.Sprintf("c%d", f)},
			AggSpec{Func: f, Arg: null, Param: 0.5, Name: fmt.Sprintf("n%d", f)})
	}
	for _, f := range []AggFunc{AggCovarPop, AggCovarSamp} {
		aggs = append(aggs,
			AggSpec{Func: f, Arg: col(7), Arg2: three, Name: fmt.Sprintf("xc%d", f)},
			AggSpec{Func: f, Arg: Const{V: types.NewFloat(2.5)}, Arg2: col(8), Name: fmt.Sprintf("cy%d", f)},
			AggSpec{Func: f, Arg: three, Arg2: three, Name: fmt.Sprintf("cc%d", f)},
			AggSpec{Func: f, Arg: null, Arg2: col(8), Name: fmt.Sprintf("ny%d", f)})
	}
	return aggs
}

// TestGroupByGenerated is the group table's generated oracle: key shapes
// {none, one and two dictionary-code keys, INT, DATE, DOUBLE with NaN and
// ±0, a string without a dictionary, a mix with NULLs, row-backed VALUES
// input} × every AggFunc (over columns, and over a literal and a NULL
// literal) × dop 1/2/8 × {no governor, 4 KB, 64 KB HASHHEAP}
// against oracleGroupBy — rows and order. An integer SUM whose total leaves
// int64 is the operator's error exactly when it is the oracle's.
func TestGroupByGenerated(t *testing.T) {
	sch := genSchema()
	shapes := []struct {
		name    string
		keys    []int
		decoded bool // scan decodes dictionary columns
		values  bool // row-backed input
	}{
		{name: "no keys"},
		{name: "one dictionary key", keys: []int{0}},
		{name: "two dictionary keys", keys: []int{0, 1}},
		{name: "INT key", keys: []int{2}},
		{name: "DATE key", keys: []int{3}},
		{name: "DOUBLE key", keys: []int{4}},
		{name: "string key, no dictionary", keys: []int{5}, decoded: true},
		{name: "mixed keys", keys: []int{0, 2, 5, 4}},
		{name: "VALUES input", keys: []int{4, 5}, values: true},
		{name: "VALUES input, INT key", keys: []int{2}, values: true},
	}
	lists := []struct {
		name string
		aggs []AggSpec
	}{
		{"mergeable", genAggs(false)},
		{"every aggregate", genAggs(true)},
		{"constant arguments", genConstAggs(false)},
		{"constant arguments, every aggregate", genConstAggs(true)},
		{"overflowing SUM", []AggSpec{{Func: AggCountStar, Name: "cnt"}, {Func: AggSum, Arg: col(9), Name: "sum_o"}}},
	}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := genRows(rng, 3*page.StrideSize+rng.Intn(page.StrideSize))
		tbl := columnar.NewTable(uint32(700+seed), "gen", sch, columnar.Config{})
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		if tbl.ColumnDict(0) == nil || tbl.ColumnDict(1) == nil || tbl.ColumnDict(4) != nil {
			t.Fatalf("encodings: d1=%s d2=%s f=%s", tbl.ColumnEncoding(0), tbl.ColumnEncoding(1), tbl.ColumnEncoding(4))
		}
		rows = tableRows(t, tbl)
		for _, sh := range shapes {
			var keys []Expr
			var cols types.Schema
			for _, k := range sh.keys {
				keys, cols = append(keys, col(k)), append(cols, sch[k])
			}
			for _, list := range lists {
				if seed > 1 && strings.HasPrefix(list.name, "constant") {
					continue // a constant reads the same over any rows: one seed
				}
				want, wantErr := oracleGroupByErr(t, rows, keys, list.aggs)
				for _, budget := range []int64{0, 4 << 10, 64 << 10} {
					for _, dop := range []int{1, 2, 8} {
						label := fmt.Sprintf("seed %d, %s, %s, heap %d, dop %d", seed, sh.name, list.name, budget, dop)
						var gov *mem.Governor
						dir := ""
						if budget > 0 {
							gov, _, dir = tinyGov(t, budget)
						}
						var child Operator
						switch {
						case sh.values:
							child = NewValues(sch, rows)
						case sh.decoded:
							child = scanDop(tbl, dop)
						default:
							child = scanCodes(tbl, dop)
						}
						g := &GroupByOp{Child: child, GroupBy: keys, GroupCols: cols, Aggs: list.aggs, Gov: gov, Dop: dop}
						got, err := Drain(g)
						switch {
						case wantErr != nil:
							if err == nil || !strings.Contains(err.Error(), "integer overflow in SUM") {
								t.Fatalf("%s: err = %v, want integer overflow in SUM", label, err)
							}
						case err != nil:
							t.Fatalf("%s: %v", label, err)
						default:
							sameRows(t, label, got, want)
						}
						if budget > 0 {
							requireNoSpillFiles(t, dir)
						}
					}
				}
			}
		}
	}
}

// TestSumOverflow: an integer SUM is carried exactly, so a total that fits
// int64 is returned even when a prefix did not, and one that does not fit is
// an error from Open — at every dop, spilled and in memory.
func TestSumOverflow(t *testing.T) {
	schema := types.Schema{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}}
	load := func(id uint32, vals []int64) *columnar.Table {
		tbl := columnar.NewTable(id, "ovf", schema, columnar.Config{})
		var rows []types.Row
		for rep := 0; rep < 2*page.StrideSize; rep++ { // many strides, so workers and spill runs split a group
			for i, v := range vals {
				rows = append(rows, types.Row{types.NewInt(int64(rep%97*len(vals) + i%2)), types.NewInt(v)})
			}
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	// Per key: MaxInt64 and MinInt64 alternate, so totals stay near zero
	// while every other prefix is outside int64.
	fits := load(720, []int64{math.MaxInt64, math.MaxInt64, math.MinInt64, math.MinInt64, 7, 9})
	over := load(721, []int64{math.MaxInt64, math.MaxInt64, 1, 1, 1, 0})
	aggs := []AggSpec{{Func: AggSum, Arg: ColRef(1), Name: "s"}, {Func: AggAvg, Arg: ColRef(1), Name: "a"}}
	want := oracleGroupBy(t, tableRows(t, fits), []Expr{ColRef(0)}, aggs)
	for _, budget := range []int64{0, 4 << 10} {
		for _, dop := range []int{1, 2, 8} {
			mk := func(tbl *columnar.Table) *GroupByOp {
				var gov *mem.Governor
				if budget > 0 {
					gov, _, _ = tinyGov(t, budget)
				}
				return atDop(&GroupByOp{Child: NewScan(tbl, nil, nil), GroupBy: []Expr{ColRef(0)}, GroupCols: schema[:1], Aggs: aggs, Gov: gov}, dop)
			}
			label := fmt.Sprintf("heap %d dop %d", budget, dop)
			g := mk(fits)
			got, err := Drain(g)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameRows(t, label, got, want)
			if runs, _ := g.SpillStats(); (runs > 0) != (budget > 0) {
				t.Fatalf("%s: %d spill runs", label, runs)
			}
			if _, err := Drain(mk(over)); err == nil || err.Error() != "exec: integer overflow in SUM" {
				t.Fatalf("%s: overflowing total: err = %v", label, err)
			}
		}
	}
}

// batchesOp hands out batches built by hand.
type batchesOp struct {
	sch     types.Schema
	batches []*vec.Batch
	next    int
}

func (b *batchesOp) Schema() types.Schema { return b.sch }
func (b *batchesOp) Open() error          { b.next = 0; return nil }
func (b *batchesOp) Close() error         { return nil }
func (b *batchesOp) Next() (*vec.Batch, error) {
	if b.next == len(b.batches) {
		return nil, nil
	}
	b.next++
	return b.batches[b.next-1], nil
}

// TestGroupByLeavesDirectScheme: the direct scheme sizes its slots from the
// first batch's dictionary snapshot. A later batch of the same dictionary
// carrying a code past it turns the table into a words table, groups and
// state intact; a batch of another dictionary is the operator's error.
func TestGroupByLeavesDirectScheme(t *testing.T) {
	sch := types.Schema{{Name: "k", Kind: types.KindString, Nullable: true}, {Name: "v", Kind: types.KindInt}}
	dict := encoding.NewDict(types.KindString)
	var rows []types.Row
	batch := func(d *encoding.Dict, keys ...string) *vec.Batch {
		codes, vv := make([]uint64, len(keys)), vec.New(types.KindInt, len(keys))
		for i, k := range keys {
			key := types.NullOf(types.KindString)
			if k != "" {
				key = types.NewString(k)
				codes[i] = d.Encode(key)
			}
			vv.I64[i] = int64(i)
			rows = append(rows, types.Row{key, types.NewInt(int64(i))})
		}
		kv := vec.NewCodes(types.KindString, len(keys), d) // its snapshot: the dictionary so far
		copy(kv.Codes, codes)
		for i, k := range keys {
			if k == "" {
				kv.SetNull(i)
			}
		}
		return vec.NewBatch(sch, []*vec.Vector{kv, vv}, len(keys))
	}
	first := batch(dict, "a", "b", "", "a")
	later := batch(dict, "c", "a", "d", "", "c")
	g := &GroupByOp{Child: &batchesOp{sch: sch, batches: []*vec.Batch{first, later}}, GroupBy: []Expr{ColRef(0)}, GroupCols: sch[:1],
		Aggs: []AggSpec{{Func: AggCountStar, Name: "cnt"}, {Func: AggSum, Arg: ColRef(1), Name: "sum"}}}
	got, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "growing dictionary", got, oracleGroupBy(t, rows, g.GroupBy, g.Aggs))
	if n, _, ids := g.GroupStats(); n != 5 || ids != "words" {
		t.Fatalf("GroupStats = %d groups, ids=%s, want 5, words", n, ids)
	}
	g.Child = &batchesOp{sch: sch, batches: []*vec.Batch{first}}
	if _, err := Drain(g); err != nil {
		t.Fatal(err)
	} else if _, _, ids := g.GroupStats(); ids != "direct" {
		t.Fatalf("first batch alone: ids=%s, want direct", ids)
	}
	foreign := batch(encoding.NewDict(types.KindString), "a")
	g.Child = &batchesOp{sch: sch, batches: []*vec.Batch{first, foreign}}
	if _, err := Drain(g); err != errOutsideDict {
		t.Fatalf("foreign dictionary: err = %v, want %v", err, errOutsideDict)
	}
}

// accountsTable is the benchmark's groupby shape: rows rows over keys
// distinct account ids, an amount, and the two columns the statement does
// not read.
func accountsTable(t testing.TB, id uint32, rows, keys int) (*columnar.Table, types.Schema) {
	t.Helper()
	schema := types.Schema{
		{Name: "txn_id", Kind: types.KindInt},
		{Name: "account_id", Kind: types.KindInt},
		{Name: "amount", Kind: types.KindFloat},
		{Name: "status", Kind: types.KindString},
	}
	tbl := columnar.NewTable(id, "txn", schema, columnar.Config{})
	rng := rand.New(rand.NewSource(int64(id)))
	status := []string{"SETTLED", "PENDING", "REVERSED", "FAILED", "DISPUTED"}
	batch := make([]types.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, types.Row{types.NewInt(int64(i)), types.NewInt(int64(rng.Intn(keys))),
			types.NewFloat(float64(rng.Intn(100_000)) / 4), types.NewString(status[rng.Intn(len(status))])})
	}
	if err := tbl.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	return tbl, schema
}

func accountsGroupBy(tbl *columnar.Table, schema types.Schema, gov *mem.Governor, dop int) *GroupByOp {
	return atDop(&GroupByOp{
		Child:     NewScan(tbl, nil, nil),
		GroupBy:   []Expr{ColRef(1)},
		GroupCols: schema[1:2],
		Aggs:      []AggSpec{{Func: AggCountStar, Name: "cnt"}, {Func: AggSum, Arg: ColRef(2), Name: "sum"}},
		Gov:       gov,
	}, dop)
}

// TestGroupStateFitsOneMiB pins the headline: 150 000 rows into 3 000 INT
// keys, COUNT(*) and SUM(double), two workers, a 1 MiB HASHHEAP — nothing
// spills, and the reservation never holds more than 128 bytes a group per
// worker table (it was 472).
func TestGroupStateFitsOneMiB(t *testing.T) {
	const groups, workers = 3000, 2
	tbl, schema := accountsTable(t, 730, 150_000, groups)
	gov, broker, dir := tinyGov(t, 1<<20)
	g := accountsGroupBy(tbl, schema, gov, workers)
	got, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "1 MiB", got, oracleGroupBy(t, tableRows(t, tbl), g.GroupBy, g.Aggs))
	if runs, bytes := g.SpillStats(); runs != 0 || bytes != 0 {
		t.Fatalf("spilled: runs=%d bytes=%d", runs, bytes)
	}
	heaps, _ := broker.Stats()
	if peak := heaps[mem.HashHeap].PeakBytes; peak == 0 || peak > 128*groups*workers {
		t.Fatalf("HASHHEAP peak %d B, want at most %d (128 B a group a table)", peak, 128*groups*workers)
	}
	if n, state, ids := g.GroupStats(); n != groups || ids != "words" || state > 128*groups*workers {
		t.Fatalf("GroupStats = %d groups, %d B, ids=%s", n, state, ids)
	}
	requireNoSpillFiles(t, dir)
}

// countingWriter measures what the spill codec would write.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

var _ io.Writer = (*countingWriter)(nil)

// runFileCount notes how many partition run files a group-by's ingest wrote:
// Open leaves them, read back and closed, in files until Close.
type runFileCount struct {
	*GroupByOp
	files int
}

func (c *runFileCount) Open() error {
	err := c.GroupByOp.Open()
	c.files = len(c.GroupByOp.files)
	return err
}

// TestGroupByHeapStepping lowers HASHHEAP from 1 MiB to 4 KB in halving
// steps over the headline's input: every step returns the oracle's rows, a
// worker writes at most one run file a partition, and no step spills more
// bytes than the input rows themselves encode to — a row makes at most one
// group record, and a record (key, COUNT and SUM lanes) is smaller than the
// row it came from. Real overflow still degrades through the partitioned
// spill, without the blow-up of 22 MB for 2 MB of input.
func TestGroupByHeapStepping(t *testing.T) {
	const workers = 2
	tbl, schema := accountsTable(t, 731, 150_000, 3000)
	rows := tableRows(t, tbl)
	var input countingWriter
	rw := encoding.NewRowWriter(&input)
	for _, r := range rows {
		if _, err := rw.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	var want []types.Row
	spilled := false
	for heap := int64(1 << 20); heap >= 4<<10; heap /= 2 {
		gov, _, dir := tinyGov(t, heap)
		g := &runFileCount{GroupByOp: accountsGroupBy(tbl, schema, gov, workers)}
		got, err := Drain(g)
		if err != nil {
			t.Fatalf("heap %d: %v", heap, err)
		}
		if want == nil {
			want = oracleGroupBy(t, rows, g.GroupBy, g.Aggs)
		}
		sameRows(t, fmt.Sprintf("heap %d", heap), got, want)
		runs, bytes := g.SpillStats()
		t.Logf("heap %7d: %5d runs in %3d files, %7d B spilled (input %d B)", heap, runs, g.files, bytes, input.n)
		if g.files > workers*aggPartitions || (runs > 0) != (g.files > 0) {
			t.Fatalf("heap %d: %d run files for %d runs", heap, g.files, runs)
		}
		if bytes > input.n {
			t.Fatalf("heap %d: spilled %d B, the input encodes to %d B", heap, bytes, input.n)
		}
		spilled = spilled || runs > 0
		requireNoSpillFiles(t, dir)
	}
	if !spilled {
		t.Fatal("no step spilled")
	}
}

// BenchmarkGroupBy: the row-backed VALUES input it always measured, then a
// scan per id scheme, and groups ≈ rows (DISTINCT), where emit — decode,
// sort, gather — is the cost.
// benchGroupByTable is the 200 000-row table the group-by benchmarks scan: a
// five-value string d, an int k and a string s of 3 000 values each, a unique
// int u and a float v.
func benchGroupByTable(b *testing.B) (*columnar.Table, types.Schema) {
	const n = 200_000
	schema := types.Schema{
		{Name: "d", Kind: types.KindString},
		{Name: "k", Kind: types.KindInt},
		{Name: "s", Kind: types.KindString},
		{Name: "u", Kind: types.KindInt},
		{Name: "v", Kind: types.KindFloat},
	}
	tbl := columnar.NewTable(740, "bench", schema, columnar.Config{})
	rng := rand.New(rand.NewSource(1))
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewString(dictRegions[rng.Intn(len(dictRegions))]), types.NewInt(int64(rng.Intn(3000))),
			types.NewString(fmt.Sprintf("name-%04d", rng.Intn(3000))), types.NewInt(int64(i) * 7919 % n), types.NewFloat(float64(i % 1000))}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		b.Fatal(err)
	}
	return tbl, schema
}

func BenchmarkGroupBy(b *testing.B) {
	b.Run("values", func(b *testing.B) {
		var data []types.Row
		for i := int64(0); i < 50000; i++ {
			data = append(data, types.Row{types.NewInt(i % 100), types.NewInt(i)})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := &GroupByOp{
				Child:     NewValues(intSchema("g", "v"), data),
				GroupBy:   []Expr{ColRef(0)},
				GroupCols: intSchema("g"),
				Aggs:      []AggSpec{{Func: AggSum, Arg: ColRef(1), Name: "s"}},
			}
			if _, err := Drain(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	tbl, schema := benchGroupByTable(b)
	aggs := []AggSpec{{Func: AggCountStar, Name: "cnt"}, {Func: AggSum, Arg: ColRef(1), Name: "sum"}}
	for _, bc := range []struct {
		name    string
		key     int
		decoded bool
		aggs    []AggSpec
		ids     string
	}{
		{"direct", 0, false, aggs, "direct"},
		{"words", 1, false, aggs, "words"},
		{"bytes", 2, true, aggs, "bytes"},
		{"distinct", 3, false, nil, "words"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scan := NewScan(tbl, nil, []int{bc.key, 4}) // the key and v
				if !bc.decoded {
					scan.EnableCompressed()
				}
				g := &GroupByOp{Child: scan, GroupBy: []Expr{ColRef(0)}, GroupCols: schema[bc.key : bc.key+1], Aggs: bc.aggs}
				if err := g.Open(); err != nil {
					b.Fatal(err)
				}
				for {
					vb, err := g.Next()
					if err != nil {
						b.Fatal(err)
					}
					if vb == nil {
						break
					}
				}
				g.Close()
				if _, _, ids := g.GroupStats(); ids != bc.ids {
					b.Fatalf("ids = %s, want %s", ids, bc.ids)
				}
			}
		})
	}
}

// BenchmarkGroupByUnderPredicate is BenchmarkGroupBy/words (GROUP BY k,
// COUNT(*), SUM(k) over the scan of k and v) under a filter the scan cannot
// take: the seven predicate shapes with no typed kernel, built as the SQL
// compiler builds them, at dop 1 and 2. A pure predicate leaves the group-by
// its workers; the numbers are recorded in EXPERIMENTS.md.
func BenchmarkGroupByUnderPredicate(b *testing.B) {
	tbl, schema := benchGroupByTable(b)
	// The scan's columns: k, v, d, s.
	k, v, d, s := ColRef(0), ColRef(1), ColRef(2), ColRef(3)
	num := func(x int64) Expr { return Const{V: types.NewInt(x)} }
	pure := func(fn func(a []types.Value) (types.Value, error), args ...Expr) Expr {
		return &ApplyExpr{Args: args, Fn: fn}
	}
	gt := func(l Expr, x int64) Expr { return &CmpExpr{Op: encoding.OpGT, L: l, R: num(x)} }
	preds := []struct {
		name string
		pred Expr
	}{
		{"like", pure(func(a []types.Value) (types.Value, error) {
			return types.NewBool(strings.HasPrefix(a[0].String(), "name-1")), nil
		}, s)},
		{"in", &InExpr{E: k, List: []Expr{num(7), num(1500), num(2999)}}},
		{"isnotnull", pure(func(a []types.Value) (types.Value, error) { return types.NewBool(!a[0].IsNull()), nil }, d)},
		{"case", gt(&CaseExpr{Whens: []CaseWhen{{When: gt(v, 100), Then: num(1)}}, Else: num(0)}, 0)},
		{"cast", gt(pure(func(a []types.Value) (types.Value, error) { return types.Coerce(a[0], types.KindInt) }, v), 100)},
		{"between", pure(func(a []types.Value) (types.Value, error) {
			return types.NewBool(types.Compare(a[0], a[1]) >= 0 && types.Compare(a[0], a[2]) <= 0), nil
		}, &ArithExpr{Op: "+", L: k, R: num(0)}, num(100), num(2000))},
		{"call", &CmpExpr{Op: encoding.OpEQ, R: Const{V: types.NewString("NORTH")}, L: pure(func(a []types.Value) (types.Value, error) {
			return types.NewString(strings.ToUpper(a[0].String())), nil
		}, d)}},
	}
	aggs := []AggSpec{{Func: AggCountStar, Name: "cnt"}, {Func: AggSum, Arg: ColRef(0), Name: "sum"}}
	for _, p := range preds {
		for _, dop := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/dop=%d", p.name, dop), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					scan := NewScan(tbl, nil, []int{1, 4, 0, 2})
					scan.Dop = dop
					scan.EnableCompressed()
					g := &GroupByOp{Child: &FilterOp{Child: scan, Pred: p.pred}, GroupBy: []Expr{ColRef(0)},
						GroupCols: schema[1:2], Aggs: aggs, Dop: dop}
					if rows, err := Drain(g); err != nil || len(rows) == 0 {
						b.Fatalf("%d groups, %v", len(rows), err)
					}
				}
			})
		}
	}
}

// BenchmarkThetaJoin is a 1 000 × 1 000 keyless join on
// l.a < r.a AND r.s LIKE 'x%': the residual runs over each chunk of the
// million candidate pairs.
func BenchmarkThetaJoin(b *testing.B) {
	left, right := make([]types.Row, 1000), make([]types.Row, 1000)
	for i := range left {
		left[i] = types.Row{types.NewInt(int64(i))}
		right[i] = types.Row{types.NewInt(int64(i * 7 % 1000)), types.NewString([]string{"xa", "yb", "xc", "zd"}[i%4])}
	}
	rs := types.Schema{{Name: "a", Kind: types.KindInt}, {Name: "s", Kind: types.KindString}}
	pred := &AndExpr{
		L: &CmpExpr{Op: encoding.OpLT, L: ColRef(0), R: ColRef(1)},
		R: &ApplyExpr{Args: []Expr{ColRef(2)}, Fn: func(a []types.Value) (types.Value, error) {
			return types.NewBool(strings.HasPrefix(a[0].String(), "x")), nil
		}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := &HashJoinOp{Left: NewValues(intSchema("a"), left), Right: NewValues(rs, right), Residual: pred}
		if rows, err := Drain(j); err != nil || len(rows) == 0 {
			b.Fatalf("%d rows, %v", len(rows), err)
		}
	}
}
