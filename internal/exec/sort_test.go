package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/types"
)

// requireSameOrder compares two row sequences position by position, floats
// by their bits and NULLs by their kind.
func requireSameOrder(t *testing.T, label string, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if g, w := rowFingerprint(got[i]), rowFingerprint(want[i]); g != w {
			t.Fatalf("%s: row %d is %s, want %s", label, i, g, w)
		}
	}
}

// sortTable is the generated test's table: a unique id in input order (so a
// stable sort is checkable), a BIGINT with NULLs and heavy duplicates, a
// DOUBLE with NaN, ±0 and NULL, a dictionary-coded VARCHAR loaded in two
// batches — the second grows the dictionary — and a DATE with NULLs. NULLs
// are stored in their column's kind, as a typed vector hands them back.
func sortTable(t *testing.T, seed int64, n int) *columnar.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sch := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "k", Kind: types.KindInt, Nullable: true},
		{Name: "f", Kind: types.KindFloat, Nullable: true},
		{Name: "s", Kind: types.KindString, Nullable: true},
		{Name: "d", Kind: types.KindDate, Nullable: true},
	}
	tbl := columnar.NewTable(uint32(760+seed), fmt.Sprintf("st%d", seed), sch, columnar.Config{})
	rows := make([]types.Row, n)
	for i := range rows {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(rng.Intn(13)) - 6),
			types.NewFloat(float64(rng.Intn(9)) / 4), types.NullOf(types.KindString), types.NewDate(int64(14000 + rng.Intn(40)))}
		if rng.Intn(8) == 0 {
			row[1] = types.NullOf(types.KindInt)
		}
		switch rng.Intn(12) {
		case 0:
			row[2] = types.NewFloat(math.NaN())
		case 1:
			row[2] = types.NewFloat(math.Copysign(0, -1))
		case 2:
			row[2] = types.NullOf(types.KindFloat)
		}
		if rng.Intn(9) != 0 {
			words := 40 // the second load brings 25 words the first never saw
			if i < n/2 {
				words = 15
			}
			row[3] = types.NewString(fmt.Sprintf("w%02d", rng.Intn(words)))
		}
		if rng.Intn(10) == 0 {
			row[4] = types.NullOf(types.KindDate)
		}
		rows[i] = row
	}
	for _, part := range [][]types.Row{rows[:n/2], rows[n/2:]} {
		if err := tbl.InsertBatch(part); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// sortShape is one input to sort: the child, the rows it emits in order,
// the key under test and the columns further keys are drawn from.
type sortShape struct {
	name  string
	child func() Operator
	rows  []types.Row
	key   Expr
	extra []int
}

func sortShapes(t *testing.T, seed int64, n int) []sortShape {
	tbl := sortTable(t, seed, n)
	rows := tableRows(t, tbl)
	scan := func() Operator { return scanCodes(tbl, 1) }
	if !CompressedCols(scan())[3] {
		t.Fatal("the VARCHAR column must reach the sort as dictionary codes")
	}
	cols := []int{1, 2, 3, 4}
	caseKey := &CaseExpr{
		Whens: []CaseWhen{{When: &CmpExpr{Op: encoding.OpGT, L: ColRef(1), R: Const{V: types.NewInt(2)}}, Then: ColRef(3)}},
		Else:  Const{V: types.NewString("w07")},
	}

	// UNION ALL of a BIGINT and a DOUBLE column: batches of two payload
	// kinds in one column.
	pick := func(c int) func() Operator {
		return func() Operator {
			return &ProjectOp{Child: scanCodes(tbl, 1), Exprs: []Expr{ColRef(c), ColRef(0)},
				Out: types.Schema{{Name: "v", Nullable: true}, {Name: "id", Kind: types.KindInt}}}
		}
	}
	union := func() Operator { return &UnionAllOp{Children: []Operator{pick(1)(), pick(2)()}} }
	unionRows := append(oracleProject(t, rows, []Expr{ColRef(1), ColRef(0)}), oracleProject(t, rows, []Expr{ColRef(2), ColRef(0)})...)

	// A row-built VALUES child with every kind in its first column.
	rng := rand.New(rand.NewSource(seed))
	mixed := make([]types.Row, n)
	for i := range mixed {
		var v types.Value
		switch rng.Intn(6) {
		case 0:
			v = types.NewInt(int64(rng.Intn(5)))
		case 1:
			v = types.NewFloat(float64(rng.Intn(9)) / 2)
		case 2:
			v = types.NewString(fmt.Sprintf("m%d", rng.Intn(4)))
		case 3:
			v = types.NewDate(int64(rng.Intn(3)))
		case 4:
			v = types.NewBool(rng.Intn(2) == 0)
		default:
			v = types.Null
		}
		mixed[i] = types.Row{v, types.NewInt(int64(rng.Intn(3))), types.NewInt(int64(i))}
	}
	mixedSch := types.Schema{{Name: "v", Nullable: true}, {Name: "g", Kind: types.KindInt}, {Name: "id", Kind: types.KindInt}}

	return []sortShape{
		{"bigint", scan, rows, ColRef(1), cols},
		{"double", scan, rows, ColRef(2), cols},
		{"dict varchar", scan, rows, ColRef(3), cols},
		{"date", scan, rows, ColRef(4), cols},
		{"const", scan, rows, Const{V: types.NewInt(7)}, cols},
		{"a + f", scan, rows, &ArithExpr{Op: "+", L: ColRef(1), R: ColRef(2)}, cols},
		{"case", scan, rows, caseKey, cols},
		{"union bigint double", union, unionRows, ColRef(0), nil},
		{"values mixed kinds", func() Operator { return NewValues(mixedSch, mixed) }, mixed, ColRef(0), []int{1}},
	}
}

// TestSortGenerated holds SortOp to oracleSort over generated inputs: seeds ×
// key shapes × one to three keys, ASC or DESC at random × no heap, a 4 KB and
// a 64 KB SORTHEAP, plus empty input. The rows must come back in the
// oracle's order — equal keys in input order — with a spill under either
// heap, no spill file left behind, and the same rows again from a second
// Drain after an early Close.
func TestSortGenerated(t *testing.T) {
	heaps := []int64{0, 4 << 10, 64 << 10}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shapes := sortShapes(t, seed, 1500+rng.Intn(500))
		shapes = append(shapes, sortShape{"empty", func() Operator { return NewValues(mixedSchema(), nil) }, nil, ColRef(0), []int{1, 2}})
		for _, sh := range shapes {
			for nk := 1; nk <= 3; nk++ {
				keys := []SortKey{{Expr: sh.key, Desc: rng.Intn(2) == 0}}
				for len(keys) < nk && len(sh.extra) > 0 {
					keys = append(keys, SortKey{Expr: ColRef(sh.extra[rng.Intn(len(sh.extra))]), Desc: rng.Intn(2) == 0})
				}
				want := oracleSort(t, sh.rows, keys)
				for _, heap := range heaps {
					label := fmt.Sprintf("seed %d %s, %d keys, heap %d", seed, sh.name, len(keys), heap)
					var gov *mem.Governor
					dir := ""
					if heap > 0 {
						gov, _, dir = tinyGov(t, heap)
					}
					op := &SortOp{Child: sh.child(), Keys: keys, Gov: gov}
					got, err := Drain(op)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireSameOrder(t, label, got, want)
					if runs, _ := op.SpillStats(); (runs > 0) != (heap > 0 && len(want) > 0) {
						t.Fatalf("%s: %d runs spilled", label, runs)
					}
					if err := op.Open(); err != nil {
						t.Fatalf("%s: reopen: %v", label, err)
					}
					if _, err := op.Next(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := op.Close(); err != nil {
						t.Fatalf("%s: early close: %v", label, err)
					}
					again, err := Drain(op)
					if err != nil {
						t.Fatalf("%s: drain after early close: %v", label, err)
					}
					requireSameOrder(t, label+", after an early Close", again, want)
					if dir != "" {
						requireNoSpillFiles(t, dir)
					}
				}
			}
		}
	}
}

// TestSortHeapStepping runs the benchmark's sort shape — BIGINT txn_id and
// DOUBLE amount, ORDER BY amount DESC, txn_id — over 22 000 rows while
// SORTHEAP steps down from 2 MiB to 4 KB. Every step returns the oracle's
// rows. The buffers charge every allocation in full, 62 B a row of each
// capacity they reach: 9 B a number column and keyRowBytes(2) = 44 B, the
// widest record two keys take (five words) and 4 B of order. Reaching a
// capacity of C rows has charged 62 × (2C − 16) B. So 2 MiB holds 16 384
// rows (2 030 624 B) but not 32 768, and spills once at 16 384 rows, then
// the rest: 2 runs. 1 MiB holds 8 192 (1 014 816 B): 8 192 + 8 192 + 5 616,
// 3 runs. 512 KiB holds 4 096 (506 912 B): 6 runs.
//
// A run holds the data columns only (both keys are bare columns), in
// blocks of min(ChunkSize, C/mergeWays) rows; past mergeWays runs, merge
// passes merge mergeWays consecutive runs at a time into one run of such
// blocks. So every step writes exactly what its runs and passes take, 11 B
// a row (a zig-zag txn_id, 8 B of amount) and a header a block: at 2 MiB the
// data rows' own block size, 233 898 B, and more where blocks are smaller
// and passes write rows again. The merge charges the blocks it holds, so
// no step's SORTHEAP peak passes the heap.
func TestSortHeapStepping(t *testing.T) {
	const n = 22_000
	sch := types.Schema{{Name: "txn_id", Kind: types.KindInt}, {Name: "amount", Kind: types.KindFloat}}
	tbl := columnar.NewTable(770, "transactions", sch, columnar.Config{})
	rng := rand.New(rand.NewSource(26))
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i) * 7919 % n), types.NewFloat(float64(rng.Intn(200_000)) / 100)}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	keys := []SortKey{{Expr: ColRef(1), Desc: true}, {Expr: ColRef(0)}}
	in := tableRows(t, tbl)
	want := oracleSort(t, in, keys)
	const dataBytes = 233_898
	if data := blockBytes(t, in, ChunkSize); data != dataBytes {
		t.Fatalf("the data rows take %d B as spill blocks, want %d", data, dataBytes)
	}
	// written is what a step writes: its runs, each the next C input rows,
	// C the largest capacity whose charge 62 × (2C − 16) B fits the heap,
	// then its merge passes.
	written := func(heap int64) (runs, bytes int64) {
		c := 16
		for 62*int64(4*c-16) <= heap {
			c *= 2
		}
		block := min(ChunkSize, c/mergeWays)
		write := func(run []types.Row) []types.Row {
			runs, bytes = runs+1, bytes+blockBytes(t, run, block)
			return run
		}
		var sorted [][]types.Row
		for a := 0; a < len(in); a += c {
			sorted = append(sorted, write(oracleSort(t, in[a:min(a+c, len(in))], keys)))
		}
		for len(sorted) > mergeWays {
			var next [][]types.Row
			for a := 0; a < len(sorted); a += mergeWays {
				if group := sorted[a:min(a+mergeWays, len(sorted))]; len(group) > 1 {
					next = append(next, write(oracleSort(t, slices.Concat(group...), keys)))
				} else {
					next = append(next, group[0])
				}
			}
			sorted = next
		}
		return runs, bytes
	}
	wantRuns := map[int64]int64{2 << 20: 2, 1 << 20: 3, 512 << 10: 6}
	for heap := int64(2 << 20); heap >= 4<<10; heap /= 2 {
		gov, b, dir := tinyGov(t, heap)
		op := &SortOp{Child: scanDop(tbl, 1), Keys: keys, Gov: gov}
		got, err := Drain(op)
		if err != nil {
			t.Fatalf("heap %d: %v", heap, err)
		}
		requireSameOrder(t, fmt.Sprintf("heap %d", heap), got, want)
		runs, bytes := op.SpillStats()
		heaps, _ := b.Stats()
		peak := heaps[mem.SortHeap].PeakBytes
		t.Logf("heap %7d: %4d runs, %7d B spilled (the data rows take %d B), peak %d B", heap, runs, bytes, dataBytes, peak)
		wruns, wbytes := written(heap)
		switch {
		case wantRuns[heap] > 0 && runs != wantRuns[heap]:
			t.Fatalf("heap %d: %d runs, want %d", heap, runs, wantRuns[heap])
		case runs != wruns || bytes != wbytes:
			t.Fatalf("heap %d: %d runs of %d B spilled, its runs and passes are %d of %d B", heap, runs, bytes, wruns, wbytes)
		case heap == 2<<20 && bytes != dataBytes:
			t.Fatalf("heap %d: spilled %d B, the data rows take %d B", heap, bytes, dataBytes)
		case peak > heap:
			t.Fatalf("heap %d: SORTHEAP peak %d B", heap, peak)
		}
		requireNoSpillFiles(t, dir)
	}
}

// TestSortStringsChargeTheHeap sorts VARCHAR + BIGINT rows whose strings turn
// long halfway — 4 096 rows of a few bytes, then 2 048 of 4 KB — under a
// 1 MiB SORTHEAP. The strings are charged before they are copied and a
// denied charge spills, so the heap's peak stays within its budget while
// the 8 MB of strings pass through it, and the rows come back in order.
func TestSortStringsChargeTheHeap(t *testing.T) {
	const heap = 1 << 20
	sch := types.Schema{{Name: "s", Kind: types.KindString}, {Name: "id", Kind: types.KindInt}}
	tbl := columnar.NewTable(771, "skewed", sch, columnar.Config{})
	rows := make([]types.Row, 6144)
	for i := range rows {
		str := fmt.Sprintf("%04d", (i*7919)%len(rows))
		if i >= 4096 {
			str += strings.Repeat("x", 4096)
		}
		rows[i] = types.Row{types.NewString(str), types.NewInt(int64(i))}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	keys := []SortKey{{Expr: ColRef(0)}}
	gov, b, dir := tinyGov(t, heap)
	op := &SortOp{Child: scanDop(tbl, 1), Keys: keys, Gov: gov}
	got, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOrder(t, "skewed strings", got, oracleSort(t, tableRows(t, tbl), keys))
	heaps, _ := b.Stats()
	runs, _ := op.SpillStats()
	if peak := heaps[mem.SortHeap].PeakBytes; peak > heap || runs < 8 {
		t.Fatalf("SORTHEAP peak %d B over a %d B budget, %d runs", peak, heap, runs)
	}
	requireNoSpillFiles(t, dir)
}
