package exec

// Spill-parity property tests: every governed operator must produce
// exactly the same result under a tiny memory budget (forcing external
// sort runs, Grace join partitions, aggregate run files) as it does fully
// in memory. Inputs deliberately include NULLs, NaN floats and −0, '' beside
// NULL, duplicate keys, a column mixing kinds, an all-NULL column,
// BOOLEAN, DATE and TIMESTAMP columns and empty relations — every form a
// spill block takes (lanes, bitmaps, cells), the values most likely to
// break a serialize/replay path.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dashdb/internal/mem"
	"dashdb/internal/page"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// tinyGov builds a governor over a broker with a deliberately tiny budget
// so every operator spills almost immediately. The broker spills into a
// caller-owned t.TempDir() so leak checks can inspect it.
func tinyGov(t *testing.T, budget int64) (*mem.Governor, *mem.Broker, string) {
	t.Helper()
	dir := t.TempDir()
	b := mem.NewBroker(budget, budget, dir)
	t.Cleanup(func() { b.Close() })
	return &mem.Governor{Broker: b}, b, dir
}

// mixedSchema is the property-test row shape: an integer key with NULLs
// and duplicates, a string payload with NULLs and empties, a float payload
// that includes NaN and −0 (bit-exactness through the spill blocks), a
// column whose values mix kinds (a block's cells), a column of typed NULLs
// only, and BOOLEAN, DATE and TIMESTAMP columns with NULLs.
func mixedSchema() types.Schema {
	return types.Schema{
		{Name: "k", Kind: types.KindInt, Nullable: true},
		{Name: "s", Kind: types.KindString, Nullable: true},
		{Name: "f", Kind: types.KindFloat, Nullable: true},
		{Name: "m", Kind: types.KindNull, Nullable: true},
		{Name: "z", Kind: types.KindInt, Nullable: true},
		{Name: "b", Kind: types.KindBool, Nullable: true},
		{Name: "d", Kind: types.KindDate, Nullable: true},
		{Name: "ts", Kind: types.KindTimestamp, Nullable: true},
	}
}

func mixedRows(rng *rand.Rand, n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		k := types.NewInt(int64(rng.Intn(97))) // heavy duplication
		if rng.Intn(11) == 0 {
			k = types.Null
		}
		s := types.NewString(fmt.Sprintf("row-%d-%s", i, strings.Repeat("x", rng.Intn(20))))
		switch rng.Intn(13) {
		case 0:
			s = types.Null
		case 1:
			s = types.NewString("")
		}
		f := types.NewFloat(float64(rng.Intn(1000)) * 0.25)
		switch rng.Intn(17) {
		case 0:
			f = types.NewFloat(math.NaN())
		case 1:
			f = types.Null
		case 2:
			f = types.NewFloat(math.Copysign(0, -1))
		}
		m := [...]types.Value{types.NewInt(int64(rng.Intn(9))), types.NewFloat(float64(rng.Intn(9)) / 2),
			types.NewString(""), types.NewString("m"), types.NewDate(int64(rng.Intn(9))), types.NewBool(true), types.Null}[rng.Intn(7)]
		null := func(v types.Value) types.Value {
			if rng.Intn(9) == 0 {
				return types.Null
			}
			return v
		}
		rows[i] = types.Row{k, s, f, m, types.NullOf(types.KindInt), null(types.NewBool(rng.Intn(2) == 0)),
			null(types.NewDate(int64(rng.Intn(400) - 200))), null(types.NewTimestamp(rng.Int63n(1 << 50)))}
	}
	return rows
}

// rowFingerprint renders a row NaN-safely (reflect.DeepEqual rejects
// NaN==NaN; float bits are preserved through the codec, so compare bits).
func rowFingerprint(r types.Row) string {
	var b strings.Builder
	for _, v := range r {
		if v.IsNull() {
			fmt.Fprintf(&b, "|null:%d", v.Kind())
			continue
		}
		switch v.Kind() {
		case types.KindFloat:
			fmt.Fprintf(&b, "|f:%x", math.Float64bits(v.Float()))
		case types.KindString:
			fmt.Fprintf(&b, "|s:%q", v.Str())
		default:
			fmt.Fprintf(&b, "|%d:%v", v.Kind(), v)
		}
	}
	return b.String()
}

func fingerprints(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowFingerprint(r)
	}
	return out
}

func sortedFingerprints(rows []types.Row) []string {
	out := fingerprints(rows)
	sort.Strings(out)
	return out
}

// blockBytes is what rows take as a spill writes them: blocks of at most
// block rows (vec.AppendBlock), each behind its uvarint length.
func blockBytes(t testing.TB, rows []types.Row, block int) (n int64) {
	t.Helper()
	for a := 0; a < len(rows); a += block {
		b, err := vec.AppendBlock(nil, vec.FromRows(nil, rows[a:min(a+block, len(rows))]))
		if err != nil {
			t.Fatal(err)
		}
		n += int64(len(b) + len(binary.AppendUvarint(nil, uint64(len(b)))))
	}
	return n
}

// requireNoSpillFiles asserts the broker's temp dir holds no *.spill
// files (every operator closed its runs).
func requireNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+mem.SpillSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("leaked spill files: %v", matches)
	}
}

// TestExternalSortMatchesInMemory is the sort parity property: the
// external merge sort must emit the exact sequence (including stability
// among duplicate keys) of the in-memory sort.
func TestExternalSortMatchesInMemory(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1000 + rng.Intn(4000)
		if seed == 4 {
			n = 0 // empty input under a governor must still work
		}
		rows := mixedRows(rng, n)
		// The duplicate-heavy NULL-bearing int column, then the float column
		// descending: types.Compare orders NaN above every number and equal
		// to itself (TestNaNSortsHigh), so a NaN key is as total as any
		// other. NaN rides through a block's lane the merge compares, which
		// is the bit-exactness property under test. Then the mixed-kind
		// column, which the merge orders through types.Compare, and the date.
		keys := []SortKey{{Expr: ColRef(0)}, {Expr: ColRef(2), Desc: true}, {Expr: ColRef(3)}, {Expr: ColRef(6), Desc: true}}

		want, err := Drain(&SortOp{Child: NewValues(mixedSchema(), rows), Keys: keys})
		if err != nil {
			t.Fatal(err)
		}

		gov, _, dir := tinyGov(t, 16<<10)
		sp := &SortOp{Child: NewValues(mixedSchema(), rows), Keys: keys, Gov: gov}
		got, err := Drain(sp)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		runs, bytes := sp.SpillStats()
		if n > 0 && (runs == 0 || bytes == 0) {
			t.Fatalf("seed %d: expected forced spill, got runs=%d bytes=%d", seed, runs, bytes)
		}
		if !reflect.DeepEqual(fingerprints(got), fingerprints(want)) {
			t.Fatalf("seed %d: external sort diverged (%d vs %d rows)", seed, len(got), len(want))
		}
		requireNoSpillFiles(t, dir)
	}
}

// TestGraceJoinMatchesInMemory is the join parity property, for both
// INNER and LEFT joins: the join whose build spilled and the join that
// stayed in memory (nil governor) must both produce the nested-loop
// oracle's multiset of output rows, including never matching NULL keys and
// padding unmatched left rows.
func TestGraceJoinMatchesInMemory(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, jt := range []JoinType{InnerJoin, LeftJoin} {
			rng := rand.New(rand.NewSource(seed))
			left := mixedRows(rng, 1200+rng.Intn(800))
			right := mixedRows(rng, 900+rng.Intn(800))
			if seed == 3 {
				right = nil // empty build side
			}

			mk := func(gov *mem.Governor) *HashJoinOp {
				return &HashJoinOp{
					Left:      NewValues(mixedSchema(), left),
					Right:     NewValues(mixedSchema(), right),
					LeftKeys:  []int{0},
					RightKeys: []int{0},
					Type:      jt,
					Gov:       gov,
				}
			}
			want := nestedLoopJoin(left, right, []int{0}, []int{0}, jt, mixedSchema(), nil)
			inMem, err := Drain(mk(nil))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sortedFingerprints(inMem), sortedFingerprints(want)) {
				t.Fatalf("seed %d type %d: in-memory join diverged (%d vs %d rows)", seed, jt, len(inMem), len(want))
			}

			gov, _, dir := tinyGov(t, 16<<10)
			jo := mk(gov)
			got, err := Drain(jo)
			if err != nil {
				t.Fatalf("seed %d type %d: %v", seed, jt, err)
			}
			if len(right) > 0 {
				if runs, bytes := jo.SpillStats(); runs == 0 || bytes == 0 {
					t.Fatalf("seed %d type %d: expected forced spill, got runs=%d bytes=%d", seed, jt, runs, bytes)
				}
			}
			// Join output order is not part of the contract; compare multisets.
			if !reflect.DeepEqual(sortedFingerprints(got), sortedFingerprints(want)) {
				t.Fatalf("seed %d type %d: grace join diverged (%d vs %d rows)", seed, jt, len(got), len(want))
			}
			requireNoSpillFiles(t, dir)
		}
	}
}

// TestGroupBySpillMatchesInMemory is the serial aggregation parity
// property, including MEDIAN and PERCENTILE_CONT (whose spilled state
// carries every input value, the worst case for the group state) and
// COUNT(DISTINCT) over the float with NaN and both zeros and over the
// mixed-kind column, whose MIN and MAX spill as a block's cells. The rows
// group on the integer k from VALUES, and, scanned from a table as codes,
// on the dictionary-coded string and integer of dictRows.
func TestGroupBySpillMatchesInMemory(t *testing.T) {
	specs := []AggSpec{
		{Func: AggCountStar, Name: "CNT"},
		{Func: AggSum, Arg: ColRef(2), Name: "SUM_F"},
		{Func: AggMin, Arg: ColRef(1), Name: "MIN_S"},
		{Func: AggMax, Arg: ColRef(1), Name: "MAX_S"},
		{Func: AggCountDistinct, Arg: ColRef(1), Name: "CD_S"},
		{Func: AggMedian, Arg: ColRef(2), Name: "MED_F"},
		{Func: AggPercentileCont, Arg: ColRef(2), Param: 0.3, Name: "P30_F"},
		{Func: AggCountDistinct, Arg: ColRef(2), Name: "CD_F"},
		{Func: AggMin, Arg: ColRef(3), Name: "MIN_M"},
		{Func: AggMax, Arg: ColRef(3), Name: "MAX_M"},
		{Func: AggCountDistinct, Arg: ColRef(3), Name: "CD_M"},
		{Func: AggCount, Arg: ColRef(4), Name: "CNT_Z"},
		{Func: AggSum, Arg: ColRef(4), Name: "SUM_Z"},
		{Func: AggMax, Arg: ColRef(5), Name: "MAX_B"},
		{Func: AggMin, Arg: ColRef(6), Name: "MIN_D"},
		{Func: AggMax, Arg: ColRef(7), Name: "MAX_TS"},
	}
	dictAggs := []AggSpec{
		{Func: AggCountStar, Name: "CNT"},
		{Func: AggMedian, Arg: ColRef(2), Name: "MED_F"},
		{Func: AggPercentileCont, Arg: ColRef(2), Param: 0.7, Name: "P70_F"},
		{Func: AggCountDistinct, Arg: ColRef(2), Name: "CD_F"},
		{Func: AggMax, Arg: ColRef(3), Name: "MAX_ID"},
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2000 + rng.Intn(2000)
		if seed == 3 {
			n = 0
		}
		rows := mixedRows(rng, n)
		tbl := dictTable(t, uint32(560+seed), dictRows(rng, 3*n, true))

		for _, in := range []struct {
			name  string
			child func() Operator
			keys  []Expr
			cols  types.Schema
			aggs  []AggSpec
		}{
			{"values", func() Operator { return NewValues(mixedSchema(), rows) }, []Expr{ColRef(0)}, mixedSchema()[:1], specs},
			{"codes", func() Operator { return scanCodes(tbl, 1) }, []Expr{ColRef(0), ColRef(1)}, dictSchema()[:2], dictAggs},
		} {
			mk := func(gov *mem.Governor) *GroupByOp {
				return &GroupByOp{Child: in.child(), GroupBy: in.keys, GroupCols: in.cols, Aggs: in.aggs, Gov: gov}
			}
			want, err := Drain(mk(nil))
			if err != nil {
				t.Fatal(err)
			}

			gov, _, dir := tinyGov(t, 8<<10)
			ag := mk(gov)
			got, err := Drain(ag)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, in.name, err)
			}
			if n > 0 {
				if runs, bytes := ag.SpillStats(); runs == 0 || bytes == 0 {
					t.Fatalf("seed %d %s: expected forced spill, got runs=%d bytes=%d", seed, in.name, runs, bytes)
				}
				if in.name == "codes" && ag.CodeKeyCount() != 2 {
					t.Fatalf("seed %d: %d code keys", seed, ag.CodeKeyCount())
				}
			}
			if !reflect.DeepEqual(sortedFingerprints(got), sortedFingerprints(want)) {
				t.Fatalf("seed %d %s: spilled GROUP BY diverged (%d vs %d groups)", seed, in.name, len(got), len(want))
			}
			requireNoSpillFiles(t, dir)
		}
	}
}

// TestParallelGroupBySpillMatchesSerial forces ingest to spill at dop 1, 2
// and 8 and checks it still matches the sort-based oracle exactly.
func TestParallelGroupBySpillMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := buildAggTable(t, rng, 3*page.StrideSize+500)
	groupBy := []Expr{ColRef(0)}
	groupCols := types.Schema{{Name: "g", Kind: types.KindInt, Nullable: true}}

	want := oracleGroupBy(t, tableRows(t, tbl), groupBy, aggSpecs())

	for _, dop := range []int{1, 2, 8} {
		gov, _, dir := tinyGov(t, 4<<10)
		par := atDop(&GroupByOp{
			Child:     NewScan(tbl, nil, nil),
			GroupBy:   groupBy,
			GroupCols: groupCols,
			Aggs:      aggSpecs(),
			Gov:       gov,
		}, dop)
		got, err := Drain(par)
		if err != nil {
			t.Fatalf("dop %d: %v", dop, err)
		}
		if runs, bytes := par.SpillStats(); runs == 0 || bytes == 0 {
			t.Fatalf("dop %d: expected forced spill, got runs=%d bytes=%d", dop, runs, bytes)
		}
		requireExactRows(t, fmt.Sprintf("spilled parallel GROUP BY, dop %d", dop), got, want)
		requireNoSpillFiles(t, dir)
	}
}

// TestSpillTempDirLifecycle checks the broker end of the temp-file
// contract: a caller-owned spill dir is swept of leftovers at first use
// and left empty (but present) after Close.
func TestSpillTempDirLifecycle(t *testing.T) {
	dir := t.TempDir()
	// Simulate a crashed predecessor.
	stale := filepath.Join(dir, "dashdb-sort-crashed"+mem.SpillSuffix)
	if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	b := mem.NewBroker(8<<10, 8<<10, dir)
	gov := &mem.Governor{Broker: b}

	rows := mixedRows(rand.New(rand.NewSource(11)), 3000)
	sp := &SortOp{Child: NewValues(mixedSchema(), rows), Keys: []SortKey{{Expr: ColRef(0)}}, Gov: gov}
	if _, err := Drain(sp); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale spill file survived the startup sweep: %v", err)
	}
	requireNoSpillFiles(t, dir)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("caller-owned temp dir must survive broker Close: %v", err)
	}
	requireNoSpillFiles(t, dir)
}
