package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/mem"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// nestedLoopJoin is the join oracle: a plain nested loop over materialized
// rows with SQL key equality (a NULL key never matches), keeping a joined
// row when residual, if any, holds for it. It shares no hashing,
// partitioning, spill, dictionary or expression code with HashJoinOp.
func nestedLoopJoin(left, right []types.Row, lk, rk []int, jt JoinType, rightSch types.Schema, residual func(types.Row) bool) []types.Row {
	var out []types.Row
	for _, l := range left {
		matched := false
		for _, r := range right {
			eq := true
			for k := range lk {
				a, b := l[lk[k]], r[rk[k]]
				if a.IsNull() || b.IsNull() || types.Compare(a, b) != 0 {
					eq = false
					break
				}
			}
			if !eq {
				continue
			}
			if row := append(append(types.Row{}, l...), r...); residual == nil || residual(row) {
				matched = true
				out = append(out, row)
			}
		}
		if !matched && jt == LeftJoin {
			row := append(types.Row{}, l...)
			for _, c := range rightSch {
				row = append(row, types.NullOf(c.Kind))
			}
			out = append(out, row)
		}
	}
	return out
}

func sortedRowKeys(rows []types.Row) []string {
	keys := rowsKeys(rows)
	sort.Strings(keys)
	return keys
}

// joinSchema is the input-invariance row shape: a low-cardinality string
// the scan delivers dictionary-encoded, a plain INT key with duplicates, a
// unique payload, a DOUBLE holding NaN, +0, -0, integral and fractional
// values, and a DATE.
func joinSchema() types.Schema {
	return types.Schema{
		{Name: "g", Kind: types.KindString, Nullable: true},
		{Name: "k", Kind: types.KindInt, Nullable: true},
		{Name: "id", Kind: types.KindInt},
		{Name: "f", Kind: types.KindFloat, Nullable: true},
		{Name: "d", Kind: types.KindDate, Nullable: true},
	}
}

// joinRows draws n rows with ~10% NULLs in each key column, g from
// gDomain distinct strings, k from 50 integers, f from those integers as
// DOUBLEs, their halves past them, NaN and both zeros, and d from 30 days,
// so every key repeats heavily on either side of a join and an INT k meets
// the DOUBLE f it equals.
func joinRows(rng *rand.Rand, n, gDomain int) []types.Row {
	null := func(v types.Value) types.Value {
		if rng.Intn(10) == 0 {
			return types.Null
		}
		return v
	}
	rows := make([]types.Row, n)
	for i := range rows {
		f := float64(rng.Intn(50))
		switch rng.Intn(5) {
		case 0:
			f += 0.5
		case 1:
			f = math.NaN()
		case 2:
			f = math.Copysign(0, -float64(rng.Intn(2)))
		}
		rows[i] = types.Row{
			null(types.NewString(fmt.Sprintf("r%02d", rng.Intn(gDomain)))),
			null(types.NewInt(int64(rng.Intn(50)))),
			types.NewInt(int64(i)),
			null(types.NewFloat(f)),
			null(types.NewDate(int64(rng.Intn(30)))),
		}
	}
	return rows
}

func joinTable(t testing.TB, id uint32, rows []types.Row) *columnar.Table {
	t.Helper()
	tbl := columnar.NewTable(id, fmt.Sprintf("jt%d", id), joinSchema(), columnar.Config{})
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) > 0 && (tbl.ColumnDict(0) == nil || tbl.ColumnDict(1) != nil) {
		t.Fatalf("want g dictionary-encoded and k plain, got g=%s k=%s", tbl.ColumnEncoding(0), tbl.ColumnEncoding(1))
	}
	return tbl
}

// thetaResidual is (l.id + r.id) % 7 = 0 over two joinSchema rows side by
// side, and thetaHolds its oracle.
var thetaResidual = &CmpExpr{Op: encoding.OpEQ,
	L: &ArithExpr{Op: "%", L: &ArithExpr{Op: "+", L: ColRef(2), R: ColRef(7)}, R: Const{V: types.NewInt(7)}},
	R: Const{V: types.NewInt(0)}}

func thetaHolds(r types.Row) bool { return (r[2].Int()+r[7].Int())%7 == 0 }

// TestHashJoinInputInvariance is the one-join property: whatever form the
// children's batches take (row-built or column vectors, on either side), whatever
// the key (plain INT, dictionary string, both, none), with or without a
// residual, and whether or not the build fits the hash heap, HashJoinOp
// returns the nested-loop oracle's multiset. The data carries NULL keys,
// duplicate keys on both sides and probe strings absent from the build
// dictionary; empty inputs ride along. A keyless build is one partition, so
// at 16 KB it spills whole.
func TestHashJoinInputInvariance(t *testing.T) {
	type side struct {
		rows []types.Row
		tbl  *columnar.Table
	}
	// child builds one join input as row-built batches (VALUES) or as a
	// scan's column vectors, dictionary keys as codes.
	child := func(s side, vector bool) Operator {
		if vector {
			return scanCodes(s.tbl, 1)
		}
		return NewValues(joinSchema(), s.rows)
	}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mk := func(id uint32, n, gDomain int) side {
			tbl := joinTable(t, id, joinRows(rng, n, gDomain))
			return side{rows: tableRows(t, tbl), tbl: tbl}
		}
		build := mk(uint32(600+10*seed), 300+rng.Intn(60), 40)
		probe := mk(uint32(601+10*seed), 420+rng.Intn(60), 50) // r40..r49 are not in the build dictionary
		empty := mk(uint32(602+10*seed), 0, 1)
		few := mk(uint32(603+10*seed), 40+rng.Intn(20), 50)
		// l.f < r.f reads both sides and meets NaN, which sorts high.
		fLess := &CmpExpr{Op: encoding.OpLT, L: ColRef(3), R: ColRef(8)}
		fHolds := func(r types.Row) bool {
			return !r[3].IsNull() && !r[8].IsNull() && types.Compare(r[3], r[8]) < 0
		}
		for _, shape := range []struct {
			name         string
			probe, build side
			pkeys, bkeys []int
			residual     Expr
			holds        func(types.Row) bool
		}{
			{"int-key", probe, build, []int{1}, []int{1}, nil, nil},
			{"dict-string-key", probe, build, []int{0}, []int{0}, nil, nil},
			{"two-column-key", probe, build, []int{0, 1}, []int{0, 1}, nil, nil},
			{"double-key", probe, build, []int{3}, []int{3}, nil, nil},
			{"int-probe-double-build", probe, build, []int{1}, []int{3}, nil, nil},
			{"double-probe-int-build", probe, build, []int{3}, []int{1}, nil, nil},
			{"date-key", probe, build, []int{4}, []int{4}, nil, nil},
			{"empty-build", probe, empty, []int{0, 1}, []int{0, 1}, nil, nil},
			{"empty-probe", empty, build, []int{0}, []int{0}, nil, nil},
			{"cross", few, build, nil, nil, nil, nil},
			{"theta", few, build, nil, nil, thetaResidual, thetaHolds},
			{"int-key+residual", probe, build, []int{1}, []int{1}, fLess, fHolds},
		} {
			// A vector build adopts codes for the key positions its scan
			// delivers dictionary-encoded.
			codeKeys := 0
			for _, c := range shape.bkeys {
				if shape.build.tbl.ColumnDict(c) != nil {
					codeKeys++
				}
			}
			for _, jt := range []JoinType{InnerJoin, LeftJoin} {
				want := sortedRowKeys(nestedLoopJoin(shape.probe.rows, shape.build.rows, shape.pkeys, shape.bkeys, jt, joinSchema(), shape.holds))
				for _, form := range []struct {
					name               string
					vecProbe, vecBuild bool
				}{
					{"row⋈row", false, false},
					{"vec⋈vec", true, true},
					{"vec probe/row build", true, false},
					{"row probe/vec build", false, true},
				} {
					for _, heap := range []int64{0, 16 << 10} {
						ctx := fmt.Sprintf("seed=%d %s %v %s heap=%d", seed, shape.name, jt, form.name, heap)
						var gov *mem.Governor
						dir := ""
						if heap > 0 {
							gov, _, dir = tinyGov(t, heap)
						}
						j := &HashJoinOp{
							Left:     child(shape.probe, form.vecProbe),
							Right:    child(shape.build, form.vecBuild),
							LeftKeys: shape.pkeys, RightKeys: shape.bkeys, Residual: shape.residual,
							Type: jt, Gov: gov,
						}
						requireEqualKeys(t, ctx, want, sortedKeys(t, j))
						runs, _ := j.SpillStats()
						if spilled := heap > 0 && len(shape.build.rows) > 0; (runs > 0) != spilled {
							t.Fatalf("%s: spill runs = %d, want spilled=%v", ctx, runs, spilled)
						}
						wantCodes := 0
						if form.vecBuild && len(shape.build.rows) > 0 {
							wantCodes = codeKeys
						}
						if j.CodeKeyCount() != wantCodes {
							t.Fatalf("%s: code keys = %d, want %d", ctx, j.CodeKeyCount(), wantCodes)
						}
						if dir != "" {
							requireNoSpillFiles(t, dir)
						}
					}
				}
			}
		}
	}
}

// TestHashJoinReopen drains the same operator twice: Open resets every
// piece of per-execution state (the pair cursor, adopted code keys, spill
// queue), so the second execution returns the first one's rows — in memory
// and spilled, over row and vector children, keyed and keyless — and so does
// one after an early Close (a LIMIT above it) that left most of a probe
// batch's pairs unread.
func TestHashJoinReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	build := joinTable(t, 650, joinRows(rng, 300, 40))
	probe := joinTable(t, 651, joinRows(rng, 400, 50))
	for _, keyed := range []bool{true, false} {
		for _, vector := range []bool{false, true} {
			for _, heap := range []int64{0, 16 << 10} {
				var gov *mem.Governor
				if heap > 0 {
					gov, _, _ = tinyGov(t, heap)
				}
				var left, right Operator = NewValues(joinSchema(), tableRows(t, probe)), NewValues(joinSchema(), tableRows(t, build))
				if vector {
					left, right = scanCodes(probe, 1), scanCodes(build, 1)
				}
				j := &HashJoinOp{Left: left, Right: right, Residual: thetaResidual, Type: LeftJoin, Gov: gov}
				if keyed {
					j.LeftKeys, j.RightKeys, j.Residual = []int{0}, []int{0}, nil
				}
				ctx := fmt.Sprintf("reopen keyed=%v vector=%v heap=%d", keyed, vector, heap)
				first := sortedKeys(t, j)
				if len(first) <= ChunkSize {
					t.Fatalf("%s: %d rows, want more than a chunk", ctx, len(first))
				}
				requireEqualKeys(t, ctx, first, sortedKeys(t, j))
				if err := j.Open(); err != nil {
					t.Fatal(err)
				}
				if vb, err := j.Next(); err != nil || vb == nil {
					t.Fatalf("%s: first batch: %v %v", ctx, vb, err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				requireEqualKeys(t, ctx+" after an early Close", first, sortedKeys(t, j))
			}
		}
	}
}

// TestHashJoinPairsBounded: 1 024 probe rows and 4 000 build rows on one
// key are 4 096 000 pairs, which the cursor hands out ChunkSize at a time —
// the first Next holds no more than one chunk of them.
func TestHashJoinPairsBounded(t *testing.T) {
	var l, r [][]int64
	for range 1024 {
		l = append(l, []int64{1})
	}
	for range 4000 {
		r = append(r, []int64{1})
	}
	j := &HashJoinOp{Left: NewValues(intSchema("k"), intRows(l...)), Right: NewValues(intSchema("k"), intRows(r...)),
		LeftKeys: []int{0}, RightKeys: []int{0}}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	vb, err := j.Next()
	if err != nil || vb == nil || vb.Rows() != ChunkSize {
		t.Fatalf("first batch: %v %v", vb, err)
	}
	if cap(j.lpos) > ChunkSize || cap(j.rrow) > ChunkSize {
		t.Fatalf("pair buffers hold %d and %d pairs, want at most %d", cap(j.lpos), cap(j.rrow), ChunkSize)
	}
	n := vb.Rows()
	for {
		vb, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if vb == nil {
			break
		}
		n += vb.Rows()
	}
	if n != 4_096_000 {
		t.Fatalf("%d rows, want 4 096 000", n)
	}
}

// joinFileCount notes how many spill files a hash join wrote: the build
// files are known once Open returns, the probe files once the last batch is
// out, and both stay listed until Close.
type joinFileCount struct {
	*HashJoinOp
	files int
}

func (c *joinFileCount) Next() (*vec.Batch, error) {
	vb, err := c.HashJoinOp.Next()
	if vb == nil && err == nil {
		for _, p := range c.parts {
			c.files += btoi(p.probe != nil)
		}
	}
	return vb, err
}

func (c *joinFileCount) Open() error {
	err := c.HashJoinOp.Open()
	c.files = 0
	for _, p := range c.parts {
		c.files += btoi(p.build != nil)
	}
	return err
}

// TestHashJoinHeapStepping lowers HASHHEAP from 1 MiB to 4 KB in halving
// steps under a LEFT JOIN of 150 000 probe rows with a 4 000-row build of
// 3 500 keys — 500 of them twice, and 500 probe keys missing: every step
// returns the oracle's rows, a spill writes at most one build and one probe
// file a partition, and no step spills more bytes than both inputs encode
// to, since a row is written at most once. The per-step times are logged.
func TestHashJoinHeapStepping(t *testing.T) {
	probeTbl, _ := accountsTable(t, 732, 150_000, 4000)
	buildSch := types.Schema{
		{Name: "bid", Kind: types.KindInt},
		{Name: "account_id", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString},
	}
	buildTbl := columnar.NewTable(733, "accounts", buildSch, columnar.Config{})
	build := make([]types.Row, 4000)
	for i := range build {
		build[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 3500)), types.NewString(fmt.Sprintf("acct-%04d", i%3500))}
	}
	if err := buildTbl.InsertBatch(build); err != nil {
		t.Fatal(err)
	}
	probe := tableRows(t, probeTbl)

	// The oracle: each probe row's txn_id beside the bid of every build row
	// with its key, or -1, as one sorted number a pair.
	var input countingWriter
	rw := encoding.NewRowWriter(&input)
	byKey := map[int64][]int64{}
	for _, r := range build {
		byKey[r[1].Int()] = append(byKey[r[1].Int()], r[0].Int())
		if _, err := rw.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	byTxn := map[int64]types.Row{}
	var want []int64
	for _, r := range probe {
		if _, err := rw.WriteRow(r); err != nil {
			t.Fatal(err)
		}
		byTxn[r[0].Int()] = r
		bids := byKey[r[1].Int()]
		if len(bids) == 0 {
			bids = []int64{-1}
		}
		for _, b := range bids {
			want = append(want, r[0].Int()<<13|(b+1))
		}
	}
	slices.Sort(want)

	spilled := false
	for heap := int64(1 << 20); heap >= 4<<10; heap /= 2 {
		gov, _, dir := tinyGov(t, heap)
		j := &joinFileCount{HashJoinOp: &HashJoinOp{
			Left: scanCodes(probeTbl, 1), Right: scanCodes(buildTbl, 1),
			LeftKeys: []int{1}, RightKeys: []int{1}, Type: LeftJoin, Gov: gov,
		}}
		start := time.Now()
		if err := j.Open(); err != nil {
			t.Fatalf("heap %d: %v", heap, err)
		}
		var got []int64
		for {
			vb, err := j.Next()
			if err != nil {
				t.Fatalf("heap %d: %v", heap, err)
			}
			if vb == nil {
				break
			}
			for _, i := range vb.Idx() {
				row := vb.Row(i)
				p, bid := byTxn[row[0].Int()], int64(-1)
				if !row[4].IsNull() {
					bid = row[4].Int()
				}
				b := types.Row{types.Null, types.Null, types.Null}
				if bid >= 0 {
					b = build[bid]
				}
				for c, v := range append(append(types.Row{}, p...), b...) {
					if v.IsNull() != row[c].IsNull() || !v.IsNull() && types.Compare(v, row[c]) != 0 {
						t.Fatalf("heap %d: row %v, want %v ++ %v", heap, row, p, b)
					}
				}
				got = append(got, row[0].Int()<<13|(bid+1))
			}
		}
		elapsed := time.Since(start)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("heap %d: %d output pairs differ from the oracle's %d", heap, len(got), len(want))
		}
		runs, bytes := j.SpillStats()
		t.Logf("heap %7d: %v, %4d runs in %3d files, %8d B spilled (input %d B)", heap, elapsed.Round(time.Millisecond), runs, j.files, bytes, input.n)
		if j.files > 2*aggPartitions || (runs > 0) != (j.files > 0) {
			t.Fatalf("heap %d: %d spill files for %d runs", heap, j.files, runs)
		}
		if bytes > input.n {
			t.Fatalf("heap %d: spilled %d B, the inputs encode to %d B", heap, bytes, input.n)
		}
		spilled = spilled || runs > 0
		requireNoSpillFiles(t, dir)
	}
	if !spilled {
		t.Fatal("no step spilled")
	}
}
