package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/mem"
	"dashdb/internal/types"
)

// nestedLoopJoin is the join oracle: a plain nested loop over materialized
// rows with SQL key equality (a NULL key never matches). It shares no
// hashing, partitioning, spill or dictionary code with HashJoinOp.
func nestedLoopJoin(left, right []types.Row, lk, rk []int, jt JoinType, rightSch types.Schema) []types.Row {
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
			if eq {
				matched = true
				out = append(out, append(append(types.Row{}, l...), r...))
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
// the scan delivers dictionary-encoded, a plain INT key with duplicates,
// and a unique payload.
func joinSchema() types.Schema {
	return types.Schema{
		{Name: "g", Kind: types.KindString, Nullable: true},
		{Name: "k", Kind: types.KindInt, Nullable: true},
		{Name: "id", Kind: types.KindInt},
	}
}

// joinRows draws n rows with ~10% NULLs in each key column, g from
// gDomain distinct strings and k from 50 integers, so both keys repeat
// heavily on either side of a join.
func joinRows(rng *rand.Rand, n, gDomain int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		g := types.NewString(fmt.Sprintf("r%02d", rng.Intn(gDomain)))
		if rng.Intn(10) == 0 {
			g = types.Null
		}
		k := types.NewInt(int64(rng.Intn(50)))
		if rng.Intn(10) == 0 {
			k = types.Null
		}
		rows[i] = types.Row{g, k, types.NewInt(int64(i))}
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

// TestHashJoinInputInvariance is the one-join property: whatever form the
// children's batches take (row-built or column vectors, on either side), whatever
// the key (plain INT, dictionary string, both), and whether or not the
// build fits the hash heap, HashJoinOp returns the nested-loop oracle's
// multiset. The data carries NULL keys, duplicate keys on both sides and
// probe strings absent from the build dictionary; empty inputs ride along.
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
		for _, shape := range []struct {
			name         string
			probe, build side
			keys         []int
			codeKeys     int // key positions a vector build adopts codes for
		}{
			{"int-key", probe, build, []int{1}, 0},
			{"dict-string-key", probe, build, []int{0}, 1},
			{"two-column-key", probe, build, []int{0, 1}, 1},
			{"empty-build", probe, empty, []int{0, 1}, 0},
			{"empty-probe", empty, build, []int{0}, 1},
		} {
			for _, jt := range []JoinType{InnerJoin, LeftJoin} {
				want := sortedRowKeys(nestedLoopJoin(shape.probe.rows, shape.build.rows, shape.keys, shape.keys, jt, joinSchema()))
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
							LeftKeys: shape.keys, RightKeys: shape.keys,
							Type: jt, Gov: gov,
						}
						requireEqualKeys(t, ctx, want, sortedKeys(t, j))
						runs, _ := j.SpillStats()
						if spilled := heap > 0 && len(shape.build.rows) > 0; (runs > 0) != spilled {
							t.Fatalf("%s: spill runs = %d, want spilled=%v", ctx, runs, spilled)
						}
						wantCodes := 0
						if form.vecBuild && len(shape.build.rows) > 0 {
							wantCodes = shape.codeKeys
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
// piece of per-execution state (probe progress, adopted code keys, spill
// queue), so the second execution returns the first one's rows — in
// memory and spilled, over row and vector children.
func TestHashJoinReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	build := joinTable(t, 650, joinRows(rng, 300, 40))
	probe := joinTable(t, 651, joinRows(rng, 400, 50))
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
			j := &HashJoinOp{Left: left, Right: right, LeftKeys: []int{0}, RightKeys: []int{0}, Type: LeftJoin, Gov: gov}
			first := sortedKeys(t, j)
			if len(first) == 0 {
				t.Fatal("join returned no rows")
			}
			requireEqualKeys(t, fmt.Sprintf("reopen vector=%v heap=%d", vector, heap), first, sortedKeys(t, j))
		}
	}
}
