package columnar

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/types"
)

// TestFrameOfReferenceExtend: a value far above an analyzed frame grows
// the frame upward in place. Nothing is rebuilt: the page generation and
// the sealed stride's synopsis entry stay, the new epoch gets a new
// encoder, and an epoch pinned before the extension keeps its own.
func TestFrameOfReferenceExtend(t *testing.T) {
	tbl := NewTable(3, "r", types.Schema{{Name: "v", Kind: types.KindInt}}, Config{})
	var rows []types.Row
	for i := 0; i < 2000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i % 50))})
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	before := tbl.Snapshot()
	defer before.Release()
	if err := tbl.Insert(types.Row{types.NewInt(1_000_000)}); err != nil {
		t.Fatal(err)
	}
	if n := tbl.Stats().Rebuilds; n != 0 {
		t.Fatalf("an upward outlier rebuilt the column %d times", n)
	}
	after := tbl.Snapshot()
	defer after.Release()
	old, cur := before.state().cols[0], after.state().cols[0]
	if cur.gen != old.gen || cur.syn[0] != old.syn[0] {
		t.Fatalf("extension rewrote sealed state: gen %d→%d, entry %+v→%+v", old.gen, cur.gen, old.syn[0], cur.syn[0])
	}
	if cur.enc == old.enc {
		t.Fatal("the extension changed the pinned epoch's encoder instead of publishing a new one")
	}
	for _, c := range []struct {
		snap *Snapshot
		val  int64
		want int
	}{
		{after, 1_000_000, 1},
		{after, 7, 40}, // sealed stride 0 and the open stride decode unchanged
		{before, 1_000_000, 0},
		{before, 7, 40},
	} {
		n, err := c.snap.CountWhere([]Pred{{Col: 0, Op: encoding.OpEQ, Val: types.NewInt(c.val)}})
		if err != nil || n != c.want {
			t.Fatalf("epoch %d: v = %d matches %d (err %v), want %d", c.snap.Epoch(), c.val, n, err, c.want)
		}
	}
	if n, _ := before.CountWhere(nil); n != 2000 {
		t.Fatalf("pinned epoch counts %d rows, want 2000", n)
	}
}

// TestFrameOfReferenceRebuild: values below an INT frame's base and a
// DOUBLE at a finer scale than its frame's cannot be taken by extension.
// Each column is rebuilt exactly once per flush, however many of the
// flush's values lie outside, and every value reads back.
func TestFrameOfReferenceRebuild(t *testing.T) {
	schema := types.Schema{{Name: "i", Kind: types.KindInt}, {Name: "d", Kind: types.KindFloat}}
	tbl := NewTable(4, "r", schema, Config{})
	var load []types.Row
	for k := 0; k < 2000; k++ {
		load = append(load, types.Row{types.NewInt(int64(1000 + k%50)), types.NewFloat(float64(k % 50))})
	}
	if err := tbl.InsertBatch(load); err != nil {
		t.Fatal(err)
	}
	pinned := tbl.Snapshot()
	defer pinned.Release()
	for flush, scale := range []float64{100, 10000} {
		var rows []types.Row
		for k := 1; k <= 3000; k++ {
			rows = append(rows, types.Row{types.NewInt(int64(-k - 3000*flush)), types.NewFloat(float64(k) / scale)})
		}
		if _, err := tbl.BulkAppend(rows); err != nil {
			t.Fatal(err)
		}
		if n, want := tbl.Stats().Rebuilds, uint64(2*(flush+1)); n != want {
			t.Fatalf("after flush %d: %d rebuilds, want %d (one per column per flush)", flush, n, want)
		}
		st := tbl.epochs.Current().State()
		if _, ok := st.cols[0].enc.(*encoding.IntFOR); !ok {
			t.Fatalf("i rebuilt as %T, want a wider frame", st.cols[0].enc)
		}
		if _, ok := st.cols[1].enc.(*encoding.FloatFOR); !ok {
			t.Fatalf("d rebuilt as %T, want a finer-scaled frame", st.cols[1].enc)
		}
	}
	for _, c := range []struct {
		p    Pred
		want int
	}{
		{Pred{Col: 0, Op: encoding.OpLT, Val: types.NewInt(0)}, 6000},
		{Pred{Col: 0, Op: encoding.OpEQ, Val: types.NewInt(1007)}, 40},
		{Pred{Col: 1, Op: encoding.OpEQ, Val: types.NewFloat(7)}, 40 + 1},         // k = 700 of the first flush
		{Pred{Col: 1, Op: encoding.OpEQ, Val: types.NewFloat(0.07)}, 1 + 1},       // k = 7, then k = 700
		{Pred{Col: 1, Op: encoding.OpEQ, Val: types.NewFloat(0.0007)}, 0 + 1},     // k = 7 of the second
		{Pred{Col: 1, Op: encoding.OpLT, Val: types.NewFloat(1)}, 40 + 99 + 3000}, // zeros, k < 100, all
	} {
		if n, err := tbl.CountWhere([]Pred{c.p}); err != nil || n != c.want {
			t.Errorf("%v: %d rows (err %v), want %d", c.p, n, err, c.want)
		}
	}
	// The epoch pinned before the rebuilds still reads its own generation.
	if n, err := pinned.CountWhere([]Pred{{Col: 1, Op: encoding.OpEQ, Val: types.NewFloat(7)}}); err != nil || n != 40 {
		t.Fatalf("pinned epoch: %d rows (err %v), want 40", n, err)
	}
}

// loadRow is row r of TestLoadOrderProperty's ascending order: an id, an integer
// rising from below zero, a fixed-point amount, a date and a string, each
// NULL on its own period.
func loadRow(r int) types.Row {
	row := types.Row{
		types.NewInt(int64(r)),
		types.NewInt(int64(3*r - 5000)),
		types.NewFloat(float64(r) + 0.25),
		types.NewDate(int64(16000 + r/10)),
		types.NewString(fmt.Sprintf("s%02d", r%37)),
	}
	for ci, period := range []int{0, 13, 11, 17, 19} {
		if period > 0 && r%period == period/2 {
			row[ci] = types.NullOf(row[ci].Kind())
		}
	}
	return row
}

func loadSchema() types.Schema {
	return types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "k", Kind: types.KindInt, Nullable: true},
		{Name: "d", Kind: types.KindFloat, Nullable: true},
		{Name: "day", Kind: types.KindDate, Nullable: true},
		{Name: "s", Kind: types.KindString, Nullable: true},
	}
}

// TestLoadOrderProperty loads the same rows ascending, descending and
// shuffled, in flushes of 1, 1 000 and 65 536 rows. Whatever the frames
// of reference went through — extended in place, or rebuilt under a value
// below the base — counts and the vector scan must match the rows
// themselves, and an ascending load never rebuilds.
func TestLoadOrderProperty(t *testing.T) {
	const n = 12_000 // past the analysis sample, not a stride multiple
	ref := make([]types.Row, n)
	for r := range ref {
		ref[r] = loadRow(r)
	}
	schema := loadSchema()
	preds := []Pred{
		{Col: 1, Op: encoding.OpLT, Val: types.NewInt(0)},
		{Col: 1, Op: encoding.OpGE, Val: types.NewInt(20_000)},
		{Col: 1, Op: encoding.OpEQ, Val: types.NewInt(3*777 - 5000)},
		{Col: 2, Op: encoding.OpGT, Val: types.NewFloat(9000.25)},
		{Col: 2, Op: encoding.OpEQ, Val: types.NewFloat(40.25)},
		{Col: 3, Op: encoding.OpLE, Val: types.NewDate(16100)},
		{Col: 3, Op: encoding.OpNE, Val: types.NewDate(16500)},
		{Col: 4, Op: encoding.OpEQ, Val: types.NewString("s07")},
		{Col: 4, Op: encoding.OpLT, Val: types.NewString("s10")},
	}
	orders := map[string][]int{"ascending": make([]int, n), "descending": make([]int, n)}
	for i := 0; i < n; i++ {
		orders["ascending"][i], orders["descending"][i] = i, n-1-i
	}
	orders["shuffled"] = rand.New(rand.NewSource(30)).Perm(n)
	for name, order := range orders {
		for _, flush := range []int{1, 1000, 65536} {
			t.Run(fmt.Sprintf("%s/%d", name, flush), func(t *testing.T) {
				tbl := NewTable(5, "load", schema, Config{})
				for lo := 0; lo < n; lo += flush {
					batch := make([]types.Row, 0, flush)
					for _, r := range order[lo:min(lo+flush, n)] {
						batch = append(batch, ref[r])
					}
					if _, err := tbl.BulkAppend(batch); err != nil {
						t.Fatal(err)
					}
				}
				if rb := tbl.Stats().Rebuilds; name == "ascending" && rb != 0 {
					t.Errorf("ascending load rebuilt %d times", rb)
				}
				for _, p := range preds {
					want := 0
					for _, row := range ref {
						if p.Op.Eval(row[p.Col], p.Val) {
							want++
						}
					}
					if got, err := tbl.CountWhere([]Pred{p}); err != nil || got != want {
						t.Errorf("%s %v %v: %d rows (err %v), want %d", schema[p.Col].Name, p.Op, p.Val, got, err, want)
					}
				}
				seen := 0
				err := tbl.Scan(nil, func(b *Batch) bool {
					vs := b.VectorsEnc(nil, nil)
					for i := 0; i < b.Len(); i++ {
						got := make(types.Row, len(vs))
						for ci, v := range vs {
							got[ci] = v.Get(i)
						}
						want := ref[got[0].Int()]
						if !slices.EqualFunc(got, want, func(a, b types.Value) bool { return types.Compare(a, b) == 0 && a.IsNull() == b.IsNull() }) {
							t.Errorf("vector scan row %v, want %v", got, want)
							return false
						}
						seen++
					}
					return true
				})
				if err != nil || seen != n {
					t.Fatalf("vector scan saw %d rows (err %v), want %d", seen, err, n)
				}
			})
		}
	}
}

// TestFailedValidationLeavesTableUntouched: a batch whose row k fails
// validation is rejected before any domain work, so Rows(), every
// column's encoder and its open stride are exactly as before, even though
// the rows ahead of k overflow every frame.
func TestFailedValidationLeavesTableUntouched(t *testing.T) {
	tbl := NewTable(6, "v", loadSchema(), Config{})
	var load []types.Row
	for r := 0; r < page.StrideSize+500; r++ {
		load = append(load, loadRow(r))
	}
	if err := tbl.InsertBatch(load); err != nil {
		t.Fatal(err)
	}
	type colState struct {
		enc   encoding.Encoder
		codes []uint64
		nulls []bool
	}
	state := func() (int, []colState) {
		tbl.mu.Lock()
		defer tbl.mu.Unlock()
		out := make([]colState, len(tbl.cols))
		for ci, c := range tbl.cols {
			out[ci] = colState{c.enc, slices.Clone(c.openCodes), slices.Clone(c.openNulls)}
		}
		return tbl.rows, out
	}
	rows0, cols0 := state()
	bad := []types.Row{
		{types.NewInt(-1), types.Null, types.NewFloat(0.001), types.NewDate(1), types.NewString("new")},
		{types.NewInt(1 << 40), types.NewInt(-1 << 20), types.NewFloat(1e9), types.NewDate(1 << 30), types.Null},
		{types.Null, types.NewInt(0), types.NewFloat(0), types.NewDate(0), types.Null}, // NULL id
	}
	for k := range bad {
		batch := append(slices.Clone(bad[:k]), bad[2])
		if err := tbl.InsertBatch(batch); err == nil {
			t.Fatalf("InsertBatch with a NULL id at row %d succeeded", k)
		}
		if _, err := tbl.BulkAppend(batch); err == nil {
			t.Fatalf("BulkAppend with a NULL id at row %d succeeded", k)
		}
	}
	rows1, cols1 := state()
	if rows1 != rows0 || tbl.Rows() != len(load) {
		t.Fatalf("rows %d → %d (Rows() %d)", rows0, rows1, tbl.Rows())
	}
	for ci := range cols0 {
		a, b := cols0[ci], cols1[ci]
		if a.enc != b.enc || !slices.Equal(a.codes, b.codes) || !slices.Equal(a.nulls, b.nulls) {
			t.Fatalf("column %d changed under a rejected batch", ci)
		}
	}
	if n := tbl.Stats().Rebuilds; n != 0 {
		t.Fatalf("a rejected batch rebuilt %d columns", n)
	}
}
