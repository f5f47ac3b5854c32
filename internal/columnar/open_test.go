package columnar

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/synopsis"
	"dashdb/internal/types"
)

// openSchema has a frame-of-reference INT, a fixed-point cents DOUBLE, a
// string dictionary and a DOUBLE dictionary (thirds are not fixed-point).
func openSchema() types.Schema {
	return types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "k", Kind: types.KindInt, Nullable: true},
		{Name: "cents", Kind: types.KindFloat, Nullable: true},
		{Name: "s", Kind: types.KindString, Nullable: true},
		{Name: "third", Kind: types.KindFloat, Nullable: true},
	}
}

// openRow is row r of the bulk load, each nullable column NULL on its own
// period.
func openRow(r int) types.Row {
	row := types.Row{
		types.NewInt(int64(r)),
		types.NewInt(int64(r%300 - 100)),
		types.NewFloat(float64(r%5000) / 100),
		types.NewString(fmt.Sprintf("v%03d", r%50)),
		types.NewFloat(float64(r%7) / 3),
	}
	for ci, period := range []int{0, 7, 11, 13, 17} {
		if period > 0 && r%period == 3 {
			row[ci] = types.NullOf(row[ci].Kind())
		}
	}
	return row
}

// lateRow is trickle insert i: values above and below the frames, strings
// the load never saw (extension-region codes), and NULLs.
func lateRow(id, i int) types.Row {
	row := types.Row{
		types.NewInt(int64(id)),
		types.NewInt(int64(50_000 * (i%3 - 1))),
		types.NewFloat(float64(1_000_000+i) / 100),
		types.NewString(fmt.Sprintf("%s-late-%d", []string{"a", "m", "zz"}[i%3], i)),
		types.NewFloat(-float64(i) / 3),
	}
	if i%4 == 1 {
		row[3] = types.NullOf(types.KindString)
	}
	return row
}

// openPreds covers exact and inexact constants, constants outside every
// frame, strings absent from the dictionary and extension-region ones.
func openPreds() [][]Pred {
	p := func(col int, op encoding.CmpOp, v types.Value) Pred { return Pred{Col: col, Op: op, Val: v} }
	f, i, s := types.NewFloat, types.NewInt, types.NewString
	var out [][]Pred
	for _, c := range []Pred{
		p(2, encoding.OpEQ, f(0.075)), p(2, encoding.OpLT, f(0.075)), p(2, encoding.OpGT, f(0.075)),
		p(2, encoding.OpEQ, f(0.07)), p(2, encoding.OpGE, f(49.99)), p(2, encoding.OpGT, f(1e9)),
		p(2, encoding.OpLT, f(-5)), p(2, encoding.OpNE, f(0.5)),
		p(1, encoding.OpEQ, f(2.5)), p(1, encoding.OpLT, f(2.5)), p(1, encoding.OpGE, f(2.5)),
		p(1, encoding.OpGT, i(100_000)), p(1, encoding.OpLT, i(-100_000)), p(1, encoding.OpNE, i(0)),
		p(1, encoding.OpGE, i(40_000)), p(1, encoding.OpLE, i(-40_000)),
		p(3, encoding.OpEQ, s("absent")), p(3, encoding.OpLT, s("v010")), p(3, encoding.OpEQ, s("zz-late-2")),
		p(3, encoding.OpGT, s("v040")), p(3, encoding.OpNE, s("v001")), p(3, encoding.OpLE, s("m-late-4")),
		p(4, encoding.OpEQ, f(0)), p(4, encoding.OpGT, f(1)), p(4, encoding.OpLT, f(-1)),
	} {
		out = append(out, []Pred{c})
	}
	return append(out, nil,
		[]Pred{p(1, encoding.OpGE, i(0)), p(3, encoding.OpLT, s("v020"))},
		[]Pred{p(2, encoding.OpLT, f(10)), p(3, encoding.OpGT, s("m")), p(4, encoding.OpNE, f(2))})
}

// referenceIDs is the plain-Go answer: the ids of the rows satisfying
// every conjunct under CmpOp.Eval, ascending.
func referenceIDs(rows []types.Row, preds []Pred) []int64 {
	var ids []int64
	for _, r := range rows {
		if !slices.ContainsFunc(preds, func(p Pred) bool { return !p.Op.Eval(r[p.Col], p.Val) }) {
			ids = append(ids, r[0].Int())
		}
	}
	return ids
}

// scanIDs collects the ids each scan path selects, sorted.
func scanIDs(t *testing.T, tbl *Table, preds []Pred) map[string][]int64 {
	t.Helper()
	out := map[string][]int64{}
	collect := func(ids *[]int64) func(b *Batch) bool {
		return func(b *Batch) bool {
			for i := 0; i < b.Len(); i++ {
				*ids = append(*ids, b.Value(0, i).Int())
			}
			return true
		}
	}
	var scan, naive, parallel []int64
	if err := scanSerial(tbl, preds, collect(&scan)); err != nil {
		t.Fatal(err)
	}
	if err := scanNaive(tbl, preds, collect(&naive)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	if err := scanDop(tbl, preds, 2, func(_ int, b *Batch) bool {
		mu.Lock()
		defer mu.Unlock()
		return collect(&parallel)(b)
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(parallel)
	out["Scan dop=1"], out["ScanNaive"], out["Scan dop=2"] = scan, naive, parallel
	return out
}

// checkAgainstReference compares every scan path, a count and the
// vector decode of every row with the rows themselves.
func checkAgainstReference(t *testing.T, tbl *Table, rows []types.Row) {
	t.Helper()
	for _, preds := range openPreds() {
		want := referenceIDs(rows, preds)
		if n, err := countWhere(tbl, preds); err != nil || n != len(want) {
			t.Errorf("%v: count %d (err %v), want %d", preds, n, err, len(want))
		}
		for name, got := range scanIDs(t, tbl, preds) {
			if !slices.Equal(got, want) {
				t.Errorf("%v: %s selects %d ids, want %d", preds, name, len(got), len(want))
			}
		}
	}
	byID := map[int64]types.Row{}
	for _, r := range rows {
		byID[r[0].Int()] = r
	}
	seen := 0
	if err := scanSerial(tbl, nil, func(b *Batch) bool {
		vs := b.VectorsEnc(nil, nil)
		for i := 0; i < b.Len(); i++ {
			want := byID[vs[0].Get(i).Int()]
			for ci, v := range vs {
				got := v.Get(i)
				if got.IsNull() != want[ci].IsNull() || types.Compare(got, want[ci]) != 0 {
					t.Errorf("row %v column %d: %v, want %v", want[0], ci, got, want[ci])
					return false
				}
			}
			seen++
		}
		return true
	}); err != nil || seen != len(rows) {
		t.Fatalf("vector scan saw %d rows (err %v), want %d", seen, err, len(rows))
	}
}

// TestOpenStrideMatchesReference: with the last stride open — after bulk
// loads that end mid-stride, exactly on a stride, and past one, then after
// trickle inserts that extend and rebuild frames and extend the
// dictionary — every scan path evaluates the same translated predicates
// over the open codes as over sealed pages and agrees with CmpOp.Eval.
func TestOpenStrideMatchesReference(t *testing.T) {
	for _, split := range []int{1000, page.StrideSize, 1500} {
		t.Run(fmt.Sprint(split), func(t *testing.T) {
			tbl := NewTable(82, "open", openSchema(), Config{})
			rows := make([]types.Row, split)
			for r := range rows {
				rows[r] = openRow(r)
			}
			if _, err := bulkRows(tbl, rows); err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, tbl, rows)
			for i := 0; i < 40; i++ {
				row := lateRow(split+i, i)
				if err := insert(tbl, row); err != nil {
					t.Fatal(err)
				}
				rows = append(rows, row)
			}
			if tbl.Stats().Rebuilds == 0 {
				t.Fatal("no trickle insert fell below a frame's base")
			}
			checkAgainstReference(t, tbl, rows)
		})
	}
}

// TestOpenStrideNegativeZero pins how a DOUBLE dictionary reads -0.0 and
// +0.0: as the first zero the dictionary saw, in the open stride as in a
// sealed one, since both hold the zero's code only.
func TestOpenStrideNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	schema := types.Schema{{Name: "id", Kind: types.KindInt}, {Name: "x", Kind: types.KindFloat}}
	tbl := NewTable(83, "zero", schema, Config{})
	var load []types.Row
	for r := 0; r < 100; r++ {
		load = append(load, types.Row{types.NewInt(int64(r)), types.NewFloat(float64(r) / 3)})
	}
	load[0][1] = types.NewFloat(negZero)
	if err := tbl.InsertBatch(load); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.epochs.Current().State().cols[1].enc.(*encoding.Dict); !ok {
		t.Fatal("x is not dictionary-encoded")
	}
	readZeros := func() (bits []uint64) {
		if err := scanSerial(tbl, []Pred{{Col: 1, Op: encoding.OpEQ, Val: types.NewFloat(0)}}, func(b *Batch) bool {
			for i := 0; i < b.Len(); i++ {
				bits = append(bits, math.Float64bits(b.Value(1, i).Float()))
			}
			v := b.VectorsEnc([]int{1}, nil)[0]
			for i := 0; i < b.Len(); i++ {
				bits = append(bits, math.Float64bits(v.F64[i]))
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return bits
	}
	if err := insert(tbl, types.Row{types.NewInt(100), types.NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	want := []uint64{math.Float64bits(negZero), math.Float64bits(negZero)}
	open := readZeros()
	if !slices.Equal(open, slices.Concat(want, want)) {
		t.Fatalf("open stride reads its zeros as %x, want the first zero seen (-0) for both", open)
	}
	var fill []types.Row
	for r := 101; r < page.StrideSize; r++ {
		fill = append(fill, types.Row{types.NewInt(int64(r)), types.NewFloat(1)})
	}
	if err := tbl.InsertBatch(fill); err != nil {
		t.Fatal(err)
	}
	if sealed := readZeros(); !slices.Equal(sealed, open) {
		t.Fatalf("sealed stride reads its zeros as %x, open read %x", sealed, open)
	}
}

// gobColMeta and gobMetaBlob are SaveMeta's last gob format, whose blob
// was a gob stream of a gobMetaBlob.
type gobColMeta struct {
	Encoder   []byte
	Synopsis  []synopsis.Entry
	Gen       uint32
	OpenCodes []uint64
	OpenNulls []uint64
}

type gobMetaBlob struct {
	Name     string
	Rows     int
	Live     int
	RawBytes int
	GenSeq   uint32
	Deleted  []int
	Cols     []gobColMeta
}

// TestSaveMetaPersistsOpenCodes round-trips a table whose open stride
// holds NULLs, extension-region dictionary codes and codes of a frame
// rebuilt in the same batch: the reopened table scans identically,
// rebuilds nothing and keeps the raw-byte count, and keeps sealing where
// the original left off. A blob in the earlier gob format is refused with
// an error that names the format.
func TestSaveMetaPersistsOpenCodes(t *testing.T) {
	store := NewMemStore()
	orig := NewTable(84, "persist", openSchema(), Config{Store: store})
	var rows []types.Row
	for r := 0; r < 1500; r++ {
		rows = append(rows, openRow(r))
	}
	if _, err := bulkRows(orig, rows); err != nil {
		t.Fatal(err)
	}
	var late []types.Row
	for i := 0; i < 9; i++ {
		late = append(late, lateRow(1500+i, i)) // k = -50 000 rebuilds k's frame
	}
	if _, err := bulkRows(orig, late); err != nil {
		t.Fatal(err)
	}
	rows = append(rows, late...)
	if _, err := deleteWhere(orig, []Pred{{Col: 0, Op: encoding.OpEQ, Val: types.NewInt(1400)}}); err != nil {
		t.Fatal(err)
	}
	if orig.Stats().Rebuilds == 0 {
		t.Fatal("the late batch rebuilt no frame")
	}
	if err := orig.SaveMeta(); err != nil {
		t.Fatal(err)
	}
	// The reopened table gets a copy of the store, so the two can go on
	// writing pages independently.
	copied := &memStore{pages: maps.Clone(store.(*memStore).pages)}
	reopened, err := OpenTable(84, openSchema(), Config{Store: copied})
	if err != nil {
		t.Fatal(err)
	}
	if n := reopened.Stats().Rebuilds; n != 0 {
		t.Fatalf("reopening rebuilt %d columns", n)
	}
	if a, b := orig.Compression().RawBytes, reopened.Compression().RawBytes; a != b {
		t.Fatalf("raw bytes %d reopened as %d", a, b)
	}
	same := func(stage string) {
		t.Helper()
		for _, preds := range openPreds() {
			a, errA := selectWhere(orig, preds)
			b, errB := selectWhere(reopened, preds)
			if errA != nil || errB != nil || !slices.EqualFunc(a, b, slices.Equal[types.Row]) {
				t.Fatalf("%s, %v: reopened selects %d rows (err %v), original %d (err %v)", stage, preds, len(b), errB, len(a), errA)
			}
		}
	}
	same("reopened")
	// Both go on to seal the open stride the same way.
	var more []types.Row
	for r := 2000; r < 2700; r++ {
		more = append(more, openRow(r))
	}
	for _, tbl := range []*Table{orig, reopened} {
		if _, err := bulkRows(tbl, more); err != nil {
			t.Fatal(err)
		}
	}
	same("after sealing")

	// The gob format: the same table's state as a gob stream.
	data, err := store.ReadPage(metaID(84))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := readMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	old := gobMetaBlob{Name: meta.Name, Rows: meta.Rows, Live: meta.Live, RawBytes: meta.RawBytes, GenSeq: meta.GenSeq, Deleted: meta.Deleted}
	for _, cm := range meta.Cols {
		enc, err := encoding.AppendEncoder(nil, cm.Encoder)
		if err != nil {
			t.Fatal(err)
		}
		gc := gobColMeta{Encoder: enc, Synopsis: cm.Synopsis, Gen: cm.Gen}
		if cm.Tail != nil {
			n := cm.Tail.Rows()
			gc.OpenCodes, _ = unpack(cm.Tail, make([]uint64, n), make([]bool, n))
			if nulls := cm.Tail.Nulls(); nulls != nil {
				gc.OpenNulls = nulls.Words()[:(n+63)/64]
			}
		}
		old.Cols = append(old.Cols, gc)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	if err := store.WritePage(metaID(84), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTable(84, openSchema(), Config{Store: store}); err == nil || !strings.Contains(err.Error(), "table metadata is gob-encoded") {
		t.Fatalf("a gob-format blob: err %v", err)
	}
}
