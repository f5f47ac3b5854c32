package columnar

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/page"
	"dashdb/internal/synopsis"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// paritySchema has a column of every kind, all nullable, plus a NOT NULL
// id.
func paritySchema() types.Schema {
	return types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "b", Kind: types.KindBool, Nullable: true},
		{Name: "i", Kind: types.KindInt, Nullable: true},
		{Name: "d", Kind: types.KindDate, Nullable: true},
		{Name: "ts", Kind: types.KindTimestamp, Nullable: true},
		{Name: "f", Kind: types.KindFloat, Nullable: true},
		{Name: "s", Kind: types.KindString, Nullable: true},
	}
}

// respelled is x as a value of another kind that coerces to kind.
func respelled(kind types.Kind, x int64) types.Value {
	switch kind {
	case types.KindBool:
		return types.NewInt(x & 1)
	case types.KindInt:
		return types.NewFloat(float64(x))
	case types.KindDate:
		return types.NewInt(x)
	case types.KindTimestamp:
		return types.NewDate(x)
	case types.KindString:
		return types.NewInt(x)
	}
	return types.NewInt(x) // DOUBLE: an INT lane
}

// laneBatch builds the batch a sender of typed lanes would: each column a
// lane of the one kind its non-NULL values share, or boxed cells when
// they mix kinds.
func laneBatch(rows []types.Row, width int) *vec.Batch {
	cols := make([]*vec.Vector, width)
	for j := range cols {
		kind, mixed := types.KindNull, false
		for _, r := range rows {
			switch v := r[j]; {
			case v.IsNull():
			case kind == types.KindNull:
				kind = v.Kind()
			case v.Kind() != kind:
				mixed = true
			}
		}
		switch {
		case mixed:
			kind = types.KindNull
		case kind == types.KindNull:
			kind = rows[0][j].Kind() // all NULL: a lane of the first NULL's kind
		}
		v := vec.New(kind, len(rows))
		for i, r := range rows {
			v.Set(i, r[j])
		}
		cols[j] = v
	}
	return vec.NewBatch(nil, cols, len(rows))
}

// blockBatch is rows as a shard receives them: one wire block, decoded.
func blockBatch(t testing.TB, rows []types.Row) *vec.Batch {
	block, err := vec.AppendBlock(nil, vec.FromRows(nil, rows))
	if err != nil {
		t.Fatal(err)
	}
	b, err := vec.DecodeBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tableImage is everything a load leaves in a table: each column's
// marshalled encoder, sealed page bytes, synopsis entries and tail page
// bytes and entry, plus the table's counts, raw bytes, compression report
// and rebuilds.
type tableImage struct {
	Encoders    [][]byte
	Pages       [][][]byte
	Synopses    [][]synopsis.Entry
	Tails       [][]byte
	TailSyns    []synopsis.Entry
	Rows, Live  int
	RawBytes    int
	Compression CompressionReport
	Rebuilds    uint64
}

func imageOf(t testing.TB, tbl *Table) tableImage {
	t.Helper()
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	im := tableImage{Rows: tbl.rows, Live: tbl.live, RawBytes: tbl.rawBytes, Rebuilds: tbl.Stats().Rebuilds}
	for ci, c := range tbl.cols {
		var enc []byte
		if c.enc != nil {
			var err error
			if enc, err = encoding.AppendEncoder(nil, c.enc); err != nil {
				t.Fatal(err)
			}
		}
		var pages [][]byte
		for s := 0; s < tbl.sealedStrides(); s++ {
			data, err := tbl.store.ReadPage(tbl.pageID(ci, s))
			if err != nil {
				t.Fatal(err)
			}
			pages = append(pages, data)
		}
		im.Encoders = append(im.Encoders, enc)
		im.Pages = append(im.Pages, pages)
		im.Synopses = append(im.Synopses, c.syn.Entries())
		var tail []byte
		if c.tail != nil {
			tail = c.tail.Marshal()
		}
		im.Tails = append(im.Tails, tail)
		im.TailSyns = append(im.TailSyns, c.tailSyn)
	}
	im.Compression = tbl.Compression()
	return im
}

// loadEveryWay loads rows in flushes of the given sizes into tables of
// one id at dop 1, 2 and 8, each four ways: through the rows adapter
// (InsertBatch), as typed lanes (laneBatch), as decoded wire blocks and as
// several batches placed by an INSERT's column list in one Append
// (placedLoad). It fails the test unless each flush is accepted or refused
// alike by all twelve and their images are identical after every flush;
// it returns the image.
func loadEveryWay(t *testing.T, schema types.Schema, rows []types.Row, flushes []int) tableImage {
	t.Helper()
	type loader struct {
		name string
		tbl  *Table
		load func(*Table, []types.Row) error
	}
	var loaders []loader
	for _, dop := range []int{1, 2, 8} {
		cfg := Config{AnalyzeSample: 1500, Dop: dop}
		loaders = append(loaders,
			loader{fmt.Sprintf("rows at dop %d", dop), NewTable(7, "p", schema, cfg), (*Table).InsertBatch},
			loader{fmt.Sprintf("typed lanes at dop %d", dop), NewTable(7, "p", schema, cfg), func(tbl *Table, batch []types.Row) error {
				_, err := tbl.Append(laneBatch(batch, len(schema)))
				return err
			}},
			loader{fmt.Sprintf("a decoded block at dop %d", dop), NewTable(7, "p", schema, cfg), func(tbl *Table, batch []types.Row) error {
				_, err := tbl.Append(blockBatch(t, batch))
				return err
			}},
		)
		if placedLoad != nil {
			loaders = append(loaders, loader{fmt.Sprintf("placed batches at dop %d", dop), NewTable(7, "p", schema, cfg), placedLoad})
		}
	}
	var im tableImage
	for k, off := 0, 0; off < len(rows); k++ {
		n := len(rows) - off
		if k < len(flushes) {
			n = min(flushes[k], n)
		}
		batch := rows[off : off+n]
		off += n
		errRef := loaders[0].load(loaders[0].tbl, batch)
		im = imageOf(t, loaders[0].tbl)
		for _, l := range loaders[1:] {
			if err := l.load(l.tbl, batch); (err == nil) != (errRef == nil) {
				t.Fatalf("flush %d: %s: %v, %s: %v", k, loaders[0].name, errRef, l.name, err)
			}
			if got := imageOf(t, l.tbl); !reflect.DeepEqual(got, im) {
				t.Fatalf("flush %d of %d rows: %s loaded\n%+v\n%s loaded\n%+v", k, n, l.name, got, loaders[0].name, im)
			}
		}
	}
	return im
}

// parityRow is row r of TestAppendLanesMatchRows: every nullable column
// NULL on its own period; i ascending (extending its frame) until row
// 2 600, then below its base; f in quarters until row 2 200, then in
// thousandths (a finer scale), and an INT lane in rows 1 200–1 799; s
// from 40 strings, then from 300 new ones after row 1 100.
func parityRow(r int) types.Row {
	x := int64(r)
	row := types.Row{
		types.NewInt(x),
		types.NewBool(r%3 == 0),
		types.NewInt(3 * x),
		types.NewDate(17000 + x/7),
		types.NewTimestamp(1_500_000_000_000_000 + 1_000_003*x),
		types.NewFloat(float64(r) / 4),
		types.NewString(fmt.Sprintf("s%02d", r%40)),
	}
	if r >= 2600 {
		row[2] = types.NewInt(-x)
	}
	switch {
	case r >= 2200:
		row[5] = types.NewFloat(float64(r) / 1000)
	case r >= 1200 && r < 1800:
		row[5] = types.NewInt(x)
	}
	if r >= 1100 {
		row[6] = types.NewString(fmt.Sprintf("n%03d", r%300))
	}
	for j, period := range []int{0, 5, 7, 11, 13, 17, 19} {
		if period > 0 && r%period == period/2 {
			row[j] = types.Null
		}
	}
	return row
}

// TestAppendLanesMatchRows: a load through the rows adapter, through
// typed lanes and through decoded wire blocks, at dop 1, 2 and 8, leaves
// identical encoders, page bytes, synopsis entries, open codes and NULLs,
// raw bytes, compression and rebuild counts, flush by flush. The flush
// shapes end mid-stride and cross stride boundaries, and one flush of 2 500
// rows begins mid-stride and crosses three seals, which a table at dop 2
// or 8 encodes a column per worker; the rows extend a frame, force
// rebuilds below an INT base and at a finer DOUBLE scale, carry NULLs in
// every nullable lane, send an INT lane into the DOUBLE column, and grow
// the string dictionary's extension after analysis.
func TestAppendLanesMatchRows(t *testing.T) {
	const n = 3500
	rows := make([]types.Row, n)
	for r := range rows {
		rows[r] = parityRow(r)
	}
	schema := paritySchema()
	rawBytes := 0 // the naive row format's size, as the row path counted it
	for _, r := range rows {
		checked, err := schema.Validate(r)
		if err != nil {
			t.Fatal(err)
		}
		rawBytes += encoding.EstimateRawBytes(checked)
	}
	for _, flushes := range [][]int{
		{n},
		{1000, 1000, 1000, 500},
		{700, 500, 600, 1, 1023, 1025, 51}, // rows 1 200–1 799 alone: f is an INT lane
		{1500, 1, 1, 2, 3, 5, 8, 13, 600, 1367},
		{1000, 2500}, // analysis sees s00–s39 only; the second flush adds n000–n299
	} {
		t.Run(fmt.Sprint(flushes), func(t *testing.T) {
			im := loadEveryWay(t, schema, rows, flushes)
			if im.Rows != n || len(im.Pages[0]) != n/page.StrideSize || im.RawBytes != rawBytes {
				t.Fatalf("%d rows in %d sealed strides, %d raw bytes (want %d)", im.Rows, len(im.Pages[0]), im.RawBytes, rawBytes)
			}
			if len(flushes) > 1 && im.Rebuilds == 0 {
				t.Fatal("no flush rebuilt a frame of reference")
			}
		})
	}
	// The 2 500-row flush grows the string column's dictionary past what
	// the first flush's analysis gave it, through its extension.
	tbl := NewTable(7, "p", schema, Config{AnalyzeSample: 1500, Dop: 2})
	cards := make([]int, 2)
	for k, batch := range [][]types.Row{rows[:1000], rows[1000:]} {
		if err := tbl.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		cards[k] = tbl.ColumnCompressionReport()[6].Cardinality
	}
	if cards[0] != 40 || cards[1] != 340 {
		t.Fatalf("the string dictionary holds %v codes after each flush, want [40 340]", cards)
	}
	// A NULL in the NOT NULL column, or a value that does not coerce,
	// refuses the batch on every path and changes nothing.
	for _, bad := range []types.Row{
		{types.Null, types.NewBool(true), types.NewInt(1), types.NewDate(1), types.NewTimestamp(1), types.NewFloat(1), types.NewString("x")},
		{types.NewInt(1), types.NewBool(true), types.NewString("one"), types.NewDate(1), types.NewTimestamp(1), types.NewFloat(1), types.NewString("x")},
	} {
		batch := append(append([]types.Row(nil), rows[:900]...), bad)
		im := loadEveryWay(t, schema, append(append([]types.Row(nil), rows[:1200]...), batch...), []int{1200, len(batch)})
		if im.Rows != 1200 {
			t.Fatalf("a refused batch left %d rows, want 1200", im.Rows)
		}
	}
}

// FuzzAppendLanesMatchRows is TestAppendLanesMatchRows, at dop 1, 2 and
// 8, on drawn rows:
// each value, its NULL flag and its spelling (the column's kind or
// another that coerces to it) come from the input, and so do the flush
// sizes and where in a flush the frame-moving values fall. Every flush is
// also appended as three batches an INSERT's column list places
// (placedLoad), so a refused value in any of them refuses the whole
// write.
func FuzzAppendLanesMatchRows(f *testing.F) {
	f.Add([]byte{0, 40, 3, 200, 7, 1, 9, 0, 255, 128, 17, 3, 0, 0, 5})
	f.Add([]byte{1, 10, 0, 4, 1, 4, 1, 4, 250, 250, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{4, 255, 255, 0, 8, 16, 32, 64, 128, 3, 3, 3, 3, 99, 98, 97})
	schema := paritySchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		d := drawer{data: data}
		n := 1 + int(d.byte())*12 // up to ~3 000 rows, past the analysis sample
		var flushes []int
		for k := 0; k < 6; k++ {
			flushes = append(flushes, 1+int(d.u16())%1500)
		}
		spell := make([]bool, len(schema)) // column j respelled while the row's drift byte is odd
		for j := range spell {
			spell[j] = d.byte()&1 == 1
		}
		rows := make([]types.Row, n)
		for r := range rows {
			b, drift := d.byte(), int64(d.byte())
			x := int64(r)*int64(1+drift%5) - drift*int64(r%3)*50 // mostly rising, sometimes far below
			row := make(types.Row, len(schema))
			for j, c := range schema {
				switch {
				case c.Nullable && (b>>j)&1 == 1 && b%3 == 0:
					row[j] = types.NullOf(c.Kind)
				case spell[j] && drift&1 == 1:
					row[j] = respelled(c.Kind, x)
				case c.Kind == types.KindBool:
					row[j] = types.NewBool(x&1 == 1)
				case c.Kind == types.KindFloat:
					row[j] = types.NewFloat(float64(x) / float64([]int64{1, 4, 100, 1000}[drift%4]))
				case c.Kind == types.KindString:
					row[j] = types.NewString(fmt.Sprintf("v%d", x%int64(5+drift)))
				case c.Kind == types.KindDate:
					row[j] = types.NewDate(x / 3)
				case c.Kind == types.KindTimestamp:
					row[j] = types.NewTimestamp(x * 1_000_003)
				default:
					row[j] = types.NewInt(x)
				}
			}
			if b == 255 { // a rare untyped NULL in the NOT NULL column refuses its flush
				row[0] = types.Null
			}
			rows[r] = row
		}
		loadEveryWay(t, schema, rows, flushes)
	})
}

// drawer reads a fuzz input a byte at a time, then zeros.
type drawer struct {
	data []byte
	pos  int
}

func (d *drawer) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	d.pos++
	return d.data[d.pos-1]
}

func (d *drawer) u16() uint16 {
	return binary.LittleEndian.Uint16([]byte{d.byte(), d.byte()})
}
