package rowstore

import (
	"testing"

	"dashdb/internal/types"
)

func testSchema() types.Schema {
	return types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "region", Kind: types.KindString, Nullable: true},
		{Name: "amount", Kind: types.KindFloat, Nullable: true},
	}
}

func fill(t *testing.T, tbl *Table, n int) {
	t.Helper()
	regions := []string{"north", "south", "east", "west"}
	for i := 0; i < n; i++ {
		_, err := tbl.Insert(types.Row{
			types.NewInt(int64(i)),
			types.NewString(regions[i%4]),
			types.NewFloat(float64(i) * 1.5),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// liveRows returns the live rows by row ID, read through Scan.
func liveRows(tbl *Table) map[int64]types.Row {
	out := map[int64]types.Row{}
	tbl.Scan(func(rid int64, row types.Row) bool {
		out[rid] = row
		return true
	})
	return out
}

func TestInsertGetScan(t *testing.T) {
	tbl := NewTable("t", testSchema())
	fill(t, tbl, 100)
	rows := liveRows(tbl)
	if len(rows) != 100 {
		t.Fatalf("scan %d", len(rows))
	}
	if r := rows[50]; r == nil || r[0].Int() != 50 {
		t.Fatalf("row 50 = %v", r)
	}
}

func TestInsertValidates(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if _, err := tbl.Insert(types.Row{types.Null, types.Null, types.Null}); err == nil {
		t.Fatal("NOT NULL violation must fail")
	}
	if _, err := tbl.Insert(types.Row{types.NewInt(1)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
}

func TestUpdateDelete(t *testing.T) {
	tbl := NewTable("t", testSchema())
	fill(t, tbl, 10)
	if err := tbl.Update(3, types.Row{types.NewInt(3), types.NewString("center"), types.NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	if got := liveRows(tbl)[3][1].Str(); got != "center" {
		t.Fatalf("update: %s", got)
	}
	if err := tbl.Delete(3); err != nil {
		t.Fatal(err)
	}
	if rows := liveRows(tbl); rows[3] != nil || len(rows) != 9 {
		t.Fatal("delete failed")
	}
	if err := tbl.Delete(3); err == nil {
		t.Fatal("double delete must fail")
	}
	if err := tbl.Update(3, types.Row{types.NewInt(3), types.Null, types.Null}); err == nil {
		t.Fatal("update of deleted row must fail")
	}
}

func TestIndexMaintainedAcrossDML(t *testing.T) {
	tbl := NewTable("t", testSchema())
	fill(t, tbl, 100)
	if err := tbl.CreateIndex("region"); err != nil {
		t.Fatal(err)
	}
	north := tbl.SelectEq("region", types.NewString("north"))
	if len(north) != 25 {
		t.Fatalf("north: %d", len(north))
	}
	// Delete one north row and update another away from north.
	if err := tbl.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(4, types.Row{types.NewInt(4), types.NewString("south"), types.NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	north = tbl.SelectEq("region", types.NewString("north"))
	if len(north) != 23 {
		t.Fatalf("north after DML: %d", len(north))
	}
	south := tbl.SelectEq("region", types.NewString("south"))
	if len(south) != 26 {
		t.Fatalf("south after DML: %d", len(south))
	}
}

func TestSelectEqWithoutIndex(t *testing.T) {
	tbl := NewTable("t", testSchema())
	fill(t, tbl, 40)
	got := tbl.SelectEq("region", types.NewString("east"))
	if len(got) != 10 {
		t.Fatalf("east: %d", len(got))
	}
	if tbl.SelectEq("missing", types.NewInt(0)) != nil {
		t.Fatal("unknown column must return nil")
	}
}

func TestSelectRangeIndexedVsScan(t *testing.T) {
	tbl := NewTable("t", testSchema())
	fill(t, tbl, 200)
	lo, hi := types.NewInt(50), types.NewInt(59)
	scan := tbl.SelectRange("id", &lo, &hi)
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	idx := tbl.SelectRange("id", &lo, &hi)
	if len(scan) != 10 || len(idx) != 10 {
		t.Fatalf("scan=%d idx=%d", len(scan), len(idx))
	}
	// Open bounds.
	all := tbl.SelectRange("id", nil, nil)
	if len(all) != 200 {
		t.Fatalf("open range: %d", len(all))
	}
}

func TestTruncate(t *testing.T) {
	tbl := NewTable("t", testSchema())
	fill(t, tbl, 30)
	tbl.CreateIndex("id")
	tbl.Truncate()
	if len(liveRows(tbl)) != 0 {
		t.Fatal("rows after truncate")
	}
	if got := tbl.SelectEq("id", types.NewInt(5)); len(got) != 0 {
		t.Fatal("index not reset")
	}
	// Table remains usable.
	fill(t, tbl, 5)
	if len(liveRows(tbl)) != 5 {
		t.Fatal("insert after truncate")
	}
}

func TestCreateIndexErrors(t *testing.T) {
	tbl := NewTable("t", testSchema())
	if err := tbl.CreateIndex("nope"); err == nil {
		t.Fatal("index on missing column must fail")
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal("re-create must be a no-op")
	}
}

func TestNullsNotIndexed(t *testing.T) {
	tbl := NewTable("t", testSchema())
	tbl.CreateIndex("region")
	tbl.Insert(types.Row{types.NewInt(1), types.Null, types.Null})
	tbl.Insert(types.Row{types.NewInt(2), types.NewString("x"), types.Null})
	if got := tbl.SelectEq("region", types.NewString("x")); len(got) != 1 {
		t.Fatalf("got %d", len(got))
	}
	all := tbl.SelectRange("region", nil, nil)
	if len(all) != 1 {
		t.Fatalf("NULLs leaked into index range: %d", len(all))
	}
}
