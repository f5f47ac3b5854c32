package appliance

import (
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/exec"
	"dashdb/internal/types"
	"dashdb/internal/workload"
)

func loadedAppliance(t *testing.T) *Appliance {
	t.Helper()
	a := New("test-appliance")
	fin := workload.NewFinancial(5000, 1)
	for _, def := range fin.Tables() {
		if err := a.CreateTable(def); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Load("accounts", fin.Accounts()); err != nil {
		t.Fatal(err)
	}
	if err := a.Load("transactions", fin.Transactions()); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestQueryShapes(t *testing.T) {
	a := loadedAppliance(t)
	// Filtered aggregate.
	rows, err := a.Query(&workload.QuerySpec{
		Table: "transactions",
		Preds: []workload.Pred{{Col: "status", Op: encoding.OpEQ, Val: types.NewString("SETTLED")}},
		Aggs:  []workload.Agg{{Func: "COUNT"}, {Func: "SUM", Col: "amount"}},
	})
	if err != nil || len(rows) != 1 || rows[0][0].Int() == 0 {
		t.Fatalf("%v err %v", rows, err)
	}
	// Join + group.
	rows, err = a.Query(&workload.QuerySpec{
		Table:   "transactions",
		Joins:   []workload.Join{{Table: "accounts", LeftCol: "account_id", RightCol: "account_id"}},
		GroupBy: []string{"sector"},
		Aggs:    []workload.Agg{{Func: "COUNT"}},
		OrderBy: []string{"sector"},
	})
	if err != nil || len(rows) != 8 {
		t.Fatalf("join groups %d err %v", len(rows), err)
	}
	// Plain projection with limit.
	rows, err = a.Query(&workload.QuerySpec{
		Table:  "transactions",
		Select: []string{"txn_id"},
		Preds:  []workload.Pred{{Col: "txn_id", Op: encoding.OpLT, Val: types.NewInt(100)}},
		Limit:  5,
	})
	if err != nil || len(rows) != 5 {
		t.Fatalf("limit %d err %v", len(rows), err)
	}
}

func TestStatements(t *testing.T) {
	a := loadedAppliance(t)
	// INSERT.
	n, err := a.Execute(&workload.Statement{
		Kind:  workload.KindInsert,
		Table: "transactions",
		Rows: []types.Row{{
			types.NewInt(999_999), types.NewInt(1), types.NewDate(0),
			types.NewFloat(1), types.NewString("BUY"), types.NewString("PENDING"),
		}},
	})
	if err != nil || n != 1 {
		t.Fatalf("insert %d %v", n, err)
	}
	// UPDATE it.
	n, err = a.Execute(&workload.Statement{
		Kind:  workload.KindUpdate,
		Table: "transactions",
		Preds: []workload.Pred{{Col: "txn_id", Op: encoding.OpEQ, Val: types.NewInt(999_999)}},
		Set:   map[string]types.Value{"status": types.NewString("SETTLED")},
	})
	if err != nil || n != 1 {
		t.Fatalf("update %d %v", n, err)
	}
	// DELETE it.
	n, err = a.Execute(&workload.Statement{
		Kind:  workload.KindDelete,
		Table: "transactions",
		Preds: []workload.Pred{{Col: "txn_id", Op: encoding.OpEQ, Val: types.NewInt(999_999)}},
	})
	if err != nil || n != 1 {
		t.Fatalf("delete %d %v", n, err)
	}
	// CREATE / TRUNCATE / DROP scratch.
	def := &workload.TableDef{Name: "scratch", Schema: types.Schema{{Name: "k", Kind: types.KindInt}}}
	if _, err := a.Execute(&workload.Statement{Kind: workload.KindCreate, Def: def}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Execute(&workload.Statement{Kind: workload.KindTruncate, Table: "scratch"}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Execute(&workload.Statement{Kind: workload.KindDrop, Table: "scratch"}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Execute(&workload.Statement{Kind: workload.KindTruncate, Table: "scratch"}); err == nil {
		t.Fatal("truncate after drop must fail")
	}
}

func TestErrors(t *testing.T) {
	a := New("x")
	if _, err := a.Query(&workload.QuerySpec{Table: "ghost"}); err == nil {
		t.Fatal("missing table must fail")
	}
	def := workload.TableDef{Name: "t", Schema: types.Schema{{Name: "k", Kind: types.KindInt}}}
	if err := a.CreateTable(def); err != nil {
		t.Fatal(err)
	}
	if err := a.CreateTable(def); err == nil {
		t.Fatal("duplicate table must fail")
	}
	if _, err := a.Query(&workload.QuerySpec{Table: "t", Aggs: []workload.Agg{{Func: "BOGUS", Col: "k"}}}); err == nil {
		t.Fatal("unknown aggregate must fail")
	}
	if _, err := a.Query(&workload.QuerySpec{Table: "t", Preds: []workload.Pred{{Col: "ghost"}}}); err == nil {
		t.Fatal("unknown predicate column must fail")
	}
}

// TestRowScan: the appliance's access path reads every row of its row
// table, keeps those the restriction passes, and hands them to the host
// operators in batches of the executor's size.
func TestRowScan(t *testing.T) {
	a := New("scan")
	schema := types.Schema{{Name: "a", Kind: types.KindInt}}
	if err := a.CreateTable(workload.TableDef{Name: "r", Schema: schema}); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := int64(0); i < 3000; i++ {
		rows = append(rows, types.Row{types.NewInt(i)})
	}
	if err := a.Load("r", rows); err != nil {
		t.Fatal(err)
	}
	op, _, err := a.scanFactory("r", []workload.Pred{{Col: "a", Op: encoding.OpLT, Val: types.NewInt(2500)}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Drain(op)
	if err != nil || len(got) != 2500 || got[2499][0].Int() != 2499 {
		t.Fatalf("row scan kept %d rows (err %v), want 2500 in row order", len(got), err)
	}
	if held, ok := op.(*exec.BatchesOp); !ok || len(held.Data) != 3 {
		t.Fatalf("row scan output %T is not 3 batches of %d rows", op, exec.ChunkSize)
	}
}
