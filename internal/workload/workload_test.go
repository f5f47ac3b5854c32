package workload

import (
	"strings"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/exec"
	"dashdb/internal/types"
)

func TestFinancialGeneratorDeterministic(t *testing.T) {
	a := NewFinancial(1000, 7).Transactions()
	b := NewFinancial(1000, 7).Transactions()
	if len(a) != 1000 || len(b) != 1000 {
		t.Fatal("scale")
	}
	for i := range a {
		for j := range a[i] {
			if types.Compare(a[i][j], b[i][j]) != 0 {
				t.Fatalf("nondeterministic at row %d col %d", i, j)
			}
		}
	}
}

func TestFinancialDateClustering(t *testing.T) {
	rows := NewFinancial(10_000, 1).Transactions()
	// Dates must grow monotonically (append order = time order), which
	// is what makes per-stride synopses selective.
	prev := int64(-1 << 62)
	for _, r := range rows {
		d := r[2].Int()
		if d < prev {
			t.Fatal("dates not monotone")
		}
		prev = d
	}
	span := rows[len(rows)-1][2].Int() - rows[0][2].Int()
	if span < 7*360 || span > 7*366 {
		t.Fatalf("history span %d days", span)
	}
}

func TestMixedStatementsRespectPaperRatios(t *testing.T) {
	fin := NewFinancial(10_000, 1)
	stmts := fin.MixedStatements(2000)
	if len(stmts) != 2000 {
		t.Fatalf("count %d", len(stmts))
	}
	counts := map[StatementKind]int{}
	for _, s := range stmts {
		counts[s.Kind]++
	}
	// The paper mix: INSERT ≈ 33%, UPDATE ≈ 21%, DROP ≈ 18%, SELECT ≈ 17%,
	// CREATE ≈ 10%. Allow generous slack for sampling and the
	// create-before-drop adjustment.
	frac := func(k StatementKind) float64 { return float64(counts[k]) / 2000 }
	if f := frac(KindInsert); f < 0.25 || f > 0.42 {
		t.Errorf("INSERT fraction %.2f", f)
	}
	if f := frac(KindUpdate); f < 0.14 || f > 0.30 {
		t.Errorf("UPDATE fraction %.2f", f)
	}
	if f := frac(KindSelect); f < 0.10 || f > 0.25 {
		t.Errorf("SELECT fraction %.2f", f)
	}
	if counts[KindCreate] == 0 || counts[KindDrop] == 0 {
		t.Error("DDL missing from mix")
	}
	// Load rides along: a slice of the INSERT share arrives as bulk-load
	// flushes with loader-sized batches, so Test 2 measures load too.
	if counts[KindBulkLoad] == 0 {
		t.Error("bulk-load statements missing from mix")
	}
	for _, s := range stmts {
		switch s.Kind {
		case KindBulkLoad:
			if len(s.Rows) <= 10 {
				t.Fatalf("bulk-load batch of %d rows is trickle-sized", len(s.Rows))
			}
		case KindInsert:
			if len(s.Rows) > 10 {
				t.Fatalf("trickle INSERT of %d rows is bulk-sized", len(s.Rows))
			}
		}
	}
	// Every statement renders to SQL.
	for _, s := range stmts[:100] {
		if s.SQL() == "" {
			t.Fatalf("unrenderable statement %v", s.Kind)
		}
	}
}

func TestQuerySpecSQLRendering(t *testing.T) {
	q := QuerySpec{
		Table: "transactions",
		Preds: []Pred{{Col: "status", Op: encoding.OpEQ, Val: types.NewString("it's")}},
		Joins: []Join{{
			Table: "accounts", LeftCol: "account_id", RightCol: "account_id",
			Preds: []Pred{{Col: "sector", Op: encoding.OpNE, Val: types.NewString("tech")}},
		}},
		GroupBy: []string{"txn_type"},
		Aggs:    []Agg{{Func: "COUNT"}, {Func: "SUM", Col: "amount"}},
		OrderBy: []string{"txn_type"},
		Limit:   5,
	}
	sql := q.SQL()
	for _, want := range []string{
		"SELECT txn_type, COUNT(*), SUM(amount)",
		"FROM transactions",
		"JOIN accounts ON transactions.account_id = accounts.account_id",
		"transactions.status = 'it''s'", // quote escaping
		"accounts.sector <> 'tech'",
		"GROUP BY txn_type",
		"ORDER BY txn_type",
		"FETCH FIRST 5 ROWS ONLY",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestTPCDSGenerator(t *testing.T) {
	gen := NewTPCDS(5000, 2)
	if len(gen.Tables()) != 4 {
		t.Fatal("table count")
	}
	qs := gen.Queries()
	if len(qs) != 20 {
		t.Fatalf("query count %d", len(qs))
	}
	sales := gen.StoreSales()
	if len(sales) != 5000 {
		t.Fatal("scale")
	}
	// Foreign keys must land inside dimension domains.
	nItems := len(gen.Items())
	for _, r := range sales[:100] {
		if r[2].Int() >= int64(nItems) {
			t.Fatal("dangling item FK")
		}
	}
	for _, q := range qs {
		if q.SQL() == "" {
			t.Fatal("unrenderable query")
		}
	}
}

func TestBDInsightStreams(t *testing.T) {
	gen := NewBDInsight(2000, 3)
	s0 := gen.StreamQueries(0)
	s1 := gen.StreamQueries(1)
	if len(s0) != 8 || len(s1) != 8 {
		t.Fatal("stream sizes")
	}
	// Streams differ (different seeds) but share shapes.
	same := true
	for i := range s0 {
		if s0[i].SQL() != s1[i].SQL() {
			same = false
		}
	}
	if same {
		t.Error("streams should not be identical")
	}
}

func TestBuildPlanAndPredFilter(t *testing.T) {
	schema := types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindFloat, Nullable: true},
	}
	data := []types.Row{
		{types.NewInt(1), types.NewFloat(10)},
		{types.NewInt(2), types.NewFloat(20)},
		{types.NewInt(3), types.NewFloat(30)},
	}
	scan := func(table string, preds []Pred) (exec.Operator, types.Schema, error) {
		filter, err := PredFilter(preds, schema)
		if err != nil {
			return nil, nil, err
		}
		var kept []types.Row
		for _, r := range data {
			if filter(r) {
				kept = append(kept, r)
			}
		}
		return exec.NewValues(schema, kept), schema, nil
	}
	q := &QuerySpec{
		Table: "t",
		Preds: []Pred{{Col: "k", Op: encoding.OpGT, Val: types.NewInt(1)}},
		Aggs:  []Agg{{Func: "COUNT"}, {Func: "SUM", Col: "v"}, {Func: "AVG", Col: "v"}, {Func: "MIN", Col: "v"}, {Func: "MAX", Col: "v"}},
	}
	plan, err := BuildPlan(q, scan)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(plan)
	if err != nil || len(rows) != 1 {
		t.Fatalf("%v %v", rows, err)
	}
	if rows[0][0].Int() != 2 || rows[0][1].Float() != 50 || rows[0][2].Float() != 25 {
		t.Fatalf("agg row %v", rows[0])
	}
	// Error paths.
	if _, err := BuildPlan(&QuerySpec{Table: "t", GroupBy: []string{"ghost"}, Aggs: []Agg{{Func: "COUNT"}}}, scan); err == nil {
		t.Fatal("ghost group column must fail")
	}
	if _, err := PredFilter([]Pred{{Col: "ghost"}}, schema); err == nil {
		t.Fatal("ghost predicate column must fail")
	}
}
