package workload

import (
	"fmt"
	"math/rand"

	"dashdb/internal/encoding"
	"dashdb/internal/types"
)

// Financial generates the scaled-down customer financial workload of
// Tests 1–2 (§III): a multi-schema banking dataset whose statement mix
// reproduces the paper's reported ratios —
// 86,537 INSERT / 55,873 UPDATE / 46,383 DROP / 44,914 SELECT /
// 25,572 CREATE / 2,453 DELETE / 12 WITH / 12 EXPLAIN / 5 TRUNCATE —
// and whose analytic query set (the "3,500 longest running queries")
// spans selectivities from needle-point lookups to full-table rollups.
//
// Seven years of date-clustered transaction history make the paper's
// data-skipping scenario concrete: most queries touch only recent months.
type Financial struct {
	// Scale is the number of transaction-fact rows.
	Scale int
	rng   *rand.Rand
}

// NewFinancial creates a deterministic generator.
func NewFinancial(scale int, seed int64) *Financial {
	return &Financial{Scale: scale, rng: rand.New(rand.NewSource(seed))}
}

// Sectors and transaction attributes with realistic skew.
var (
	finSectors  = []string{"banking", "energy", "tech", "health", "retail", "telecom", "utilities", "transport"}
	finTxnTypes = []string{"BUY", "SELL", "DIV", "FEE"}
	finStatuses = []string{"SETTLED", "SETTLED", "SETTLED", "SETTLED", "PENDING", "FAILED"}
)

// epochDay2010 is 2010-01-01, the start of the 7-year history.
var epochDay2010 = mustDateInt("2010-01-01")

const finHistoryDays = 7 * 365

// Tables returns the schema set: one replicated dimension and one
// distributed fact (the scaled stand-in for the paper's 1,640 tables).
func (f *Financial) Tables() []TableDef {
	return []TableDef{
		{
			Name: "accounts",
			Schema: types.Schema{
				{Name: "account_id", Kind: types.KindInt},
				{Name: "customer", Kind: types.KindString, Nullable: true},
				{Name: "sector", Kind: types.KindString, Nullable: true},
				{Name: "open_date", Kind: types.KindDate, Nullable: true},
				{Name: "balance", Kind: types.KindFloat, Nullable: true},
			},
			DistributeBy: "account_id",
			Replicated:   true,
			Indexes:      []string{"account_id", "sector"},
		},
		{
			Name: "transactions",
			Schema: types.Schema{
				{Name: "txn_id", Kind: types.KindInt},
				{Name: "account_id", Kind: types.KindInt},
				{Name: "txn_date", Kind: types.KindDate, Nullable: true},
				{Name: "amount", Kind: types.KindFloat, Nullable: true},
				{Name: "txn_type", Kind: types.KindString, Nullable: true},
				{Name: "status", Kind: types.KindString, Nullable: true},
			},
			DistributeBy: "txn_id",
			Indexes:      []string{"txn_id", "account_id", "txn_date"},
		},
	}
}

// Accounts returns the dimension rows (1 account per 50 transactions,
// minimum 100).
func (f *Financial) Accounts() []types.Row {
	n := f.Scale / 50
	if n < 100 {
		n = 100
	}
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("cust-%05d", i)),
			types.NewString(finSectors[i%len(finSectors)]),
			types.NewDate(epochDay2010 + int64(f.rng.Intn(finHistoryDays))),
			types.NewFloat(float64(f.rng.Intn(1_000_000)) / 100),
		}
	}
	return rows
}

// Transactions returns the fact rows, date-clustered: row i's date grows
// monotonically across the 7-year history (as a live system would append),
// which is what makes the per-stride synopsis selective.
func (f *Financial) Transactions() []types.Row {
	nAcc := f.Scale / 50
	if nAcc < 100 {
		nAcc = 100
	}
	rows := make([]types.Row, f.Scale)
	for i := 0; i < f.Scale; i++ {
		day := epochDay2010 + int64(i*finHistoryDays/f.Scale)
		// Amounts are money, whole cents: scaling the float instead of the
		// cent count leaves fat-tail trades one ulp off (861.99999999999989),
		// which no fixed-point encoding can hold exactly.
		cents := f.rng.Intn(100_000)
		if f.rng.Intn(100) == 0 {
			cents *= 100 // fat-tail trades
		}
		amount := float64(cents) / 100
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(f.rng.Intn(nAcc))),
			types.NewDate(day),
			types.NewFloat(amount),
			types.NewString(finTxnTypes[f.rng.Intn(len(finTxnTypes))]),
			types.NewString(finStatuses[f.rng.Intn(len(finStatuses))]),
		}
	}
	return rows
}

// recentDate returns a date d days before the end of history.
func recentDate(daysBack int) types.Value {
	return types.NewDate(epochDay2010 + finHistoryDays - int64(daysBack))
}

// AnalyticQueries returns n analytic SELECTs over the fact table with a
// realistic spread: most probe recent windows (skipping-friendly), some
// join the dimension, a minority are full-history rollups (the heavy
// tail that drives the paper's avg ≫ median speedup).
func (f *Financial) AnalyticQueries(n int) []QuerySpec {
	rng := rand.New(rand.NewSource(77))
	queries := make([]QuerySpec, 0, n)
	for i := 0; i < n; i++ {
		switch i % 10 {
		case 0: // dashboard count: pure COUNT over a tight recent window —
			// the query class where data skipping leaves almost nothing to
			// touch (the paper's heavy right tail).
			queries = append(queries, QuerySpec{
				Name:  fmt.Sprintf("recent_count_%d", i),
				Table: "transactions",
				Preds: []Pred{
					{Col: "txn_date", Op: encoding.OpGE, Val: recentDate(7 + rng.Intn(21))},
				},
				Aggs: []Agg{{Func: "COUNT"}},
			})
		case 1, 2, 3: // recent-window aggregate (data skipping shines)
			back := 30 + rng.Intn(90)
			queries = append(queries, QuerySpec{
				Name:  fmt.Sprintf("recent_window_%d", i),
				Table: "transactions",
				Preds: []Pred{
					{Col: "txn_date", Op: encoding.OpGE, Val: recentDate(back)},
					{Col: "status", Op: encoding.OpEQ, Val: types.NewString("SETTLED")},
				},
				GroupBy: []string{"txn_type"},
				Aggs:    []Agg{{Func: "COUNT"}, {Func: "SUM", Col: "amount"}},
				OrderBy: []string{"txn_type"},
			})
		case 4, 5: // selective account probe
			queries = append(queries, QuerySpec{
				Name:  fmt.Sprintf("account_probe_%d", i),
				Table: "transactions",
				Preds: []Pred{
					{Col: "account_id", Op: encoding.OpEQ, Val: types.NewInt(int64(rng.Intn(200)))},
				},
				Aggs: []Agg{{Func: "COUNT"}, {Func: "AVG", Col: "amount"}, {Func: "MAX", Col: "amount"}},
			})
		case 6, 7: // star join with dimension filter
			queries = append(queries, QuerySpec{
				Name:  fmt.Sprintf("sector_join_%d", i),
				Table: "transactions",
				Preds: []Pred{
					{Col: "txn_date", Op: encoding.OpGE, Val: recentDate(180 + rng.Intn(180))},
				},
				Joins: []Join{{
					Table: "accounts", LeftCol: "account_id", RightCol: "account_id",
					Preds: []Pred{{Col: "sector", Op: encoding.OpEQ, Val: types.NewString(finSectors[rng.Intn(len(finSectors))])}},
				}},
				GroupBy: []string{"status"},
				Aggs:    []Agg{{Func: "COUNT"}, {Func: "SUM", Col: "amount"}},
			})
		case 8: // fat-tail hunt over full history
			queries = append(queries, QuerySpec{
				Name:  fmt.Sprintf("fat_tail_%d", i),
				Table: "transactions",
				Preds: []Pred{
					{Col: "amount", Op: encoding.OpGT, Val: types.NewFloat(50_000)},
				},
				GroupBy: []string{"txn_type"},
				Aggs:    []Agg{{Func: "COUNT"}, {Func: "MAX", Col: "amount"}},
			})
		default: // full-history rollup (everyone scans everything)
			queries = append(queries, QuerySpec{
				Name:    fmt.Sprintf("full_rollup_%d", i),
				Table:   "transactions",
				GroupBy: []string{"status"},
				Aggs:    []Agg{{Func: "COUNT"}, {Func: "SUM", Col: "amount"}, {Func: "AVG", Col: "amount"}},
				OrderBy: []string{"status"},
			})
		}
	}
	return queries
}

// paperMix is the statement mix of §III, in paper counts.
var paperMix = []struct {
	kind  StatementKind
	count int
}{
	{KindInsert, 86537},
	{KindUpdate, 55873},
	{KindDrop, 46383},
	{KindSelect, 44914},
	{KindCreate, 25572},
	{KindDelete, 2453},
	{KindWith, 12},
	{KindExplain, 12},
	{KindTruncate, 5},
}

// bulkLoadEvery folds concurrent load into the mix: every Nth draw from
// the INSERT share becomes a KindBulkLoad batch of bulkLoadRows rows —
// the flush unit a bulk loader (driver.BulkInserter) emits — so the
// statement stream carries both trickle INSERTs and load streams, as
// the paper's Test 2 environment did.
const (
	bulkLoadEvery = 8
	bulkLoadRows  = 120
)

// MixedStatements generates n statements in the paper's ratio, shuffled
// deterministically. CREATE/DROP pairs operate on scratch tables; DML
// targets the fact table; SELECT/WITH/EXPLAIN draw from the analytic
// set; a slice of the INSERT share arrives as bulk-load flushes so the
// workload measures concurrent load, not just trickle DML.
func (f *Financial) MixedStatements(n int) []Statement {
	rng := rand.New(rand.NewSource(99))
	total := 0
	for _, m := range paperMix {
		total += m.count
	}
	var stmts []Statement
	analytic := f.AnalyticQueries(64)
	nAcc := f.Scale / 50
	if nAcc < 100 {
		nAcc = 100
	}
	scratchSeq := 0
	liveScratch := []string{}
	nextTxnID := int64(f.Scale)
	insertSeq := 0

	newTxnRow := func() types.Row {
		r := types.Row{
			types.NewInt(nextTxnID),
			types.NewInt(int64(rng.Intn(nAcc))),
			recentDate(rng.Intn(30)),
			types.NewFloat(float64(rng.Intn(100_000)) / 100),
			types.NewString(finTxnTypes[rng.Intn(len(finTxnTypes))]),
			types.NewString("PENDING"),
		}
		nextTxnID++
		return r
	}

	var add func(kind StatementKind)
	add = func(kind StatementKind) {
		switch kind {
		case KindSelect:
			q := analytic[rng.Intn(len(analytic))]
			stmts = append(stmts, Statement{Kind: KindSelect, Query: &q})
		case KindWith:
			q := analytic[rng.Intn(len(analytic))]
			stmts = append(stmts, Statement{Kind: KindWith, Query: &q})
		case KindExplain:
			q := analytic[rng.Intn(len(analytic))]
			stmts = append(stmts, Statement{Kind: KindExplain, Query: &q})
		case KindInsert:
			insertSeq++
			if insertSeq%bulkLoadEvery == 0 {
				rows := make([]types.Row, bulkLoadRows)
				for k := range rows {
					rows[k] = newTxnRow()
				}
				stmts = append(stmts, Statement{Kind: KindBulkLoad, Table: "transactions", Rows: rows})
				return
			}
			var rows []types.Row
			for k := 0; k < 10; k++ {
				rows = append(rows, newTxnRow())
			}
			stmts = append(stmts, Statement{Kind: KindInsert, Table: "transactions", Rows: rows})
		case KindUpdate:
			stmts = append(stmts, Statement{
				Kind:  KindUpdate,
				Table: "transactions",
				Preds: []Pred{
					{Col: "status", Op: encoding.OpEQ, Val: types.NewString("PENDING")},
					{Col: "account_id", Op: encoding.OpEQ, Val: types.NewInt(int64(rng.Intn(nAcc)))},
				},
				Set: map[string]types.Value{"status": types.NewString("SETTLED")},
			})
		case KindDelete:
			stmts = append(stmts, Statement{
				Kind:  KindDelete,
				Table: "transactions",
				Preds: []Pred{
					{Col: "status", Op: encoding.OpEQ, Val: types.NewString("FAILED")},
					{Col: "account_id", Op: encoding.OpEQ, Val: types.NewInt(int64(rng.Intn(nAcc)))},
				},
			})
		case KindCreate:
			name := fmt.Sprintf("scratch_%d", scratchSeq)
			scratchSeq++
			liveScratch = append(liveScratch, name)
			stmts = append(stmts, Statement{Kind: KindCreate, Def: &TableDef{
				Name: name,
				Schema: types.Schema{
					{Name: "k", Kind: types.KindInt},
					{Name: "v", Kind: types.KindFloat, Nullable: true},
				},
			}})
		case KindDrop:
			if len(liveScratch) == 0 {
				// Nothing to drop yet: create first, keeping the mix total.
				add(KindCreate)
				return
			}
			name := liveScratch[0]
			liveScratch = liveScratch[1:]
			stmts = append(stmts, Statement{Kind: KindDrop, Table: name})
		case KindTruncate:
			if len(liveScratch) == 0 {
				add(KindCreate)
				return
			}
			stmts = append(stmts, Statement{Kind: KindTruncate, Table: liveScratch[0]})
		}
	}

	for len(stmts) < n {
		// Sample a kind proportionally to the paper mix.
		x := rng.Intn(total)
		for _, m := range paperMix {
			if x < m.count {
				add(m.kind)
				break
			}
			x -= m.count
		}
	}
	return stmts[:n]
}
