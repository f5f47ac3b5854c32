package main

import (
	"fmt"
	"math"
	"math/rand"

	"dashdb/internal/encoding"
	"dashdb/internal/types"
	"dashdb/internal/workload"
)

// The seven SELECT classes. A class is one fixed statement shape; its name
// is the prefix of its latency metrics (point_p50_us, scan_p50_ms, ...).
const (
	clsPoint = iota
	clsScan
	clsAgg
	clsGroupby
	clsJoin
	clsSort
	clsTopk
	numClasses
)

var classNames = [numClasses]string{"point", "scan", "agg", "groupby", "join", "sort", "topk"}

// mix is the number of statements of each class in one round.
type mix [numClasses]int

// mixes is each workload's round. Cheap classes repeat often, so every
// class has at least 40 samples over a run's rounds and none is a
// negligible share of the round's wall time. The two single-node analytic workloads run
// the same list. The cluster runs join twice where they run it six times: a
// shuffle join takes forty times a single-node one, and six of them would be
// nine tenths of its round. mixed_ingest's reader runs a shorter list, so a
// round lasts about as long as the writer's list beside it.
var mixes = map[string]mix{
	wlSerial:      {clsPoint: 50, clsScan: 20, clsAgg: 3, clsGroupby: 2, clsJoin: 6, clsSort: 2, clsTopk: 2},
	wlConstrained: {clsPoint: 50, clsScan: 20, clsAgg: 3, clsGroupby: 2, clsJoin: 6, clsSort: 2, clsTopk: 2},
	wlMixed:       {clsPoint: 20, clsScan: 10, clsAgg: 2, clsGroupby: 2, clsJoin: 3, clsSort: 2, clsTopk: 2},
	wlCluster:     {clsPoint: 50, clsScan: 20, clsAgg: 3, clsGroupby: 2, clsJoin: 2, clsSort: 2, clsTopk: 2},
}

func (m mix) total() int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// History geometry of workload.Financial (unexported there): seven years
// of date-clustered transactions starting 2010-01-01.
const (
	historyDays = 7 * 365
	day2010     = 14610 // days from 1970-01-01 to 2010-01-01
)

var (
	sectors  = []string{"banking", "energy", "tech", "health", "retail", "telecom", "utilities", "transport"}
	txnTypes = []string{"BUY", "SELL", "DIV", "FEE"}
)

// dataset is the generated star schema, kept by the harness so results can
// be checked against a plain-Go evaluation.
type dataset struct {
	scale     int
	tables    []workload.TableDef // accounts, transactions
	accounts  []types.Row
	txns      []types.Row
	userBytes int // naive uncompressed size of every row of both tables
}

// rows returns the rows of tables[i].
func (d *dataset) rows(i int) []types.Row {
	if i == 0 {
		return d.accounts
	}
	return d.txns
}

func generate(scale int, seed int64) *dataset {
	fin := workload.NewFinancial(scale, seed)
	d := &dataset{scale: scale, tables: fin.Tables()}
	d.accounts = fin.Accounts()
	d.txns = fin.Transactions()
	// Amounts are money: whole cents. The generator's fat-tail trades
	// (amount * 100) can be one ulp off a cent (861.99999999999989), and the
	// engine's decimal-scaled float encoding hands such a value back as 862,
	// which changes its place in an ORDER BY amount against an exact 862.
	for _, r := range d.txns {
		r[txAmount] = types.NewFloat(math.Round(r[txAmount].Float()*100) / 100)
	}
	for _, r := range d.accounts {
		d.userBytes += encoding.EstimateRawBytes(r)
	}
	for _, r := range d.txns {
		d.userBytes += encoding.EstimateRawBytes(r)
	}
	return d
}

// stmt is one SELECT of a round with the parameters the reference
// evaluation needs and the rows it must return.
type stmt struct {
	class  int
	sql    string
	id     int64  // point: txn_id
	cut    int64  // scan/join/sort/topk: first day of the window
	sector string // join: dimension filter
	want   [][]types.Value
}

func dateLit(day int64) string { return "DATE '" + types.NewDate(day).String() + "'" }

// stratified returns a value in [lo, hi): the i-th of n equal strata, with
// the position inside the stratum drawn from rng. Every seed therefore
// covers the range the same way, so a class does the same amount of work
// whatever the seed, while the literals themselves differ.
func stratified(rng *rand.Rand, i, n, lo, hi int) int {
	return lo + ((hi-lo)*i+rng.Intn(hi-lo))/n
}

// buildRound generates one round's statement list: m[c] statements of each
// class with seed-drawn literals, in a seed-shuffled order. The list is
// executed unchanged every round.
func buildRound(d *dataset, seed int64, m mix) []stmt {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	end := int64(day2010 + historyDays)
	var out []stmt
	for i := 0; i < m[clsPoint]; i++ {
		id := int64(rng.Intn(d.scale))
		out = append(out, stmt{class: clsPoint, id: id,
			sql: fmt.Sprintf("SELECT amount FROM transactions WHERE txn_id = %d", id)})
	}
	for i := 0; i < m[clsScan]; i++ {
		cut := end - int64(stratified(rng, i, m[clsScan], 30, 120))
		out = append(out, stmt{class: clsScan, cut: cut,
			sql: "SELECT txn_type, COUNT(*), SUM(amount) FROM transactions WHERE txn_date >= " + dateLit(cut) +
				" AND status = 'SETTLED' GROUP BY txn_type ORDER BY txn_type"})
	}
	for i := 0; i < m[clsAgg]; i++ {
		out = append(out, stmt{class: clsAgg,
			sql: "SELECT status, COUNT(*), SUM(amount), AVG(amount) FROM transactions GROUP BY status ORDER BY status"})
	}
	for i := 0; i < m[clsGroupby]; i++ {
		out = append(out, stmt{class: clsGroupby,
			sql: "SELECT account_id, COUNT(*), SUM(amount) FROM transactions GROUP BY account_id ORDER BY account_id FETCH FIRST 10 ROWS ONLY"})
	}
	for i := 0; i < m[clsJoin]; i++ {
		cut := end - int64(stratified(rng, i, m[clsJoin], 180, 360))
		sector := sectors[rng.Intn(len(sectors))]
		out = append(out, stmt{class: clsJoin, cut: cut, sector: sector,
			sql: "SELECT transactions.status, COUNT(*), SUM(transactions.amount) FROM transactions" +
				" JOIN accounts ON transactions.account_id = accounts.account_id" +
				" WHERE transactions.txn_date >= " + dateLit(cut) + " AND accounts.sector = '" + sector + "'" +
				" GROUP BY transactions.status ORDER BY transactions.status"})
	}
	// sort and topk read the last 14–16 % of history; topk is the same
	// statement with a row limit, so the pair shows whether a sort-path
	// change is general or only helps the bounded case.
	for _, c := range []int{clsSort, clsTopk} {
		for i := 0; i < m[c]; i++ {
			cut := end - int64(stratified(rng, i, m[c], historyDays*14/100, historyDays*16/100))
			text := "SELECT txn_id, amount FROM transactions WHERE txn_date >= " + dateLit(cut) + " ORDER BY amount DESC, txn_id"
			if c == clsTopk {
				text += " FETCH FIRST 100 ROWS ONLY"
			}
			out = append(out, stmt{class: c, cut: cut, sql: text})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].want = reference(d, &out[i])
	}
	return out
}

// --- writer (mixed_ingest) ----------------------------------------------------

// writerMix is the count of each statement kind in a hundred writer
// statements: the paper's §III mix without its SELECT/WITH/EXPLAIN share
// (INSERT 86,537 / UPDATE 55,873 / DROP 46,383 / CREATE 25,572 / DELETE
// 2,453 / TRUNCATE 5). A round's list is writerHundreds times that. As in workload.Financial.MixedStatements one
// INSERT in eight is a 120-row bulk flush and the rest are 10-row trickle
// INSERTs; a DROP with nothing to drop becomes a CREATE, so DDL splits
// evenly.
var writerMix = map[workload.StatementKind]int{
	workload.KindInsert:   35,
	workload.KindBulkLoad: 5,
	workload.KindUpdate:   26,
	workload.KindCreate:   16,
	workload.KindDrop:     16,
	workload.KindDelete:   1,
	workload.KindTruncate: 1,
}

const (
	trickleRows = 10
	bulkRows    = 120
	// writerHundreds sizes the writer's list so that it takes about as long
	// as the reader's beside it; each hundred statements add 950 rows.
	writerHundreds = 4
)

// writerRound is the writer's fixed list, executed once per round beside
// the reader's. The same statements run on every pass; only the txn_id of
// inserted rows moves on, so ids stay unique while the work per pass stays
// the same.
type writerRound struct {
	stmts       []workload.Statement
	rowsPerPass int // rows inserted by one execution of the list
}

func buildWriterRound(d *dataset, seed int64) *writerRound {
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	nAcc := len(d.accounts)
	var kinds []workload.StatementKind
	for _, k := range []workload.StatementKind{workload.KindInsert, workload.KindBulkLoad, workload.KindUpdate,
		workload.KindCreate, workload.KindDrop, workload.KindDelete} {
		for i := 0; i < writerMix[k]*writerHundreds; i++ {
			kinds = append(kinds, k)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	w := &writerRound{}
	nextID := int64(d.scale)
	newRows := func(n int) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{
				types.NewInt(nextID),
				types.NewInt(int64(rng.Intn(nAcc))),
				types.NewDate(day2010 + historyDays - int64(rng.Intn(30))),
				types.NewFloat(float64(rng.Intn(100_000)) / 100),
				types.NewString(txnTypes[rng.Intn(len(txnTypes))]),
				types.NewString("PENDING"),
			}
			nextID++
		}
		w.rowsPerPass += n
		return rows
	}
	acctPred := func(status string) []workload.Pred {
		return []workload.Pred{
			{Col: "status", Op: encoding.OpEQ, Val: types.NewString(status)},
			{Col: "account_id", Op: encoding.OpEQ, Val: types.NewInt(int64(rng.Intn(nAcc)))},
		}
	}
	// DDL slots alternate CREATE and DROP of the same scratch table, so the
	// list leaves no table behind and can run again. The TRUNCATEs follow
	// the first CREATE, when a scratch table is sure to exist.
	ddl, scratch := 0, ""
	for _, k := range kinds {
		switch k {
		case workload.KindInsert:
			w.stmts = append(w.stmts, workload.Statement{Kind: k, Table: "transactions", Rows: newRows(trickleRows)})
		case workload.KindBulkLoad:
			w.stmts = append(w.stmts, workload.Statement{Kind: k, Table: "transactions", Rows: newRows(bulkRows)})
		case workload.KindUpdate:
			w.stmts = append(w.stmts, workload.Statement{Kind: k, Table: "transactions", Preds: acctPred("PENDING"),
				Set: map[string]types.Value{"status": types.NewString("SETTLED")}})
		case workload.KindDelete:
			w.stmts = append(w.stmts, workload.Statement{Kind: k, Table: "transactions", Preds: acctPred("FAILED")})
		case workload.KindCreate, workload.KindDrop:
			if ddl%2 == 0 {
				scratch = fmt.Sprintf("scratch_%d", ddl/2)
				w.stmts = append(w.stmts, workload.Statement{Kind: workload.KindCreate, Def: &workload.TableDef{
					Name: scratch,
					Schema: types.Schema{
						{Name: "k", Kind: types.KindInt},
						{Name: "v", Kind: types.KindFloat, Nullable: true},
					},
				}})
				for i := 0; ddl == 0 && i < writerMix[workload.KindTruncate]; i++ {
					w.stmts = append(w.stmts, workload.Statement{Kind: workload.KindTruncate, Table: scratch})
				}
			} else {
				w.stmts = append(w.stmts, workload.Statement{Kind: workload.KindDrop, Table: scratch})
			}
			ddl++
		}
	}
	return w
}

// writerOp is one writer statement ready to execute: SQL text for the
// session, or rows for the bulk loader.
type writerOp struct {
	kind workload.StatementKind
	sql  string
	rows []types.Row
}

// pass renders the list as its n-th execution runs it: inserted rows get
// fresh txn_ids, everything else is unchanged.
func (w *writerRound) pass(n int) []writerOp {
	ops := make([]writerOp, len(w.stmts))
	for i := range w.stmts {
		s := w.stmts[i]
		if len(s.Rows) > 0 && n > 0 {
			rows := make([]types.Row, len(s.Rows))
			for j, r := range s.Rows {
				nr := append(types.Row(nil), r...)
				nr[0] = types.NewInt(r[0].Int() + int64(n*w.rowsPerPass))
				rows[j] = nr
			}
			s.Rows = rows
		}
		ops[i] = writerOp{kind: s.Kind, rows: s.Rows}
		if s.Kind != workload.KindBulkLoad {
			ops[i].sql = s.SQL()
		}
	}
	return ops
}
