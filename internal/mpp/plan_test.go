package mpp

import (
	"reflect"
	"slices"
	"testing"

	"dashdb/internal/exec"
	"dashdb/internal/sql"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// planCluster is a coordinator over the benchmark's two tables, both
// hash-distributed, and a replicated one, with nothing behind it:
// planSelect reads only the catalog and the kind of client (none here, so
// shuffles are placed).
func planCluster() *NetCluster {
	return &NetCluster{nShards: 6, tables: map[string]*tableMeta{
		"accounts": {schema: types.Schema{
			{Name: "account_id", Kind: types.KindInt},
			{Name: "customer", Kind: types.KindString, Nullable: true},
			{Name: "sector", Kind: types.KindString, Nullable: true},
			{Name: "open_date", Kind: types.KindDate, Nullable: true},
			{Name: "balance", Kind: types.KindFloat, Nullable: true},
		}},
		"transactions": {schema: types.Schema{
			{Name: "txn_id", Kind: types.KindInt},
			{Name: "account_id", Kind: types.KindInt},
			{Name: "txn_date", Kind: types.KindDate, Nullable: true},
			{Name: "amount", Kind: types.KindFloat, Nullable: true},
			{Name: "txn_type", Kind: types.KindString, Nullable: true},
			{Name: "status", Kind: types.KindString, Nullable: true},
		}},
		"sectors": {schema: types.Schema{{Name: "sector", Kind: types.KindString}}, repl: true},
	}}
}

// plan parses q and places it, returning the plan and the WHERE's
// conjuncts as parsed (the nodes a stage or the shard statement must hold).
func plan(t *testing.T, c *NetCluster, q string) (*distSelect, []sql.Expr) {
	t.Helper()
	st, err := sql.Parse(q, sql.DialectANSI)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	sel := st.(*sql.SelectStmt)
	return c.planSelect(sel, sql.DialectANSI), sql.Conjuncts(sel.Where)
}

// stageShape is what one shuffle stage ships: the columns it selects (and
// its input schema names), its WHERE's conjuncts — the parsed nodes
// themselves: a conjunct moves, it is not rebuilt — and its key ordinal.
type stageShape struct {
	cols  []string
	where []sql.Expr
	key   int
}

func checkStages(t *testing.T, q string, p *distSelect, want []stageShape, shardWhere []sql.Expr) {
	t.Helper()
	if len(p.stages) != len(want) {
		t.Fatalf("%s: %d stages, want %d", q, len(p.stages), len(want))
	}
	for i, w := range want {
		st := p.stages[i]
		var cols []string
		for _, it := range st.sel.Items {
			cols = append(cols, it.Expr.(*sql.ColumnRef).Column)
		}
		if !reflect.DeepEqual(cols, w.cols) || !reflect.DeepEqual(st.schema.Names(), w.cols) {
			t.Errorf("%s: stage %d selects %v as %v, want %v", q, i, cols, st.schema.Names(), w.cols)
		}
		if got := sql.Conjuncts(st.sel.Where); !slices.Equal(got, w.where) {
			t.Errorf("%s: stage %d WHERE holds %d conjuncts %v, want %v", q, i, len(got), got, w.where)
		}
		if !reflect.DeepEqual(st.keys, []int{w.key}) {
			t.Errorf("%s: stage %d keys %v, want [%d]", q, i, st.keys, w.key)
		}
	}
	if got := sql.Conjuncts(p.pulls[0].sel.Where); !slices.Equal(got, shardWhere) {
		t.Errorf("%s: shard WHERE holds %v, want %v", q, got, shardWhere)
	}
}

// TestShuffleStagePlan pins what each stage of a shuffle join ships: the
// benchmark's join sends the fact's date cut and the dimension's sector
// filter into the stage scans, and each stage selects only its key and
// what the shard statement reads.
func TestShuffleStagePlan(t *testing.T) {
	c := planCluster()
	const bench = "SELECT transactions.status, COUNT(*), SUM(transactions.amount) FROM transactions" +
		" JOIN accounts ON transactions.account_id = accounts.account_id" +
		" WHERE transactions.txn_date >= DATE '2016-07-01' AND accounts.sector = 'retail'" +
		" GROUP BY transactions.status ORDER BY transactions.status"
	p, cj := plan(t, c, bench)
	if p.path != &c.stats.ShuffleJoins {
		t.Fatalf("benchmark join not placed as a shuffle")
	}
	checkStages(t, bench, p, []stageShape{
		{cols: []string{"account_id", "amount", "status"}, where: cj[:1], key: 0},
		{cols: []string{"account_id"}, where: cj[1:], key: 0},
	}, nil)

	cases := []struct {
		q     string
		want  func(cj []sql.Expr) []stageShape
		shard func(cj []sql.Expr) []sql.Expr
	}{
		// LEFT: the preserved side's conjunct moves (and its column is not
		// shipped); the null-supplying side's stay above the join, and
		// their columns are shipped.
		{"SELECT COUNT(*) FROM transactions t LEFT JOIN accounts a ON t.account_id = a.account_id" +
			" WHERE t.amount > 5 AND a.sector = 'retail' AND a.customer IS NULL",
			func(cj []sql.Expr) []stageShape {
				return []stageShape{{[]string{"account_id"}, cj[:1], 0}, {[]string{"account_id", "customer", "sector"}, nil, 0}}
			},
			func(cj []sql.Expr) []sql.Expr { return cj[1:] }},
		// INNER, right side first in the ON: an OR across sides and a UDX
		// stay; a built-in over one side moves; the key is found by name.
		{"SELECT a.customer, t.txn_id FROM transactions t JOIN accounts a ON a.account_id = t.account_id" +
			" WHERE (t.amount > 5 OR a.balance < 0) AND UPPER(a.sector) = 'RETAIL' AND my_udx(t.status) = 1 AND t.txn_type = 'debit'",
			func(cj []sql.Expr) []stageShape {
				return []stageShape{
					{[]string{"txn_id", "account_id", "amount", "status"}, cj[3:], 1},
					{[]string{"account_id", "customer", "balance"}, cj[1:2], 0},
				}
			},
			func(cj []sql.Expr) []sql.Expr { return []sql.Expr{cj[0], cj[2]} }},
		// A reference that resolves to no single column (here: to none)
		// keeps every column of each table it may name, and its conjunct.
		{"SELECT COUNT(*) FROM transactions t JOIN accounts a ON t.account_id = a.account_id WHERE nope = 1 AND t.amount > 5",
			func(cj []sql.Expr) []stageShape {
				return []stageShape{
					{[]string{"txn_id", "account_id", "txn_date", "amount", "txn_type", "status"}, cj[1:], 1},
					{[]string{"account_id", "customer", "sector", "open_date", "balance"}, nil, 0},
				}
			},
			func(cj []sql.Expr) []sql.Expr { return cj[:1] }},
		{"SELECT COUNT(*) FROM transactions t JOIN accounts a ON t.account_id = a.account_id WHERE a.nope = 1",
			func([]sql.Expr) []stageShape {
				return []stageShape{
					{[]string{"account_id"}, nil, 0},
					{[]string{"account_id", "customer", "sector", "open_date", "balance"}, nil, 0},
				}
			},
			func(cj []sql.Expr) []sql.Expr { return cj }},
	}
	for _, tc := range cases {
		p, cj := plan(t, c, tc.q)
		if p.path != &c.stats.ShuffleJoins {
			t.Fatalf("%s: not placed as a shuffle", tc.q)
		}
		checkStages(t, tc.q, p, tc.want(cj), tc.shard(cj))
	}
}

// TestPinnedPull: a statement whose WHERE pins the one distributed
// table's distribution column to a literal of its kind lists the one
// shard Insert places that value on; anything else lists every shard (nil),
// or shard 0 alone when every table is replicated.
func TestPinnedPull(t *testing.T) {
	c := planCluster()
	owner := func(v types.Value) []int { return []int{c.shardOf(c.tables["transactions"], v)} }
	cases := map[string][]int{
		"SELECT amount FROM transactions WHERE txn_id = 42":                                                        owner(types.NewInt(42)),
		"SELECT COUNT(*), SUM(amount) FROM transactions WHERE 42 = txn_id AND amount > 0":                          owner(types.NewInt(42)),
		"SELECT t.amount, s.sector FROM transactions t JOIN sectors s ON t.txn_type = s.sector WHERE t.txn_id = 7": owner(types.NewInt(7)),
		"SELECT amount FROM transactions WHERE txn_id = 42.0":                                                      nil, // not the column's kind
		"SELECT amount FROM transactions WHERE txn_id = NULL":                                                      nil,
		"SELECT amount FROM transactions WHERE txn_id > 42":                                                        nil,
		"SELECT amount FROM transactions WHERE txn_id = 42 OR txn_id = 43":                                         nil,
		"SELECT amount FROM transactions WHERE account_id = 42":                                                    nil, // not the distribution column
		"SELECT COUNT(*) FROM sectors WHERE sector = 'retail'":                                                     {0},
	}
	for q, want := range cases {
		p, _ := plan(t, c, q)
		if p.path != &c.stats.FastPathQueries {
			t.Fatalf("%s: not scattered", q)
		}
		if got := p.pulls[0].shards; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: pull lists shards %v, want %v", q, got, want)
		}
	}
	// A pinned conjunct does not narrow a shuffle: every shard holds a
	// partition of the exchange.
	if p, _ := plan(t, c, "SELECT COUNT(*) FROM transactions t JOIN accounts a ON t.account_id = a.account_id WHERE t.txn_id = 42"); p.pulls[0].shards != nil {
		t.Errorf("shuffle pull lists shards %v, want every shard", p.pulls[0].shards)
	}
}

// TestGroupLimitPlan pins which aggregating blocks hand the shards their
// ORDER BY and OFFSET + LIMIT: only an ORDER BY that sorts by exactly the
// full set of group columns — by name, ordinal or column, in any order and
// either direction — with no HAVING. The shard's ORDER BY names the _G<i>
// items by ordinal.
func TestGroupLimitPlan(t *testing.T) {
	c := planCluster()
	pushes := map[string][]sql.OrderItem{
		// The benchmark's groupby class.
		"SELECT account_id, COUNT(*), SUM(amount) FROM transactions GROUP BY account_id ORDER BY account_id FETCH FIRST 10 ROWS ONLY": {{Ordinal: 1}},
		"SELECT status, txn_type, COUNT(*) FROM transactions GROUP BY status, txn_type ORDER BY txn_type DESC, 1 LIMIT 3 OFFSET 2":    {{Ordinal: 2, Desc: true}, {Ordinal: 1}},
		"SELECT COUNT(*) AS n FROM transactions GROUP BY status, txn_type ORDER BY transactions.txn_type, status LIMIT 5":             {{Ordinal: 2}, {Ordinal: 1}},
		"SELECT status AS s, COUNT(*) FROM transactions GROUP BY status ORDER BY s DESC LIMIT 2":                                      {{Ordinal: 1, Desc: true}},
		"SELECT LOWER(status), COUNT(*) FROM transactions GROUP BY LOWER(status) ORDER BY LOWER(transactions.status) DESC LIMIT 2":    {{Ordinal: 1, Desc: true}},
	}
	for q, want := range pushes {
		p, _ := plan(t, c, q)
		shard := p.pulls[0].sel
		if !reflect.DeepEqual(shard.OrderBy, want) {
			t.Errorf("%s: shard ORDER BY %+v, want %+v", q, shard.OrderBy, want)
		}
		final := p.final
		if shard.Limit != final.Offset+final.Limit || shard.Offset != 0 {
			t.Errorf("%s: shard LIMIT %d OFFSET %d, want %d and 0", q, shard.Limit, shard.Offset, final.Offset+final.Limit)
		}
	}
	for _, q := range []string{
		"SELECT status, COUNT(*) FROM transactions GROUP BY status HAVING COUNT(*) > 1 ORDER BY status LIMIT 2",
		"SELECT status, COUNT(*) FROM transactions GROUP BY status ORDER BY COUNT(*) LIMIT 2",
		"SELECT status, COUNT(*) FROM transactions GROUP BY status ORDER BY 2 LIMIT 2",
		"SELECT status, txn_type, COUNT(*) FROM transactions GROUP BY status, txn_type ORDER BY status LIMIT 2",
		"SELECT status, COUNT(*) FROM transactions GROUP BY status ORDER BY UPPER(status) LIMIT 2",
		"SELECT UPPER(status), COUNT(*) FROM transactions GROUP BY status ORDER BY 1 LIMIT 2",
		"SELECT status, COUNT(*) AS status FROM transactions GROUP BY status ORDER BY status LIMIT 2", // names two outputs
		"SELECT txn_type, COUNT(*) AS status FROM transactions GROUP BY status, txn_type ORDER BY status, txn_type LIMIT 2",
		"SELECT status, COUNT(*) FROM transactions GROUP BY status ORDER BY status", // no LIMIT
		"SELECT status, COUNT(*) FROM transactions GROUP BY status LIMIT 2",         // no ORDER BY
	} {
		p, _ := plan(t, c, q)
		if p.path != &c.stats.FastPathQueries {
			t.Fatalf("%s: not scattered", q)
		}
		if shard := p.pulls[0].sel; shard.OrderBy != nil || shard.Limit != -1 {
			t.Errorf("%s: pushed ORDER BY %+v LIMIT %d to the shards", q, shard.OrderBy, shard.Limit)
		}
	}
}

// TestShardOfMatchesPartition: the insert routing and pin (shardOf) and the
// shuffle (exec.Partition) place a key alike — for every kind, for NULL,
// and for a literal coerced to the column's kind — so a co-located row
// re-shuffles to the shard it already lives on.
func TestShardOfMatchesPartition(t *testing.T) {
	date, err := types.ParseDate("2016-10-01")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kind   types.Kind
		stored types.Value // as the shard holds it
		lit    types.Value // as an INSERT or a WHERE names it
	}{
		{types.KindBool, types.NewBool(true), types.NewBool(true)},
		{types.KindInt, types.NewInt(-17), types.NewInt(-17)},
		{types.KindFloat, types.NewFloat(2.5), types.NewFloat(2.5)},
		{types.KindFloat, types.NewFloat(42), types.NewInt(42)},
		{types.KindString, types.NewString("north"), types.NewString("north")},
		{types.KindDate, date, types.NewString("2016-10-01")},
		{types.KindTimestamp, types.NewTimestamp(1_475_280_000_000_000), types.NewTimestamp(1_475_280_000_000_000)},
	}
	for _, k := range []types.Kind{types.KindBool, types.KindInt, types.KindFloat, types.KindString, types.KindDate, types.KindTimestamp} {
		cases = append(cases, struct {
			kind        types.Kind
			stored, lit types.Value
		}{k, types.NullOf(k), types.Null})
	}
	for _, n := range []int{6, 8} {
		c := &NetCluster{nShards: n}
		for _, tc := range cases {
			meta := &tableMeta{schema: types.Schema{{Name: "k", Kind: tc.kind, Nullable: true}}}
			typed := vec.New(tc.kind, 1)
			typed.Set(0, tc.stored)
			boxed := vec.FromRows(meta.schema, []types.Row{{tc.stored}}).Col(0)
			want := c.shardOf(meta, tc.lit)
			for name, v := range map[string]*vec.Vector{"typed": typed, "const": vec.NewConst(tc.stored), "boxed": boxed} {
				if got := exec.Partition([]*vec.Vector{v}, 0, n); got != want {
					t.Errorf("%d parts, %s %v (%s vector): partition %d, shardOf %v says %d", n, tc.kind, tc.stored, name, got, tc.lit, want)
				}
			}
		}
	}
}
