package exec

import (
	"sort"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/types"
)

// Plain-Go reference implementations the operator tests compare against.
// They walk materialized rows with Expr.Eval, one row at a time, and share
// no code with the operators (nestedLoopJoin in join_test.go is the join's).

// tableRows reads a table back in row-id order through columnar's own
// per-row materialization — not through ScanOp or the vector decode it
// uses — so it is the oracles' input.
func tableRows(t testing.TB, tbl *columnar.Table) []types.Row {
	t.Helper()
	var rows []types.Row
	err := tbl.Scan(nil, func(b *columnar.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func evalOrFatal(t testing.TB, e Expr, r types.Row) types.Value {
	t.Helper()
	v, err := e.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// oracleFilter keeps the rows whose predicate is a true BOOLEAN.
func oracleFilter(t testing.TB, rows []types.Row, pred Expr) []types.Row {
	t.Helper()
	var out []types.Row
	for _, r := range rows {
		if v := evalOrFatal(t, pred, r); !v.IsNull() && v.Kind() == types.KindBool && v.Bool() {
			out = append(out, r)
		}
	}
	return out
}

// oracleProject evaluates exprs on every row.
func oracleProject(t testing.TB, rows []types.Row, exprs []Expr) []types.Row {
	t.Helper()
	out := make([]types.Row, len(rows))
	for i, r := range rows {
		out[i] = make(types.Row, len(exprs))
		for j, e := range exprs {
			out[i][j] = evalOrFatal(t, e, r)
		}
	}
	return out
}

// oracleGroupBy is GROUP BY by sorting: rows are stably ordered by their key
// (types.Compare: NULLs first and equal to each other, NaN last and equal to
// itself), each run of equal keys is one group, and every aggregate is
// computed from the run's values in input order. Output is in key order,
// key columns then aggregates, one row over empty input when there are no
// keys — GroupByOp's contract. COUNT(*), COUNT, COUNT(DISTINCT), SUM, AVG,
// MIN and MAX are enough for the suites that use it.
func oracleGroupBy(t testing.TB, rows []types.Row, keys []Expr, aggs []AggSpec) []types.Row {
	t.Helper()
	type keyed struct{ key, row types.Row }
	in := make([]keyed, len(rows))
	for i, r := range rows {
		in[i] = keyed{key: oracleProject(t, rows[i:i+1], keys)[0], row: r}
	}
	cmp := func(a, b types.Row) int {
		for k := range a {
			if c := types.Compare(a[k], b[k]); c != 0 {
				return c
			}
		}
		return 0
	}
	sort.SliceStable(in, func(a, b int) bool { return cmp(in[a].key, in[b].key) < 0 })
	var out []types.Row
	emit := func(group []keyed) {
		var row types.Row
		if len(group) > 0 {
			row = append(row, group[0].key...)
		}
		for _, a := range aggs {
			var vals []types.Value // the group's non-NULL argument values
			for _, kr := range group {
				if a.Func == AggCountStar {
					break
				}
				if v := evalOrFatal(t, a.Arg, kr.row); !v.IsNull() {
					vals = append(vals, v)
				}
			}
			row = append(row, oracleAgg(t, a.Func, len(group), vals))
		}
		out = append(out, row)
	}
	if len(in) == 0 && len(keys) == 0 {
		emit(nil) // the one global group over empty input
	}
	for lo := 0; lo < len(in); {
		hi := lo + 1
		for hi < len(in) && cmp(in[hi].key, in[lo].key) == 0 {
			hi++
		}
		emit(in[lo:hi])
		lo = hi
	}
	return out
}

func oracleAgg(t testing.TB, f AggFunc, n int, vals []types.Value) types.Value {
	t.Helper()
	switch f {
	case AggCountStar:
		return types.NewInt(int64(n))
	case AggCount:
		return types.NewInt(int64(len(vals)))
	case AggCountDistinct:
		sorted := append([]types.Value{}, vals...)
		sort.Slice(sorted, func(a, b int) bool { return types.Compare(sorted[a], sorted[b]) < 0 })
		d := 0
		for i := range sorted {
			if i == 0 || types.Compare(sorted[i-1], sorted[i]) != 0 {
				d++
			}
		}
		return types.NewInt(int64(d))
	}
	if len(vals) == 0 {
		return types.Null
	}
	switch f {
	case AggSum, AggAvg:
		var isum int64 // wraps like int64 addition does
		var fsum float64
		float := f == AggAvg
		for _, v := range vals {
			x, ok := v.AsFloat()
			if !ok {
				t.Fatalf("oracle: non-numeric %v in SUM/AVG", v)
			}
			if v.Kind() == types.KindFloat {
				float = true
			} else {
				isum += v.Int()
			}
			fsum += x
		}
		switch {
		case f == AggAvg:
			return types.NewFloat(fsum / float64(len(vals)))
		case float:
			return types.NewFloat(fsum)
		}
		return types.NewInt(isum)
	case AggMin, AggMax:
		best := vals[0]
		for _, v := range vals[1:] {
			if c := types.Compare(v, best); f == AggMin && c < 0 || f == AggMax && c > 0 {
				best = v
			}
		}
		return best
	}
	t.Fatalf("oracle: aggregate %d not supported", f)
	return types.Null
}
