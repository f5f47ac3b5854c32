package exec

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/types"
)

// Plain-Go reference implementations the operator tests compare against.
// They walk materialized rows with rowEval, one row at a time, and share
// no code with the operators (nestedLoopJoin in join_test.go is the join's).

// rowEval is the expression oracle: e on one row, through the scalar helpers
// the kernels' boxed arms use (ArithValue, negValue, CmpOp.Eval,
// ApplyExpr.Fn) and its own three-valued and3/or3/not3, with the short
// circuits of AND/OR and the laziness of CASE and IN written out row-wise.
// Production code has no such entry point; every kernel is held to this
// one (TestEvalVecMatchesEval).
func rowEval(e Expr, row types.Row) (types.Value, error) {
	// both evaluates two strict operands, left first.
	both := func(l, r Expr) (a, b types.Value, err error) {
		if a, err = rowEval(l, row); err == nil {
			b, err = rowEval(r, row)
		}
		return a, b, err
	}
	switch x := e.(type) {
	case ColRef:
		if int(x) < 0 || int(x) >= len(row) {
			return types.Null, errColumnRange(int(x))
		}
		return row[x], nil
	case Const:
		return x.V, nil
	case *CmpExpr:
		a, b, err := both(x.L, x.R)
		if err != nil || a.IsNull() || b.IsNull() {
			return types.Null, err
		}
		return types.NewBool(x.Op.Eval(a, b)), nil
	case *ArithExpr:
		a, b, err := both(x.L, x.R)
		if err != nil {
			return types.Null, err
		}
		return ArithValue(x.Op, a, b)
	case *AndExpr:
		a, err := rowEval(x.L, row)
		if err != nil {
			return types.Null, err
		}
		if !a.IsNull() && !a.Bool() {
			return types.NewBool(false), nil
		}
		b, err := rowEval(x.R, row)
		return and3(a, b), err
	case *OrExpr:
		a, err := rowEval(x.L, row)
		if err != nil {
			return types.Null, err
		}
		if !a.IsNull() && a.Bool() {
			return types.NewBool(true), nil
		}
		b, err := rowEval(x.R, row)
		return or3(a, b), err
	case *NotExpr:
		v, err := rowEval(x.E, row)
		return not3(v), err
	case *NegExpr:
		v, err := rowEval(x.E, row)
		if err != nil {
			return types.Null, err
		}
		return negValue(v)
	case *ApplyExpr:
		args := make([]types.Value, len(x.Args))
		for i, a := range x.Args {
			var err error
			if args[i], err = rowEval(a, row); err != nil {
				return types.Null, err
			}
		}
		return x.Fn(args)
	case *CaseExpr:
		var opv types.Value
		if x.Operand != nil {
			var err error
			if opv, err = rowEval(x.Operand, row); err != nil {
				return types.Null, err
			}
		}
		for _, arm := range x.Whens {
			w, err := rowEval(arm.When, row)
			if err != nil {
				return types.Null, err
			}
			hit := !w.IsNull() && w.Kind() == types.KindBool && w.Bool()
			if x.Operand != nil {
				hit = types.Equal(opv, w)
			}
			if hit {
				return rowEval(arm.Then, row)
			}
		}
		if x.Else != nil {
			return rowEval(x.Else, row)
		}
		return types.Null, nil
	case *InExpr:
		v, err := rowEval(x.E, row)
		if err != nil || v.IsNull() {
			return types.Null, err
		}
		sawNull := false
		for _, item := range x.List {
			iv, err := rowEval(item, row)
			switch {
			case err != nil:
				return types.Null, err
			case iv.IsNull():
				sawNull = true
			case types.Equal(v, iv):
				return types.NewBool(!x.Not), nil
			}
		}
		if sawNull {
			return types.Null, nil
		}
		return types.NewBool(x.Not), nil
	}
	return types.Null, fmt.Errorf("oracle: no row semantics for %T", e)
}

// tableRows reads a table back in row-id order through columnar's own
// per-row materialization — not through ScanOp or the vector decode it
// uses — so it is the oracles' input.
func tableRows(t testing.TB, tbl *columnar.Table) []types.Row {
	t.Helper()
	var rows []types.Row
	snap := tbl.Snapshot()
	defer snap.Release()
	err := snap.Scan(nil, nil, 1, nil, func(_ int, b *columnar.Batch) bool {
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
	v, err := rowEval(e, r)
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

// oracleSort is ORDER BY row by row, the way SortOp once ran it: every
// row's key values boxed into a key row of their own, sort.SliceStable over
// the row positions with types.Compare key by key, a DESC key's comparison
// flipped. Equal keys keep input order.
func oracleSort(t testing.TB, rows []types.Row, keys []SortKey) []types.Row {
	t.Helper()
	exprs := make([]Expr, len(keys))
	for j, k := range keys {
		exprs[j] = k.Expr
	}
	keyRows := oracleProject(t, rows, exprs)
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for j, k := range keys {
			c := types.Compare(keyRows[idx[a]][j], keyRows[idx[b]][j])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := make([]types.Row, len(rows))
	for i, ix := range idx {
		out[i] = rows[ix]
	}
	return out
}

// errOracleOverflow is what oracleGroupByErr reports when an integer SUM's
// exact total leaves int64: the operator's answer is then an error too.
var errOracleOverflow = errors.New("oracle: integer SUM total outside int64")

// oracleGroupBy is GROUP BY by sorting: rows are stably ordered by their key
// (types.Compare: NULLs first and equal to each other, NaN last and equal to
// itself), each run of equal keys is one group, and every aggregate is
// computed from the run's values in input order — sums, means and moments in
// arbitrary precision, so the reference never rounds or wraps before the
// end. Output is in key order, key columns then aggregates, one row over
// empty input when there are no keys — GroupByOp's contract.
func oracleGroupBy(t testing.TB, rows []types.Row, keys []Expr, aggs []AggSpec) []types.Row {
	t.Helper()
	out, err := oracleGroupByErr(t, rows, keys, aggs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func oracleGroupByErr(t testing.TB, rows []types.Row, keys []Expr, aggs []AggSpec) ([]types.Row, error) {
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
	var failed error
	emit := func(group []keyed) {
		var row types.Row
		if len(group) > 0 {
			row = append(row, group[0].key...)
		}
		for _, a := range aggs {
			// The group's argument values: NULLs dropped, for a two-argument
			// aggregate the pairs with either side NULL.
			var vals, vals2 []types.Value
			for _, kr := range group {
				if a.Func == AggCountStar {
					break
				}
				v, v2 := evalOrFatal(t, a.Arg, kr.row), types.NewInt(0)
				if a.Arg2 != nil {
					v2 = evalOrFatal(t, a.Arg2, kr.row)
				}
				if !v.IsNull() && !v2.IsNull() {
					vals, vals2 = append(vals, v), append(vals2, v2)
				}
			}
			v, err := oracleAgg(t, a, len(group), vals, vals2)
			if err != nil {
				failed = err
			}
			row = append(row, v)
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
	return out, failed
}

// bigFloat is x in enough precision that no sum below rounds.
func bigFloat(x float64) *big.Float { return new(big.Float).SetPrec(400).SetFloat64(x) }

func oracleAgg(t testing.TB, a AggSpec, n int, vals, vals2 []types.Value) (types.Value, error) {
	t.Helper()
	switch a.Func {
	case AggCountStar:
		return types.NewInt(int64(n)), nil
	case AggCount:
		return types.NewInt(int64(len(vals))), nil
	case AggCountDistinct:
		sorted := append([]types.Value{}, vals...)
		sort.Slice(sorted, func(a, b int) bool { return types.Compare(sorted[a], sorted[b]) < 0 })
		d := 0
		for i := range sorted {
			if i == 0 || types.Compare(sorted[i-1], sorted[i]) != 0 {
				d++
			}
		}
		return types.NewInt(int64(d)), nil
	}
	if len(vals) == 0 {
		return types.Null, nil
	}
	floats := func(vs []types.Value) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			x, ok := v.AsFloat()
			if !ok {
				t.Fatalf("oracle: non-numeric %v in aggregate %d", v, a.Func)
			}
			out[i] = x
		}
		return out
	}
	switch a.Func {
	case AggSum, AggAvg:
		// BIGINT inputs total exactly; everything else is a float sum.
		isum, fsum, float := new(big.Int), 0.0, false
		for i, x := range floats(vals) {
			switch vals[i].Kind() {
			case types.KindInt:
				isum.Add(isum, big.NewInt(vals[i].Int()))
				continue
			case types.KindFloat:
				float = true
			}
			fsum += x
		}
		total, _ := new(big.Float).SetInt(isum).Float64()
		switch total += fsum; {
		case a.Func == AggAvg:
			return types.NewFloat(total / float64(len(vals))), nil
		case float:
			return types.NewFloat(total), nil
		case !isum.IsInt64():
			return types.Null, errOracleOverflow
		}
		return types.NewInt(isum.Int64()), nil
	case AggMin, AggMax:
		best := vals[0]
		for _, v := range vals[1:] {
			if c := types.Compare(v, best); a.Func == AggMin && c < 0 || a.Func == AggMax && c > 0 {
				best = v
			}
		}
		return best, nil
	case AggMedian, AggPercentileCont, AggPercentileDisc:
		xs := floats(vals)
		sort.Float64s(xs)
		p := a.Param
		if a.Func == AggMedian {
			p = 0.5
		}
		if a.Func == AggPercentileDisc {
			return types.NewFloat(xs[max(int(math.Ceil(p*float64(len(xs))))-1, 0)]), nil
		}
		pos := p * float64(len(xs)-1)
		lo, frac := int(pos), pos-math.Floor(pos)
		if frac == 0 {
			return types.NewFloat(xs[lo]), nil
		}
		return types.NewFloat(xs[lo]*(1-frac) + xs[lo+1]*frac), nil
	}
	// The moment family, two passes: the co-moment about the exact means.
	xs, ys := floats(vals), floats(vals)
	covar := a.Func == AggCovarPop || a.Func == AggCovarSamp
	if covar {
		ys = floats(vals2)
	}
	div := float64(len(xs))
	if a.Func == AggStddevSamp || a.Func == AggVarSamp || a.Func == AggCovarSamp {
		div--
	}
	if div <= 0 {
		return types.Null, nil
	}
	mx, my := new(big.Float).SetPrec(400), new(big.Float).SetPrec(400)
	for i := range xs {
		mx.Add(mx, bigFloat(xs[i]))
		my.Add(my, bigFloat(ys[i]))
	}
	mx.Quo(mx, bigFloat(float64(len(xs))))
	my.Quo(my, bigFloat(float64(len(xs))))
	c := new(big.Float).SetPrec(400)
	for i := range xs {
		dx, dy := bigFloat(xs[i]), bigFloat(ys[i])
		c.Add(c, dx.Mul(dx.Sub(dx, mx), dy.Sub(dy, my)))
	}
	v, _ := c.Quo(c, bigFloat(div)).Float64()
	if a.Func == AggStddevPop || a.Func == AggStddevSamp {
		v = math.Sqrt(v)
	}
	return types.NewFloat(v), nil
}

// and3 / or3 / not3 are SQL three-valued logic over BOOLEAN values where
// NULL stands for UNKNOWN (truthiness via Value.Bool), one pair of values
// at a time: the oracle's AND, OR and NOT.
func and3(a, b types.Value) types.Value {
	af, bf := !a.IsNull() && !a.Bool(), !b.IsNull() && !b.Bool()
	if af || bf {
		return types.NewBool(false)
	}
	if a.IsNull() || b.IsNull() {
		return types.Null
	}
	return types.NewBool(true)
}

func or3(a, b types.Value) types.Value {
	at, bt := !a.IsNull() && a.Bool(), !b.IsNull() && b.Bool()
	if at || bt {
		return types.NewBool(true)
	}
	if a.IsNull() || b.IsNull() {
		return types.Null
	}
	return types.NewBool(false)
}

func not3(a types.Value) types.Value {
	if a.IsNull() {
		return types.Null
	}
	return types.NewBool(!a.Bool())
}
