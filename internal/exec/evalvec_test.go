package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// This file holds every expression node to the one oracle: for generated
// expression trees over generated batches, evaluating the tree a batch at a
// time (EvalVec — typed kernels, generic arms, ApplyExpr, lazy CASE and IN)
// must equal rowEval (oracle_test.go) on every live row, values and errors
// both.

// evalCols is the generated row shape: small ints with many zeros (division
// by zero), wide ints, floats with NaN/±0/±Inf, low-cardinality strings,
// booleans, dates, and a column whose kind varies from row to row.
var evalCols = types.Schema{
	{Name: "z", Kind: types.KindInt, Nullable: true},
	{Name: "w", Kind: types.KindInt, Nullable: true},
	{Name: "f", Kind: types.KindFloat, Nullable: true},
	{Name: "s", Kind: types.KindString, Nullable: true},
	{Name: "b", Kind: types.KindBool, Nullable: true},
	{Name: "d", Kind: types.KindDate, Nullable: true},
	{Name: "m", Nullable: true},
}

const evalMixedCol = 6

var evalFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2.25, -3.75, 1e18, math.NaN(), math.Inf(1), math.Inf(-1)}

// randValue draws a value for column c: NULL one time in eight.
func randValue(rng *rand.Rand, c int) types.Value {
	if rng.Intn(8) == 0 {
		return types.NullOf(evalCols[c].Kind)
	}
	switch c {
	case 0:
		return types.NewInt(int64(rng.Intn(5) - 2))
	case 1:
		return types.NewInt([]int64{math.MinInt64, math.MaxInt64, -1, 7, 1 << 40}[rng.Intn(5)] + int64(rng.Intn(3)))
	case 2:
		return types.NewFloat(evalFloats[rng.Intn(len(evalFloats))])
	case 3:
		return types.NewString([]string{"", "a", "b", "12", " 3.5 ", "zz"}[rng.Intn(6)])
	case 4:
		return types.NewBool(rng.Intn(2) == 0)
	case 5:
		return types.NewDate(int64(17000 + rng.Intn(4)))
	}
	return randValue(rng, rng.Intn(evalMixedCol))
}

// evalData is one generated row set; constant[c] marks columns in which
// every row holds the same value, which may ride as a Const vector.
type evalData struct {
	rows     []types.Row
	constant []bool
}

func randEvalData(rng *rand.Rand) evalData {
	d := evalData{rows: make([]types.Row, 1+rng.Intn(70)), constant: make([]bool, len(evalCols))}
	fixed := make(types.Row, len(evalCols))
	for c := range evalCols {
		d.constant[c] = rng.Intn(6) == 0
		fixed[c] = randValue(rng, c)
	}
	for i := range d.rows {
		d.rows[i] = make(types.Row, len(evalCols))
		for c := range evalCols {
			if d.rows[i][c] = fixed[c]; !d.constant[c] {
				d.rows[i][c] = randValue(rng, c)
			}
		}
	}
	return d
}

// batches renders the rows in every form an operator can be handed: typed
// column vectors (the mixed column boxed), the same with constant columns
// broadcast, dictionary-encoded string/int/date columns, and a batch built
// from the rows (vec.FromRows) — each under a random selection, which is sometimes empty.
func (d evalData) batches(rng *rand.Rand) map[string]*vec.Batch {
	typed := func(c int) *vec.Vector {
		kind := evalCols[c].Kind // KindNull for the mixed column: boxed
		v := vec.New(kind, len(d.rows))
		for i, r := range d.rows {
			v.Set(i, r[c])
		}
		return v
	}
	coded := func(c int) *vec.Vector {
		dict := encoding.NewDict(evalCols[c].Kind)
		for _, r := range d.rows {
			if !r[c].IsNull() {
				dict.Encode(r[c])
			}
		}
		v := vec.NewCodes(evalCols[c].Kind, len(d.rows), dict)
		for i, r := range d.rows {
			if r[c].IsNull() {
				v.SetNull(i)
			} else {
				v.Codes[i] = dict.Encode(r[c]) // already in the domain: its code
			}
		}
		return v
	}
	build := func(col func(c int) *vec.Vector) *vec.Batch {
		cols := make([]*vec.Vector, len(evalCols))
		for c := range cols {
			cols[c] = col(c)
		}
		return vec.NewBatch(evalCols, cols, len(d.rows))
	}
	out := map[string]*vec.Batch{
		"typed": build(typed),
		"const": build(func(c int) *vec.Vector {
			if d.constant[c] {
				return vec.NewConst(d.rows[0][c])
			}
			return typed(c)
		}),
		"dictionary": build(func(c int) *vec.Vector {
			if c == 0 || c == 1 || c == 3 || c == 5 {
				return coded(c)
			}
			return typed(c)
		}),
		"from rows": vec.FromRows(evalCols, d.rows),
	}
	for _, b := range out {
		switch rng.Intn(4) {
		case 0: // dense
		case 1:
			b.Sel = []int{}
		default:
			for i := range d.rows {
				if rng.Intn(3) > 0 {
					b.Sel = append(b.Sel, i)
				}
			}
			if b.Sel == nil {
				b.Sel = []int{}
			}
		}
	}
	return out
}

var errOpaque = errors.New("opaque function refuses this row")

// identity is a pure one-argument ApplyExpr: its argument, boxed and back.
func identity(sub Expr) Expr {
	return &ApplyExpr{Args: []Expr{sub}, Fn: func(a []types.Value) (types.Value, error) { return a[0], nil }}
}

// failOnZ is a pure ApplyExpr that returns sub's value, except that it fails
// on rows whose z is k — wherever it sits in the tree.
func failOnZ(k int64, sub Expr) Expr {
	return &ApplyExpr{Args: []Expr{ColRef(0), sub}, Fn: func(a []types.Value) (types.Value, error) {
		if !a[0].IsNull() && a[0].Int() == k {
			return types.Null, errOpaque
		}
		return a[1], nil
	}}
}

// randExpr draws an expression tree: numeric-shaped (arithmetic over numeric
// leaves) or boolean-shaped (comparisons and IN lists under AND/OR/NOT),
// with pure ApplyExprs wrapped around some subtrees, searched and simple
// CASE of either shape, and an off-shape operand now and then so type errors
// and non-boolean truthiness are exercised too.
func randExpr(rng *rand.Rand, depth int, boolean bool) Expr {
	if rng.Intn(10) == 0 {
		boolean = !boolean
	}
	if rng.Intn(7) == 0 && depth > 0 {
		sub := randExpr(rng, depth-1, boolean)
		if rng.Intn(4) == 0 {
			return failOnZ(2, sub)
		}
		return identity(sub)
	}
	if depth == 0 || rng.Intn(4) == 0 {
		numeric := []int{0, 1, 2, 5, evalMixedCol}
		c := numeric[rng.Intn(len(numeric))]
		if boolean {
			c = 4
		} else if rng.Intn(8) == 0 {
			c = 3
		}
		if rng.Intn(3) == 0 {
			return Const{V: randValue(rng, c)}
		}
		return ColRef(c)
	}
	sub := func(boolean bool) Expr { return randExpr(rng, depth-1, boolean) }
	if rng.Intn(6) == 0 {
		return randCase(rng, boolean, sub)
	}
	if !boolean {
		if rng.Intn(5) == 0 {
			return &NegExpr{E: sub(false)}
		}
		return &ArithExpr{Op: []string{"+", "-", "*", "/", "%"}[rng.Intn(5)], L: sub(false), R: sub(false)}
	}
	switch rng.Intn(6) {
	case 0:
		return &AndExpr{L: sub(true), R: sub(true)}
	case 1:
		return &OrExpr{L: sub(true), R: sub(true)}
	case 2:
		return &NotExpr{E: sub(true)}
	case 3:
		return &CmpExpr{Op: encoding.CmpOp(rng.Intn(6)), L: ColRef(3), R: Const{V: randValue(rng, 3)}}
	case 4:
		return randIn(rng, sub)
	}
	return &CmpExpr{Op: encoding.CmpOp(rng.Intn(6)), L: sub(false), R: sub(false)}
}

// randCase draws a searched or simple CASE whose results have the given
// shape. Half the draws guard an arm that fails on z = k behind a WHEN that
// takes exactly those rows first, so only a lazy evaluation succeeds; the
// other arms are random subtrees, failures included.
func randCase(rng *rand.Rand, boolean bool, sub func(bool) Expr) Expr {
	k := int64(rng.Intn(5) - 2)
	kc := Const{V: types.NewInt(k)}
	c := &CaseExpr{}
	simple := rng.Intn(2) == 0
	if simple {
		c.Operand = ColRef(0)
	}
	when := func(v Const) Expr {
		if simple {
			return v
		}
		return &CmpExpr{Op: encoding.OpEQ, L: ColRef(0), R: v}
	}
	guarded := rng.Intn(2) == 0
	if guarded {
		c.Whens = append(c.Whens, CaseWhen{When: when(kc), Then: sub(boolean)})
	}
	for n := rng.Intn(3); n > 0; n-- {
		w := sub(true)
		if simple {
			w = Const{V: randValue(rng, 0)}
		}
		then := sub(boolean)
		if guarded {
			then = failOnZ(k, then) // never reached on a z = k row
		}
		c.Whens = append(c.Whens, CaseWhen{When: w, Then: then})
	}
	switch {
	case guarded:
		c.Else = failOnZ(k, sub(boolean))
	case rng.Intn(3) > 0:
		c.Else = sub(boolean)
	}
	if len(c.Whens) == 0 {
		c.Whens = []CaseWhen{{When: when(kc), Then: sub(boolean)}}
	}
	return c
}

// randIn draws an IN list over a numeric operand: constants, NULLs and
// subtrees, and in half the draws an item that fails on z = k placed after
// the constant k in a list over z itself — reached only if items stay
// evaluated after the first match.
func randIn(rng *rand.Rand, sub func(bool) Expr) Expr {
	in := &InExpr{E: sub(false), Not: rng.Intn(2) == 0}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(4) {
		case 0:
			in.List = append(in.List, Const{V: types.Null})
		case 1:
			in.List = append(in.List, sub(false))
		default:
			in.List = append(in.List, Const{V: randValue(rng, 0)})
		}
	}
	if rng.Intn(2) == 0 {
		k := int64(rng.Intn(5) - 2)
		in.E = ColRef(0)
		in.List = append([]Expr{Const{V: types.NewInt(k)}}, in.List...)
		in.List = append(in.List, failOnZ(k, ColRef(1)))
	}
	return in
}

// exprString renders a generated tree for failure messages.
func exprString(e Expr) string {
	switch x := e.(type) {
	case ColRef:
		return evalCols[x].Name
	case Const:
		return fmt.Sprintf("%v:%v", x.V, x.V.Kind())
	case *CmpExpr:
		return fmt.Sprintf("(%s %v %s)", exprString(x.L), x.Op, exprString(x.R))
	case *ArithExpr:
		return fmt.Sprintf("(%s %s %s)", exprString(x.L), x.Op, exprString(x.R))
	case *AndExpr:
		return fmt.Sprintf("(%s AND %s)", exprString(x.L), exprString(x.R))
	case *OrExpr:
		return fmt.Sprintf("(%s OR %s)", exprString(x.L), exprString(x.R))
	case *NotExpr:
		return "NOT " + exprString(x.E)
	case *NegExpr:
		return "-" + exprString(x.E)
	case *ApplyExpr:
		return "apply" + exprList(x.Args)
	case *InExpr:
		return fmt.Sprintf("(%s IN[not=%v] %s)", exprString(x.E), x.Not, exprList(x.List))
	case *CaseExpr:
		s := "CASE"
		if x.Operand != nil {
			s += " " + exprString(x.Operand)
		}
		for _, w := range x.Whens {
			s += fmt.Sprintf(" WHEN %s THEN %s", exprString(w.When), exprString(w.Then))
		}
		if x.Else != nil {
			s += " ELSE " + exprString(x.Else)
		}
		return s + " END"
	}
	return fmt.Sprintf("%T", e)
}

func exprList(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = exprString(e)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// sameValue is exact equality: NULL equals NULL of any kind; otherwise kind
// and payload must match, floats bit for bit except that NaN equals NaN.
func sameValue(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == types.KindFloat {
		x, y := a.Float(), b.Float()
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	return types.Compare(a, b) == 0
}

// checkEvalVecSeed generates one row set and a batch of expressions from
// seed and holds EvalVec to rowEval on every batch form.
func checkEvalVecSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	data := randEvalData(rng)
	for n := 0; n < 12; n++ {
		e := randExpr(rng, 1+rng.Intn(4), rng.Intn(2) == 0)
		for form, b := range data.batches(rng) {
			ctx := fmt.Sprintf("seed %d, %s over a %s batch, %d of %d rows live", seed, exprString(e), form, b.Rows(), b.N)
			// The oracle reads the generated rows, not the batch.
			want := make(map[int]types.Value)
			failures := make(map[string]bool)
			for _, i := range b.Idx() {
				v, err := rowEval(e, data.rows[i])
				if err != nil {
					failures[err.Error()] = true
				}
				want[i] = v
			}
			got, err := e.EvalVec(b)
			if err != nil {
				if !failures[err.Error()] {
					t.Fatalf("%s: EvalVec failed with %q; rowEval fails with %v", ctx, err, failures)
				}
				continue
			}
			if len(failures) > 0 {
				t.Fatalf("%s: EvalVec succeeded; rowEval fails with %v", ctx, failures)
			}
			for _, i := range b.Idx() {
				if g := got.Get(i); !sameValue(g, want[i]) || got.IsNull(i) != want[i].IsNull() {
					t.Fatalf("%s: position %d (row %v): EvalVec %v (%v), rowEval %v (%v)",
						ctx, i, data.rows[i], g, g.Kind(), want[i], want[i].Kind())
				}
			}
		}
	}

	// Rows through the operators: VALUES hands Drain the values it holds,
	// kinds included, and a projection over it returns rowEval's values.
	out, err := Drain(NewValues(evalCols, data.rows))
	if err != nil || len(out) != len(data.rows) {
		t.Fatalf("seed %d: VALUES: %d rows, %v", seed, len(out), err)
	}
	for i := range out {
		for j, v := range out[i] {
			if w := data.rows[i][j]; !sameValue(v, w) || v.Kind() != w.Kind() {
				t.Fatalf("seed %d: VALUES row %d column %d is %v (%v), holds %v (%v)", seed, i, j, v, v.Kind(), w, w.Kind())
			}
		}
	}
	exprs := []Expr{randExpr(rng, 3, true), ColRef(evalMixedCol), randExpr(rng, 2, false)}
	want := make([]types.Row, len(data.rows))
	for i, r := range data.rows {
		want[i] = make(types.Row, len(exprs))
		for j, e := range exprs {
			if want[i][j], err = rowEval(e, r); err != nil {
				return // this draw fails somewhere; the loop above covers errors
			}
		}
	}
	out, err = Drain(&ProjectOp{Child: NewValues(evalCols, data.rows), Exprs: exprs, Out: intSchema("x", "y", "z")})
	if err != nil || len(out) != len(want) {
		t.Fatalf("seed %d: project over VALUES: %d rows, %v", seed, len(out), err)
	}
	for i := range want {
		for j := range want[i] {
			if !sameValue(out[i][j], want[i][j]) {
				t.Fatalf("seed %d: project over VALUES: row %d col %d: %v, rowEval %v", seed, i, j, out[i][j], want[i][j])
			}
		}
	}
}

// TestEvalVecMatchesEval runs the oracle over a fixed range of seeds.
func TestEvalVecMatchesEval(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		checkEvalVecSeed(t, seed)
	}
}

// FuzzEvalVecMatchesEval is the same oracle with the fuzzer choosing seeds,
// so a timed run (scripts/verify.sh under DASHDB_FUZZ=1) keeps drawing new
// trees and batches.
func FuzzEvalVecMatchesEval(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(-7))
	f.Fuzz(checkEvalVecSeed)
}
