package exec

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"dashdb/internal/encoding"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// Sentinel errors raised from per-element kernel loops. The vectorized
// kernels are //dashdb:hotpath: they must not call fmt.Errorf per element,
// so the only errors a kernel can produce are preallocated here.
var (
	errDivisionByZero   = errors.New("sql: division by zero")
	errUnsupportedArith = errors.New("sql: unsupported arithmetic")
)

// Formatted error constructors for the vector dispatch path. Each is
// //dashdb:coldpath: helpers like ArithValue and checkArithOp
// run per batch (or per element on the scalar fallback) from hotpath
// kernels, and an inline fmt.Errorf would both allocate eagerly at the
// call site and push the helper past the inlining budget. Moving the
// formatting here keeps the helpers lean; the allocation happens only
// when the query is already failing.

// errBadArith reports an operator outside {+,-,*,/,%}.
//
//dashdb:coldpath error construction runs only on failing queries
func errBadArith(op string) error {
	return fmt.Errorf("sql: unsupported arithmetic %q", op)
}

// errColumnRange reports a column reference outside the batch.
//
//dashdb:coldpath error construction runs only on failing queries
func errColumnRange(c int) error {
	return fmt.Errorf("exec: column %d out of range", c)
}

// errArithApply reports operands an arithmetic operator cannot combine.
//
//dashdb:coldpath error construction runs only on failing queries
func errArithApply(op string, a, b types.Value) error {
	return fmt.Errorf("sql: cannot apply %s to %v and %v", op, a, b)
}

// errNegate reports a value that cannot be negated.
//
//dashdb:coldpath error construction runs only on failing queries
func errNegate(v types.Value) error {
	return fmt.Errorf("sql: cannot negate %v", v)
}

// checkArithOp validates an arithmetic operator before a kernel loop runs,
// keeping the (allocating) formatted error outside the hotpath functions.
func checkArithOp(op string) error {
	switch op {
	case "+", "-", "*", "/", "%":
		return nil
	}
	return errBadArith(op)
}

// EvalVec implements Expr: a column reference is just the batch vector.
func (c ColRef) EvalVec(b *vec.Batch) (*vec.Vector, error) {
	if int(c) < 0 || int(c) >= b.NumCols() {
		return nil, errColumnRange(int(c))
	}
	return b.Col(int(c)), nil
}

// EvalVec implements Expr: a literal broadcasts as a Const vector.
func (c Const) EvalVec(*vec.Batch) (*vec.Vector, error) {
	return vec.NewConst(c.V), nil
}

// boolAt reads batch position i of a predicate result vector with the
// truthiness rule of and3/or3/not3 (Value.Bool: the integer payload != 0).
//
//dashdb:hotpath
func boolAt(v *vec.Vector, i int) (val, null bool) {
	if v.IsNull(i) {
		return false, true
	}
	if v.I64 != nil {
		return v.I64[v.Ix(i)] != 0, false
	}
	// Boxed, encoded and row-backed vectors answer through Get; a float or
	// string value carries a zero integer payload, hence false.
	return v.Get(i).Bool(), false
}

// numAt reads a numeric vector position as float64 (int promoted).
//
//dashdb:hotpath
func numAt(v *vec.Vector, i int) float64 {
	if v.F64 != nil {
		return v.F64[v.Ix(i)]
	}
	return float64(v.I64[v.Ix(i)])
}

// cmpHolds converts a three-way comparison result into the operator's
// boolean outcome.
//
//dashdb:hotpath
func cmpHolds(op encoding.CmpOp, c int) bool {
	switch op {
	case encoding.OpEQ:
		return c == 0
	case encoding.OpNE:
		return c != 0
	case encoding.OpLT:
		return c < 0
	case encoding.OpLE:
		return c <= 0
	case encoding.OpGT:
		return c > 0
	default: // OpGE
		return c >= 0
	}
}

// cmpFloat64 mirrors types.Compare's float ordering, including NaN
// sorting high, so the typed kernel agrees with CmpOp.Eval exactly.
//
//dashdb:hotpath
func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return 1
	default:
		return -1
	}
}

// CmpExpr is a structured comparison ("a op b", SQL three-valued: NULL
// operands yield NULL).
type CmpExpr struct {
	Op   encoding.CmpOp
	L, R Expr
}

// EvalVec implements Expr with typed fast paths matching
// types.Compare's promotion rules; mixed or boxed operands fall back to a
// per-element generic loop with identical semantics.
//
//dashdb:hotpath
func (e *CmpExpr) EvalVec(b *vec.Batch) (*vec.Vector, error) {
	lv, err := e.L.EvalVec(b)
	if err != nil {
		return nil, err
	}
	rv, err := e.R.EvalVec(b)
	if err != nil {
		return nil, err
	}
	// Encoded operands reaching a generic comparison kernel decode here;
	// predicates the compressed filter path can answer never get this far.
	lv.Materialize()
	rv.Materialize()
	out := vec.New(types.KindBool, b.N)
	op := e.Op
	idx := b.Idx()
	lk, rk := lv.Kind, rv.Kind
	switch {
	case lk == types.KindInt && rk == types.KindInt,
		lk == rk && (lk == types.KindBool || lk == types.KindDate || lk == types.KindTimestamp):
		for _, i := range idx {
			if lv.IsNull(i) || rv.IsNull(i) {
				out.SetNull(i)
				continue
			}
			x, y := lv.I64[lv.Ix(i)], rv.I64[rv.Ix(i)]
			c := 0
			if x < y {
				c = -1
			} else if x > y {
				c = 1
			}
			if cmpHolds(op, c) {
				out.I64[i] = 1
			}
		}
	case lk.Numeric() && rk.Numeric():
		// At least one float: compare in float space like types.Compare.
		for _, i := range idx {
			if lv.IsNull(i) || rv.IsNull(i) {
				out.SetNull(i)
				continue
			}
			if cmpHolds(op, cmpFloat64(numAt(lv, i), numAt(rv, i))) {
				out.I64[i] = 1
			}
		}
	case lk == types.KindString && rk == types.KindString:
		for _, i := range idx {
			if lv.IsNull(i) || rv.IsNull(i) {
				out.SetNull(i)
				continue
			}
			if cmpHolds(op, strings.Compare(lv.Str[lv.Ix(i)], rv.Str[rv.Ix(i)])) {
				out.I64[i] = 1
			}
		}
	default:
		for _, i := range idx {
			a, bv := lv.Get(i), rv.Get(i)
			if a.IsNull() || bv.IsNull() {
				out.SetNull(i)
				continue
			}
			if op.Eval(a, bv) {
				out.I64[i] = 1
			}
		}
	}
	return out, nil
}

// ArithExpr is structured arithmetic ("a op b" for + - * / %) with SQL
// numeric promotion and date ± int day arithmetic.
type ArithExpr struct {
	Op   string
	L, R Expr
}

// ArithValue evaluates arithmetic with SQL numeric promotion; date ± int
// is day arithmetic. It is the scalar reference the vector kernels must
// agree with.
func ArithValue(op string, a, b types.Value) (types.Value, error) {
	if a.IsNull() || b.IsNull() {
		return types.Null, nil
	}
	// Date arithmetic.
	if a.Kind() == types.KindDate && b.Kind() == types.KindInt {
		switch op {
		case "+":
			return types.NewDate(a.Int() + b.Int()), nil
		case "-":
			return types.NewDate(a.Int() - b.Int()), nil
		}
	}
	if a.Kind() == types.KindDate && b.Kind() == types.KindDate && op == "-" {
		return types.NewInt(a.Int() - b.Int()), nil
	}
	if a.Kind() == types.KindInt && b.Kind() == types.KindInt {
		x, y := a.Int(), b.Int()
		switch op {
		case "+":
			return types.NewInt(x + y), nil
		case "-":
			return types.NewInt(x - y), nil
		case "*":
			return types.NewInt(x * y), nil
		case "/":
			if y == 0 {
				return types.Null, errDivisionByZero
			}
			return types.NewInt(x / y), nil
		case "%":
			if y == 0 {
				return types.Null, errDivisionByZero
			}
			return types.NewInt(x % y), nil
		}
	}
	x, ok1 := a.AsFloat()
	y, ok2 := b.AsFloat()
	if !ok1 || !ok2 {
		return types.Null, errArithApply(op, a, b)
	}
	switch op {
	case "+":
		return types.NewFloat(x + y), nil
	case "-":
		return types.NewFloat(x - y), nil
	case "*":
		return types.NewFloat(x * y), nil
	case "/":
		if y == 0 {
			return types.Null, errDivisionByZero
		}
		return types.NewFloat(x / y), nil
	case "%":
		// Modulo runs in int64 space, so |y| < 1 would also divide by zero.
		if int64(y) == 0 {
			return types.Null, errDivisionByZero
		}
		return types.NewFloat(float64(int64(x) % int64(y))), nil
	}
	return types.Null, errBadArith(op)
}

// EvalVec implements Expr.
//
//dashdb:hotpath
func (e *ArithExpr) EvalVec(b *vec.Batch) (*vec.Vector, error) {
	if err := checkArithOp(e.Op); err != nil {
		return nil, err
	}
	lv, err := e.L.EvalVec(b)
	if err != nil {
		return nil, err
	}
	rv, err := e.R.EvalVec(b)
	if err != nil {
		return nil, err
	}
	lv.Materialize()
	rv.Materialize()
	idx := b.Idx()
	op := e.Op
	lk, rk := lv.Kind, rv.Kind
	switch {
	case lk == types.KindInt && rk == types.KindInt:
		out := vec.New(types.KindInt, b.N)
		for _, i := range idx {
			if lv.IsNull(i) || rv.IsNull(i) {
				out.SetNull(i)
				continue
			}
			x, y := lv.I64[lv.Ix(i)], rv.I64[rv.Ix(i)]
			var r int64
			switch op {
			case "+":
				r = x + y
			case "-":
				r = x - y
			case "*":
				r = x * y
			case "/":
				if y == 0 {
					return nil, errDivisionByZero
				}
				r = x / y
			case "%":
				if y == 0 {
					return nil, errDivisionByZero
				}
				r = x % y
			default:
				return nil, errUnsupportedArith
			}
			out.I64[i] = r
		}
		return out, nil
	case lk.Numeric() && rk.Numeric():
		out := vec.New(types.KindFloat, b.N)
		for _, i := range idx {
			if lv.IsNull(i) || rv.IsNull(i) {
				out.SetNull(i)
				continue
			}
			x, y := numAt(lv, i), numAt(rv, i)
			var r float64
			switch op {
			case "+":
				r = x + y
			case "-":
				r = x - y
			case "*":
				r = x * y
			case "/":
				if y == 0 {
					return nil, errDivisionByZero
				}
				r = x / y
			case "%":
				if int64(y) == 0 {
					return nil, errDivisionByZero
				}
				r = float64(int64(x) % int64(y))
			default:
				return nil, errUnsupportedArith
			}
			out.F64[i] = r
		}
		return out, nil
	case lk == types.KindDate && rk == types.KindInt && (op == "+" || op == "-"):
		out := vec.New(types.KindDate, b.N)
		for _, i := range idx {
			if lv.IsNull(i) || rv.IsNull(i) {
				out.SetNull(i)
				continue
			}
			x, y := lv.I64[lv.Ix(i)], rv.I64[rv.Ix(i)]
			if op == "+" {
				out.I64[i] = x + y
			} else {
				out.I64[i] = x - y
			}
		}
		return out, nil
	case lk == types.KindDate && rk == types.KindDate && op == "-":
		out := vec.New(types.KindInt, b.N)
		for _, i := range idx {
			if lv.IsNull(i) || rv.IsNull(i) {
				out.SetNull(i)
				continue
			}
			out.I64[i] = lv.I64[lv.Ix(i)] - rv.I64[rv.Ix(i)]
		}
		return out, nil
	default:
		out := vec.New(types.KindNull, b.N)
		for _, i := range idx {
			v, err := ArithValue(op, lv.Get(i), rv.Get(i))
			if err != nil {
				return nil, err
			}
			out.Set(i, v)
		}
		return out, nil
	}
}

// AndExpr is SQL AND with short-circuit evaluation: where the left operand
// is definite FALSE the right operand is not evaluated, so an error it would
// raise on such a row is never seen.
type AndExpr struct{ L, R Expr }

// EvalVec implements Expr: the right operand is evaluated over a
// sub-selection restricted to rows the left side did not short-circuit.
//
//dashdb:hotpath
func (e *AndExpr) EvalVec(b *vec.Batch) (*vec.Vector, error) {
	lv, err := e.L.EvalVec(b)
	if err != nil {
		return nil, err
	}
	idx := b.Idx()
	out := vec.New(types.KindBool, b.N)
	sub := make([]int, 0, len(idx))
	for _, i := range idx {
		val, null := boolAt(lv, i)
		if null || val {
			sub = append(sub, i)
		}
	}
	if len(sub) == 0 {
		return out, nil // every live row is definite FALSE
	}
	rv, err := e.R.EvalVec(b.WithSel(sub))
	if err != nil {
		return nil, err
	}
	for _, i := range sub {
		// Left here is TRUE or NULL.
		_, lnull := boolAt(lv, i)
		rval, rnull := boolAt(rv, i)
		switch {
		case !rnull && !rval:
			// FALSE: leave the zero value.
		case lnull || rnull:
			out.SetNull(i)
		default:
			out.I64[i] = 1
		}
	}
	return out, nil
}

// OrExpr is SQL OR with short-circuit evaluation (dual of AndExpr).
type OrExpr struct{ L, R Expr }

// EvalVec implements Expr.
//
//dashdb:hotpath
func (e *OrExpr) EvalVec(b *vec.Batch) (*vec.Vector, error) {
	lv, err := e.L.EvalVec(b)
	if err != nil {
		return nil, err
	}
	idx := b.Idx()
	out := vec.New(types.KindBool, b.N)
	sub := make([]int, 0, len(idx))
	for _, i := range idx {
		val, null := boolAt(lv, i)
		if null || !val {
			sub = append(sub, i)
		} else {
			out.I64[i] = 1 // definite TRUE short-circuits
		}
	}
	if len(sub) == 0 {
		return out, nil
	}
	rv, err := e.R.EvalVec(b.WithSel(sub))
	if err != nil {
		return nil, err
	}
	for _, i := range sub {
		// Left here is FALSE or NULL.
		_, lnull := boolAt(lv, i)
		rval, rnull := boolAt(rv, i)
		switch {
		case !rnull && rval:
			out.I64[i] = 1
		case lnull || rnull:
			out.SetNull(i)
		default:
			// FALSE: leave the zero value.
		}
	}
	return out, nil
}

// NotExpr is SQL NOT under three-valued logic.
type NotExpr struct{ E Expr }

// EvalVec implements Expr.
//
//dashdb:hotpath
func (e *NotExpr) EvalVec(b *vec.Batch) (*vec.Vector, error) {
	ev, err := e.E.EvalVec(b)
	if err != nil {
		return nil, err
	}
	out := vec.New(types.KindBool, b.N)
	for _, i := range b.Idx() {
		val, null := boolAt(ev, i)
		if null {
			out.SetNull(i)
		} else if !val {
			out.I64[i] = 1
		}
	}
	return out, nil
}

// NegExpr is unary minus.
type NegExpr struct{ E Expr }

// negValue is the scalar reference for unary minus.
func negValue(v types.Value) (types.Value, error) {
	if v.IsNull() {
		return types.Null, nil
	}
	if v.Kind() == types.KindInt {
		return types.NewInt(-v.Int()), nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return types.Null, errNegate(v)
	}
	return types.NewFloat(-f), nil
}

// EvalVec implements Expr.
//
//dashdb:hotpath
func (e *NegExpr) EvalVec(b *vec.Batch) (*vec.Vector, error) {
	ev, err := e.E.EvalVec(b)
	if err != nil {
		return nil, err
	}
	ev.Materialize()
	idx := b.Idx()
	switch {
	case ev.Kind == types.KindInt:
		out := vec.New(types.KindInt, b.N)
		for _, i := range idx {
			if ev.IsNull(i) {
				out.SetNull(i)
				continue
			}
			out.I64[i] = -ev.I64[ev.Ix(i)]
		}
		return out, nil
	case ev.Kind == types.KindFloat:
		out := vec.New(types.KindFloat, b.N)
		for _, i := range idx {
			if ev.IsNull(i) {
				out.SetNull(i)
				continue
			}
			out.F64[i] = -ev.F64[ev.Ix(i)]
		}
		return out, nil
	default:
		out := vec.New(types.KindNull, b.N)
		for _, i := range idx {
			v, err := negValue(ev.Get(i))
			if err != nil {
				return nil, err
			}
			out.Set(i, v)
		}
		return out, nil
	}
}

// ApplyExpr calls a scalar function once per live position. It is the form
// of every expression without a typed kernel (CAST, LIKE, BETWEEN, IS NULL,
// scalar functions, UDXs, subqueries, sequences): Args are evaluated as
// vectors over the batch — arithmetic under a CAST runs as a kernel, and only
// the argument cells are boxed, never the row — then Fn runs on each live
// position's argument values, in position order. Fn is strict: every argument
// is evaluated before it is called. args is reused from call to call and Fn
// must not retain it.
//
// Stateful marks an Fn whose calls are not independent of each other — a
// sequence, ROWNUM, a subquery materialized on first use, user code. An
// operator holding one is pulled by a single goroutine (concurrentPull) and
// EXPLAIN tags it [row]; nothing else reads the flag. The SQL compiler sets it
// from the kind of AST node it lowers.
type ApplyExpr struct {
	Args     []Expr
	Fn       func(args []types.Value) (types.Value, error)
	Stateful bool
}

// EvalVec implements Expr.
//
//dashdb:hotpath
func (e *ApplyExpr) EvalVec(b *vec.Batch) (*vec.Vector, error) {
	argv := make([]*vec.Vector, len(e.Args))
	for j, a := range e.Args {
		av, err := a.EvalVec(b)
		if err != nil {
			return nil, err
		}
		argv[j] = av
	}
	out := vec.New(types.KindNull, b.N)
	args := make([]types.Value, len(argv))
	for _, i := range b.Idx() {
		for j, av := range argv {
			args[j] = av.Get(i)
		}
		v, err := e.Fn(args)
		if err != nil {
			return nil, err
		}
		out.Any[i] = v
	}
	return out, nil
}

// CaseWhen is one WHEN … THEN … arm of a CaseExpr.
type CaseWhen struct{ When, Then Expr }

// CaseExpr is CASE: searched (Operand nil: the first arm whose When is TRUE)
// or simple (the first arm whose When equals Operand under types.Equal). It
// is lazy the way AND and OR are: each When runs only over the positions no
// earlier arm took, each Then only over the positions its arm took and Else
// over what is left, so an arm that would fail on a row it does not decide
// never sees that row. A nil Else is NULL.
type CaseExpr struct {
	Operand Expr
	Whens   []CaseWhen
	Else    Expr
}

// EvalVec implements Expr.
//
//dashdb:hotpath
func (e *CaseExpr) EvalVec(b *vec.Batch) (*vec.Vector, error) {
	var opv *vec.Vector
	if e.Operand != nil {
		var err error
		if opv, err = e.Operand.EvalVec(b); err != nil {
			return nil, err
		}
	}
	out := vec.New(types.KindNull, b.N)
	rest := b.Idx() // positions no arm has taken yet
	for _, arm := range e.Whens {
		if len(rest) == 0 {
			return out, nil
		}
		wv, err := arm.When.EvalVec(b.WithSel(rest))
		if err != nil {
			return nil, err
		}
		var hit []int
		if opv == nil {
			hit = SelTrue(wv, rest)
		} else {
			for _, i := range rest {
				if types.Equal(opv.Get(i), wv.Get(i)) {
					hit = append(hit, i)
				}
			}
		}
		if err := assignSel(out, arm.Then, b, hit); err != nil {
			return nil, err
		}
		rest = diffSorted(rest, hit)
	}
	els := e.Else
	if els == nil {
		els = Const{V: types.Null}
	}
	return out, assignSel(out, els, b, rest)
}

// assignSel evaluates e over the positions sel of b and stores the values
// into the boxed vector out.
//
//dashdb:hotpath
func assignSel(out *vec.Vector, e Expr, b *vec.Batch, sel []int) error {
	if len(sel) == 0 {
		return nil
	}
	v, err := e.EvalVec(b.WithSel(sel))
	if err != nil {
		return err
	}
	for _, i := range sel {
		out.Any[i] = v.Get(i)
	}
	return nil
}

// diffSorted returns the positions of a that are not in b; both ascending,
// b a subset of a.
//
//dashdb:hotpath
func diffSorted(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)-len(b))
	for _, i := range a {
		if len(b) > 0 && b[0] == i {
			b = b[1:]
			continue
		}
		out = append(out, i)
	}
	return out
}

// InExpr is "E [NOT] IN (List…)" under three-valued logic: TRUE on the first
// item equal to E, NULL when E is NULL or no item matched and one was NULL,
// else FALSE. Items are lazy: each runs only over the positions no earlier
// item matched (and where E is not NULL), so an item after the first match
// stays unevaluated on that row.
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

// EvalVec implements Expr.
//
//dashdb:hotpath
func (e *InExpr) EvalVec(b *vec.Batch) (*vec.Vector, error) {
	ev, err := e.E.EvalVec(b)
	if err != nil {
		return nil, err
	}
	out := vec.New(types.KindBool, b.N)
	rest := make([]int, 0, b.Rows()) // E not NULL, no item matched yet
	for _, i := range b.Idx() {
		if ev.IsNull(i) {
			out.SetNull(i)
		} else {
			rest = append(rest, i)
		}
	}
	var hit int64 // the payload of a match: TRUE, or FALSE under NOT
	if !e.Not {
		hit = 1
	}
	for _, item := range e.List {
		if len(rest) == 0 {
			break
		}
		iv, err := item.EvalVec(b.WithSel(rest))
		if err != nil {
			return nil, err
		}
		open := rest[:0] // compacted in place: rest is this call's own list
		for _, i := range rest {
			switch x := iv.Get(i); {
			case x.IsNull():
				out.SetNull(i) // stands unless a later item matches
				open = append(open, i)
			case types.Equal(ev.Get(i), x):
				out.I64[i] = hit
				if out.Nulls != nil {
					out.Nulls.Clear(i)
				}
			default:
				open = append(open, i)
			}
		}
		rest = open
	}
	for _, i := range rest {
		if !out.IsNull(i) {
			out.I64[i] = 1 - hit
		}
	}
	return out, nil
}

// Stateful reports whether any of the expression trees holds an ApplyExpr
// marked Stateful (see there for who asks).
func Stateful(exprs ...Expr) bool {
	for _, e := range exprs {
		if a, ok := e.(*ApplyExpr); ok && a.Stateful {
			return true
		}
		if Stateful(operands(e)...) {
			return true
		}
	}
	return false
}

// operands lists a node's operand expressions; a leaf, or a node type defined
// outside this package, has none.
func operands(e Expr) []Expr {
	switch x := e.(type) {
	case *CmpExpr:
		return []Expr{x.L, x.R}
	case *ArithExpr:
		return []Expr{x.L, x.R}
	case *AndExpr:
		return []Expr{x.L, x.R}
	case *OrExpr:
		return []Expr{x.L, x.R}
	case *NotExpr:
		return []Expr{x.E}
	case *NegExpr:
		return []Expr{x.E}
	case *ApplyExpr:
		return x.Args
	case *InExpr:
		return append([]Expr{x.E}, x.List...)
	case *CaseExpr:
		var out []Expr
		if x.Operand != nil {
			out = append(out, x.Operand)
		}
		for _, w := range x.Whens {
			out = append(out, w.When, w.Then)
		}
		if x.Else != nil {
			out = append(out, x.Else)
		}
		return out
	}
	return nil
}
