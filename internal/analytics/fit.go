package analytics

import (
	"fmt"
	"math"
	"strings"

	"dashdb/internal/core"
	"dashdb/internal/sql"
	"dashdb/internal/types"
)

// Engine runs a fit's statements where the table lives: one engine's
// session, or a cluster, where each statement is an ordinary partial
// aggregate every shard computes over its own rows, so only sums cross
// the wire. Select returns the statement's rows in the Result's Batches.
type Engine interface {
	TableSchema(table string) (types.Schema, error)
	Select(sel *sql.SelectStmt) (*core.Result, error)
}

// GLMFamily selects the generalized linear model link.
type GLMFamily uint8

const (
	// Gaussian is ordinary least-squares linear regression.
	Gaussian GLMFamily = iota
	// Binomial is logistic regression.
	Binomial
)

// GLMModel is a fitted generalized linear model — the "ready to use
// analytic algorithms like GLM" of §II.D.
type GLMModel struct {
	Weights   []float64 // per feature
	Intercept float64
	Family    GLMFamily
	RSquared  float64 // Gaussian only: the coefficient of determination
}

// Predict scores one feature vector: the linear predictor for Gaussian,
// its logistic for Binomial.
func (m *GLMModel) Predict(x []float64) float64 {
	pred := m.Intercept
	for i, w := range m.Weights {
		pred += w * x[i]
	}
	if m.Family == Binomial {
		return 1 / (1 + math.Exp(-pred))
	}
	return pred
}

// KMeansModel is a fitted k-means clustering.
type KMeansModel struct {
	Centers    [][]float64
	Sizes      []int64 // rows nearest each center in the last assignment
	Iterations int     // assignment statements run
}

// Fixed bounds of the iterative fits.
const (
	irlsSteps   = 25    // Newton steps of a logistic fit
	irlsTol     = 1e-10 // a step below irlsTol·(1+max|β|) has converged
	kmeansIters = 50    // assignment statements of a k-means fit
	// maxK bounds k: the nearest-center CASE holds k(k-1)/2 comparisons.
	maxK = 64
)

// source is what a fit reads: the rows of one table that an optional
// filter admits and that hold no NULL in a used column, each used column
// read as a DOUBLE — an integer column as CAST(c AS DOUBLE), so no sum of
// its products can overflow.
type source struct {
	e     Engine
	table string
	where sql.Expr
	cols  []sql.Expr // label first for a GLM
}

// newSource checks every name and the filter against the table before any
// statement runs. No argument text becomes statement text: the names
// become column references, and the filter is parsed into a tree that may
// read only the table's own columns.
func newSource(e Engine, table, where string, names []string) (*source, error) {
	if err := checkNames(append(names, table)...); err != nil {
		return nil, err
	}
	sch, err := e.TableSchema(table)
	if err != nil {
		return nil, err
	}
	s := &source{e: e, table: table}
	var filter []sql.Expr
	if where != "" {
		w, err := sql.ParseExpr(where, sql.DialectANSI)
		if err != nil {
			return nil, err
		}
		if err := sql.CheckTableFilter(w, table, sch); err != nil {
			return nil, err
		}
		filter = append(filter, w)
	}
	for _, n := range names {
		ref := &sql.ColumnRef{Column: n}
		if i := strings.IndexByte(n, '.'); i >= 0 {
			ref = &sql.ColumnRef{Table: n[:i], Column: n[i+1:]}
		}
		if err := sql.CheckTableFilter(ref, table, sch); err != nil {
			return nil, err
		}
		k := sch[sch.ColumnIndex(ref.Column)].Kind
		if k != types.KindInt && k != types.KindFloat {
			return nil, fmt.Errorf("analytics: column %s of %s is %s, not numeric", n, table, k)
		}
		filter = append(filter, &sql.IsNullExpr{Expr: ref, Not: true})
		if k == types.KindInt {
			s.cols = append(s.cols, &sql.CastExpr{Expr: ref, Type: "DOUBLE"})
		} else {
			s.cols = append(s.cols, ref)
		}
	}
	s.where = chain("AND", filter...)
	return s, nil
}

// query runs SELECT [group,] items FROM table WHERE filter [GROUP BY
// group] and returns its rows as floats, read from the column vectors of
// its batches; a NULL (a SUM over no rows) means the source has no usable
// rows.
func (s *source) query(group sql.Expr, items ...sql.Expr) ([][]float64, error) {
	sel := &sql.SelectStmt{From: []sql.FromItem{&sql.TableRef{Name: s.table}}, Where: s.where, Limit: -1}
	if group != nil {
		sel.GroupBy = []sql.Expr{group}
		items = append([]sql.Expr{group}, items...)
	}
	for _, it := range items {
		sel.Items = append(sel.Items, sql.SelectItem{Expr: it})
	}
	r, err := s.e.Select(sel)
	if err != nil {
		return nil, err
	}
	var out [][]float64
	for _, b := range r.Batches {
		for _, i := range b.Idx() {
			row := make([]float64, b.NumCols())
			for j := range row {
				f, ok := b.Col(j).Get(i).AsFloat()
				if !ok {
					return nil, fmt.Errorf("analytics: no usable rows in %s", s.table)
				}
				row[j] = f
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func lit(v float64) sql.Expr { return &sql.Literal{Val: types.NewFloat(v)} }

func bin(op string, l, r sql.Expr) sql.Expr { return &sql.BinaryOp{Op: op, Left: l, Right: r} }

func call(name string, arg sql.Expr) sql.Expr {
	return &sql.FuncCall{Name: name, Args: []sql.Expr{arg}}
}

// chain joins the expressions that are not nil with op, left to right;
// nil when none is.
func chain(op string, es ...sql.Expr) sql.Expr {
	var out sql.Expr
	for _, e := range es {
		switch {
		case e == nil:
		case out == nil:
			out = e
		default:
			out = bin(op, out, e)
		}
	}
	return out
}

// sum is SUM of the product of the factors that are not nil, COUNT(*)
// when none is.
func sum(factors ...sql.Expr) sql.Expr {
	if p := chain("*", factors...); p != nil {
		return call("SUM", p)
	}
	return &sql.FuncCall{Name: "COUNT", Star: true}
}

// linear is b[0] + Σ b[i]·x_i over the feature columns.
func (s *source) linear(b []float64) sql.Expr {
	e := lit(b[0])
	for i, x := range s.cols[1:] {
		e = bin("+", e, bin("*", lit(b[i+1]), x))
	}
	return e
}

// normal runs the one statement of a weighted least-squares system over
// z = (1, x_1 … x_p): a[i][j] = Σ w·z_i·z_j and b[i] = Σ r·z_i, where a
// nil w or r stands for 1.
func (s *source) normal(w, r sql.Expr) (a [][]float64, b []float64, err error) {
	z := append([]sql.Expr{nil}, s.cols[1:]...)
	var items []sql.Expr
	for i := range z {
		for j := i; j < len(z); j++ {
			items = append(items, sum(w, z[i], z[j]))
		}
	}
	for i := range z {
		items = append(items, sum(r, z[i]))
	}
	rows, err := s.query(nil, items...)
	if err != nil {
		return nil, nil, err
	}
	v := rows[0]
	a = make([][]float64, len(z))
	for i := range a {
		a[i] = make([]float64, len(z))
	}
	for i := range z {
		for j := i; j < len(z); j++ {
			a[i][j], a[j][i], v = v[0], v[0], v[1:]
		}
	}
	return a, v, nil
}

// TrainGLM fits a GLM of label on features over the rows of table that
// where (optional SQL over the table's columns) admits, skipping rows with
// a NULL in a used column. Gaussian solves the normal equations of one
// statement of sums and reports R² from a second. Binomial runs IRLS from
// β = 0: each Newton step is one statement of the weighted cross-products
// and the gradient, and the fit stops after irlsSteps steps, at a step
// below irlsTol·(1+max|β|) or at a singular system (separable data drives
// the weights to 0), keeping the last β.
func TrainGLM(e Engine, table, where, label string, features []string, family GLMFamily) (*GLMModel, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("analytics: a GLM needs a feature column")
	}
	s, err := newSource(e, table, where, append([]string{label}, features...))
	if err != nil {
		return nil, err
	}
	y := s.cols[0]
	var beta []float64
	m := &GLMModel{Family: family}
	if family == Binomial {
		beta = make([]float64, len(s.cols))
		for range irlsSteps {
			negEta := &sql.UnaryOp{Op: "-", Expr: s.linear(beta)}
			p := bin("/", lit(1), bin("+", lit(1), call("EXP", negEta)))
			a, g, err := s.normal(bin("*", p, bin("-", lit(1), p)), bin("-", y, p))
			if err != nil {
				return nil, err
			}
			step, err := solve(a, g)
			if err != nil {
				break
			}
			big, moved := 0.0, 0.0
			for i := range beta {
				beta[i] += step[i]
				big, moved = math.Max(big, math.Abs(beta[i])), math.Max(moved, math.Abs(step[i]))
			}
			if moved < irlsTol*(1+big) {
				break
			}
		}
	} else {
		a, b, err := s.normal(nil, y)
		if err != nil {
			return nil, err
		}
		mean := b[0] / a[0][0]
		if beta, err = solve(a, b); err != nil {
			return nil, err
		}
		res := bin("-", y, s.linear(beta))
		dev := bin("-", y, lit(mean))
		ss, err := s.query(nil, sum(res, res), sum(dev, dev))
		if err != nil {
			return nil, err
		}
		m.RSquared = 1
		if ss[0][1] > 0 {
			m.RSquared = 1 - ss[0][0]/ss[0][1]
		}
	}
	m.Intercept, m.Weights = beta[0], beta[1:]
	return m, nil
}

// solve performs Gaussian elimination with partial pivoting.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		best := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[best][col]) {
				best = r
			}
		}
		if math.Abs(a[best][col]) < 1e-12 {
			return nil, fmt.Errorf("analytics: singular design matrix (collinear features)")
		}
		a[col], a[best] = a[best], a[col]
		b[col], b[best] = b[best], b[col]
		for r := col + 1; r < n; r++ {
			factor := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= factor * a[col][c]
			}
			b[r] -= factor * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}

// KMeans clusters the rows of table that where admits into k groups by
// Lloyd's algorithm. Center i starts at MIN + (2i+1)/(2k)·(MAX−MIN) of
// each feature, from one statement; then each iteration is one statement
// grouping the rows by their nearest center (the first of equals) with
// COUNT(*) and SUM of each feature, and each center moves to its group's
// mean — an empty group keeps its center — until no center moves or after
// kmeansIters statements.
func KMeans(e Engine, table, where string, features []string, k int) (*KMeansModel, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("analytics: k-means needs a feature column")
	}
	if k < 1 || k > maxK {
		return nil, fmt.Errorf("analytics: k must be an integer from 1 to %d", maxK)
	}
	s, err := newSource(e, table, where, features)
	if err != nil {
		return nil, err
	}
	items := []sql.Expr{sum()}
	for _, x := range s.cols {
		items = append(items, call("MIN", x), call("MAX", x))
	}
	seed, err := s.query(nil, items...)
	if err != nil {
		return nil, err
	}
	if n := int(seed[0][0]); n < k {
		return nil, fmt.Errorf("analytics: need at least k=%d rows, have %d", k, n)
	}
	m := &KMeansModel{Centers: make([][]float64, k), Sizes: make([]int64, k)}
	for c := range m.Centers {
		for i := range s.cols {
			lo, hi := seed[0][1+2*i], seed[0][2+2*i]
			m.Centers[c] = append(m.Centers[c], lo+float64(2*c+1)/float64(2*k)*(hi-lo))
		}
	}
	items = []sql.Expr{sum()}
	for _, x := range s.cols {
		items = append(items, sum(x))
	}
	for m.Iterations < kmeansIters {
		m.Iterations++
		group := s.nearest(m.Centers)
		rows, err := s.query(group, items...)
		if err != nil {
			return nil, err
		}
		clear(m.Sizes)
		moved := false
		for _, row := range rows {
			if group == nil {
				row = append([]float64{0}, row...)
			}
			c := int(row[0])
			m.Sizes[c] = int64(row[1])
			for i, total := range row[2:] {
				v := total / row[1]
				moved = moved || v != m.Centers[c][i]
				m.Centers[c][i] = v
			}
		}
		if !moved {
			break
		}
	}
	return m, nil
}

// nearest is the index of a row's nearest center, the first of equals:
// CASE WHEN d_0 <= d_1 AND … AND d_0 <= d_k-1 THEN 0 WHEN d_1 <= d_2 …
// ELSE k-1 END over the squared distances d_c; 0 for one center.
func (s *source) nearest(centers [][]float64) sql.Expr {
	dist := func(c int) sql.Expr {
		var sq []sql.Expr
		for i, x := range s.cols {
			diff := bin("-", x, lit(centers[c][i]))
			sq = append(sq, bin("*", diff, diff))
		}
		return chain("+", sq...)
	}
	last := len(centers) - 1
	if last == 0 {
		return nil
	}
	cs := &sql.CaseExpr{Else: &sql.Literal{Val: types.NewInt(int64(last))}}
	for c := range last {
		var le []sql.Expr
		for o := c + 1; o <= last; o++ {
			le = append(le, bin("<=", dist(c), dist(o)))
		}
		cs.Whens = append(cs.Whens, sql.CaseWhen{When: chain("AND", le...), Then: &sql.Literal{Val: types.NewInt(int64(c))}})
	}
	return cs
}
