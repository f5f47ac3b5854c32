// Package analytics provides the in-database analytics of §II.C.4:
// "drawing from this heritage [Netezza in-database analytics], dashDB has
// developed both R and Python analytics as well as commonly used machine
// learning algorithms" exposed as built-in routines callable from SQL.
//
// RegisterProcedures installs the stored procedures on an engine:
//
//	CALL SUMMARY_STATS('table', 'column')
//	CALL LINEAR_REGRESSION('table', 'label', 'f1,f2,...')
//	CALL LOGISTIC_REGRESSION('table', 'label', 'f1,f2,...')
//	CALL KMEANS('table', 'f1,f2,...', k)
//
// The regression procedures run against the columnar table in place (the
// "bring the compute to the data" principle); linear regression solves
// the normal equations exactly, logistic regression uses gradient
// descent.
package analytics

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"dashdb/internal/core"
	"dashdb/internal/types"
)

// RegisterProcedures installs the analytic routines on the engine.
func RegisterProcedures(db *core.DB) {
	db.RegisterProcedure("SUMMARY_STATS", summaryStats)
	db.RegisterProcedure("LINEAR_REGRESSION", linearRegression)
	db.RegisterProcedure("LOGISTIC_REGRESSION", logisticRegression)
	db.RegisterProcedure("KMEANS", kmeansProc)
}

// identifier is a plain SQL identifier, optionally qualified by one
// more: the only text a procedure's table and column arguments may hold,
// as they are spliced into the statements the procedures run.
var identifier = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?$`)

// checkNames refuses any name that is not an identifier.
func checkNames(names ...string) error {
	for _, n := range names {
		if !identifier.MatchString(n) {
			return fmt.Errorf("analytics: %q is not a table or column name", n)
		}
	}
	return nil
}

// loadMatrix reads the labeled feature matrix from a table.
func loadMatrix(s *core.Session, table, label string, features []string) (X [][]float64, y []float64, err error) {
	cols := append([]string{label}, features...)
	if err := checkNames(append(cols, table)...); err != nil {
		return nil, nil, err
	}
	r, err := s.Query("SELECT " + strings.Join(cols, ", ") + " FROM " + table)
	if err != nil {
		return nil, nil, err
	}
	for _, row := range r.Rows {
		lv, ok := row[0].AsFloat()
		if !ok {
			continue
		}
		vec := make([]float64, len(features))
		skip := false
		for i := 1; i < len(row); i++ {
			f, ok := row[i].AsFloat()
			if !ok {
				skip = true
				break
			}
			vec[i-1] = f
		}
		if skip {
			continue
		}
		X = append(X, vec)
		y = append(y, lv)
	}
	if len(X) == 0 {
		return nil, nil, fmt.Errorf("analytics: no usable rows in %s", table)
	}
	return X, y, nil
}

func splitCols(arg string) []string {
	var out []string
	for _, c := range strings.Split(arg, ",") {
		if c = strings.TrimSpace(c); c != "" {
			out = append(out, c)
		}
	}
	return out
}

// summaryStats returns count/mean/stddev/min/max of a numeric column.
func summaryStats(s *core.Session, args []types.Value) (*core.Result, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("analytics: SUMMARY_STATS expects (table, column)")
	}
	table, col := args[0].Str(), args[1].Str()
	if err := checkNames(table, col); err != nil {
		return nil, err
	}
	r, err := s.Query(fmt.Sprintf(
		`SELECT COUNT(%[1]s), AVG(%[1]s), STDDEV_POP(%[1]s), MIN(%[1]s), MAX(%[1]s), MEDIAN(%[1]s) FROM %[2]s`,
		col, table))
	if err != nil {
		return nil, err
	}
	return &core.Result{
		Columns: []string{"N", "MEAN", "STDDEV", "MIN", "MAX", "MEDIAN"},
		Rows:    r.Rows,
	}, nil
}

// linearRegression solves OLS via the normal equations with Gaussian
// elimination (exact for well-conditioned problems).
func linearRegression(s *core.Session, args []types.Value) (*core.Result, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("analytics: LINEAR_REGRESSION expects (table, label, features)")
	}
	features := splitCols(args[2].Str())
	X, y, err := loadMatrix(s, args[0].Str(), args[1].Str(), features)
	if err != nil {
		return nil, err
	}
	n := len(features) + 1 // +intercept
	// Build XtX and Xty with the intercept as column 0.
	xtx := make([][]float64, n)
	for i := range xtx {
		xtx[i] = make([]float64, n)
	}
	xty := make([]float64, n)
	for r := range X {
		row := append([]float64{1}, X[r]...)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[r]
		}
	}
	beta, err := solve(xtx, xty)
	if err != nil {
		return nil, err
	}
	// R².
	meanY := 0.0
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(len(y))
	var ssRes, ssTot float64
	for r := range X {
		pred := beta[0]
		for i, f := range X[r] {
			pred += beta[i+1] * f
		}
		ssRes += (y[r] - pred) * (y[r] - pred)
		ssTot += (y[r] - meanY) * (y[r] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	out := &core.Result{Columns: []string{"TERM", "COEFFICIENT"}}
	out.Rows = append(out.Rows, types.Row{types.NewString("(intercept)"), types.NewFloat(beta[0])})
	for i, f := range features {
		out.Rows = append(out.Rows, types.Row{types.NewString(f), types.NewFloat(beta[i+1])})
	}
	out.Rows = append(out.Rows, types.Row{types.NewString("(r_squared)"), types.NewFloat(r2)})
	return out, nil
}

// solve performs Gaussian elimination with partial pivoting.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
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

// logisticRegression fits a binomial GLM by gradient descent with
// feature standardization.
func logisticRegression(s *core.Session, args []types.Value) (*core.Result, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("analytics: LOGISTIC_REGRESSION expects (table, label, features)")
	}
	features := splitCols(args[2].Str())
	X, y, err := loadMatrix(s, args[0].Str(), args[1].Str(), features)
	if err != nil {
		return nil, err
	}
	nf := len(features)
	mean := make([]float64, nf)
	scale := make([]float64, nf)
	for i := 0; i < nf; i++ {
		for r := range X {
			mean[i] += X[r][i]
		}
		mean[i] /= float64(len(X))
		for r := range X {
			d := X[r][i] - mean[i]
			scale[i] += d * d
		}
		scale[i] = math.Sqrt(scale[i] / float64(len(X)))
		if scale[i] < 1e-12 {
			scale[i] = 1
		}
	}
	w := make([]float64, nf)
	b := 0.0
	const iters, lr = 400, 0.5
	for it := 0; it < iters; it++ {
		g := make([]float64, nf)
		g0 := 0.0
		for r := range X {
			pred := b
			for i := 0; i < nf; i++ {
				pred += w[i] * (X[r][i] - mean[i]) / scale[i]
			}
			p := 1 / (1 + math.Exp(-pred))
			resid := p - y[r]
			for i := 0; i < nf; i++ {
				g[i] += resid * (X[r][i] - mean[i]) / scale[i]
			}
			g0 += resid
		}
		for i := 0; i < nf; i++ {
			w[i] -= lr * g[i] / float64(len(X))
		}
		b -= lr * g0 / float64(len(X))
	}
	out := &core.Result{Columns: []string{"TERM", "COEFFICIENT"}}
	b0 := b
	for i, f := range features {
		raw := w[i] / scale[i]
		b0 -= w[i] * mean[i] / scale[i]
		out.Rows = append(out.Rows, types.Row{types.NewString(f), types.NewFloat(raw)})
	}
	out.Rows = append([]types.Row{{types.NewString("(intercept)"), types.NewFloat(b0)}}, out.Rows...)
	return out, nil
}

// kmeansProc clusters the feature columns into k groups.
func kmeansProc(s *core.Session, args []types.Value) (*core.Result, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("analytics: KMEANS expects (table, features, k)")
	}
	features := splitCols(args[1].Str())
	if len(features) == 0 {
		return nil, fmt.Errorf("analytics: KMEANS needs a feature column")
	}
	k64, ok := args[2].AsInt()
	if !ok || k64 < 1 {
		return nil, fmt.Errorf("analytics: k must be a positive integer")
	}
	k := int(k64)
	X, _, err := loadMatrix(s, args[0].Str(), features[0], features)
	if err != nil {
		return nil, err
	}
	if len(X) < k {
		return nil, fmt.Errorf("analytics: need at least k=%d rows, have %d", k, len(X))
	}
	nf := len(features)
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = append([]float64(nil), X[i*len(X)/k]...)
	}
	assign := make([]int, len(X))
	for iter := 0; iter < 50; iter++ {
		moved := false
		for r := range X {
			best, bestD := 0, math.Inf(1)
			for ci := range centers {
				d := 0.0
				for i := 0; i < nf; i++ {
					diff := X[r][i] - centers[ci][i]
					d += diff * diff
				}
				if d < bestD {
					best, bestD = ci, d
				}
			}
			if assign[r] != best {
				assign[r] = best
				moved = true
			}
		}
		if !moved && iter > 0 {
			break
		}
		for ci := range centers {
			cnt := 0
			sum := make([]float64, nf)
			for r := range X {
				if assign[r] == ci {
					cnt++
					for i := 0; i < nf; i++ {
						sum[i] += X[r][i]
					}
				}
			}
			if cnt > 0 {
				for i := 0; i < nf; i++ {
					centers[ci][i] = sum[i] / float64(cnt)
				}
			}
		}
	}
	cols := append([]string{"CLUSTER", "SIZE"}, features...)
	out := &core.Result{Columns: cols}
	for ci := range centers {
		size := 0
		for r := range assign {
			if assign[r] == ci {
				size++
			}
		}
		row := types.Row{types.NewInt(int64(ci)), types.NewInt(int64(size))}
		for i := 0; i < nf; i++ {
			row = append(row, types.NewFloat(centers[ci][i]))
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
