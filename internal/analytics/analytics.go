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
// The fits behind them (fit.go) are this repository's one ML library: the
// integrated Spark runtime's TrainGLM and KMeans call the same code over
// a cluster. Each fit is a few aggregate statements over the table, so
// the work runs where the data is and only sums reach the caller.
package analytics

import (
	"fmt"
	"regexp"
	"strings"

	"dashdb/internal/core"
	"dashdb/internal/sql"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// RegisterProcedures installs the analytic routines on the engine.
func RegisterProcedures(db *core.DB) {
	db.RegisterProcedure("SUMMARY_STATS", summaryStats)
	db.RegisterProcedure("LINEAR_REGRESSION", func(s *core.Session, args []types.Value) (*core.Result, error) {
		return regression(s, args, "LINEAR_REGRESSION", Gaussian)
	})
	db.RegisterProcedure("LOGISTIC_REGRESSION", func(s *core.Session, args []types.Value) (*core.Result, error) {
		return regression(s, args, "LOGISTIC_REGRESSION", Binomial)
	})
	db.RegisterProcedure("KMEANS", kmeansProc)
}

// session runs a procedure's fit on the calling session's engine.
type session struct{ *core.Session }

func (s session) Select(sel *sql.SelectStmt) (*core.Result, error) {
	return core.Batched(func(emit func(*vec.Batch) error) (*core.Result, error) { return s.StreamParsed(sel, emit) })
}

// identifier is a plain SQL identifier, optionally qualified by one
// more: the only text a table or column argument may hold.
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

// regression fits a GLM of the family and returns one row per term: the
// intercept, each feature and, for linear regression, R².
func regression(s *core.Session, args []types.Value, name string, family GLMFamily) (*core.Result, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("analytics: %s expects (table, label, features)", name)
	}
	features := splitCols(args[2].Str())
	m, err := TrainGLM(session{s}, args[0].Str(), "", args[1].Str(), features, family)
	if err != nil {
		return nil, err
	}
	term := func(name string, v float64) types.Row { return types.Row{types.NewString(name), types.NewFloat(v)} }
	out := &core.Result{Columns: []string{"TERM", "COEFFICIENT"}, Rows: []types.Row{term("(intercept)", m.Intercept)}}
	for i, f := range features {
		out.Rows = append(out.Rows, term(f, m.Weights[i]))
	}
	if family == Gaussian {
		out.Rows = append(out.Rows, term("(r_squared)", m.RSquared))
	}
	return out, nil
}

// kmeansProc clusters the feature columns into k groups: one row per
// cluster with its size and center.
func kmeansProc(s *core.Session, args []types.Value) (*core.Result, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("analytics: KMEANS expects (table, features, k)")
	}
	features := splitCols(args[1].Str())
	k, ok := args[2].AsInt()
	if !ok {
		return nil, fmt.Errorf("analytics: k must be a positive integer")
	}
	m, err := KMeans(session{s}, args[0].Str(), "", features, int(k))
	if err != nil {
		return nil, err
	}
	out := &core.Result{Columns: append([]string{"CLUSTER", "SIZE"}, features...)}
	for c, center := range m.Centers {
		row := types.Row{types.NewInt(int64(c)), types.NewInt(m.Sizes[c])}
		for _, v := range center {
			row = append(row, types.NewFloat(v))
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
