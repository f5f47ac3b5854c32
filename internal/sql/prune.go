package sql

import "strings"

// colUsage records which columns a query references, per table alias.
// It drives projection pruning: a base-table scan fetches only the
// columns of active interest — the essential columnar win of §II.B.3
// ("only active columns of interest to the workload need to be fetched").
type colUsage struct {
	// cols maps lower(alias) -> set of lower(column). Alias "" holds
	// unqualified references, which may belong to any table.
	cols map[string]map[string]bool
	// star marks aliases needing every column ("" = bare SELECT *).
	star map[string]bool
}

func newColUsage() *colUsage {
	return &colUsage{cols: make(map[string]map[string]bool), star: make(map[string]bool)}
}

func (u *colUsage) addRef(table, column string) {
	t := strings.ToLower(table)
	if u.cols[t] == nil {
		u.cols[t] = make(map[string]bool)
	}
	u.cols[t][strings.ToLower(column)] = true
}

// uses reports whether the column may be needed by the given alias.
func (u *colUsage) uses(alias, column string) bool {
	a, c := strings.ToLower(alias), strings.ToLower(column)
	if u.star[""] || u.star[a] {
		return true
	}
	return u.cols[a][c] || u.cols[""][c]
}

// wantsAll reports whether the alias needs every column.
func (u *colUsage) wantsAll(alias string) bool {
	return u.star[""] || u.star[strings.ToLower(alias)]
}

// collectUsage walks the whole statement, conservatively recording every
// column reference (over-inclusion is safe; omission is not).
func collectUsage(sel *SelectStmt, u *colUsage) {
	for _, cte := range sel.With {
		collectUsage(cte.Sub, u)
	}
	for _, it := range sel.Items {
		if st, ok := it.Expr.(*Star); ok {
			u.star[strings.ToLower(st.Table)] = true
			continue
		}
		collectExprUsage(it.Expr, u)
	}
	for _, fi := range sel.From {
		collectFromUsage(fi, u)
	}
	collectExprUsage(sel.Where, u)
	for _, g := range sel.GroupBy {
		collectExprUsage(g, u)
	}
	collectExprUsage(sel.Having, u)
	for _, oi := range sel.OrderBy {
		collectExprUsage(oi.Expr, u)
	}
	if sel.Union != nil {
		collectUsage(sel.Union, u)
	}
}

func collectFromUsage(fi FromItem, u *colUsage) {
	switch f := fi.(type) {
	case *SubqueryRef:
		collectUsage(f.Sub, u)
	case *JoinRef:
		collectFromUsage(f.Left, u)
		collectFromUsage(f.Right, u)
		collectExprUsage(f.On, u)
		for _, c := range f.Using {
			u.addRef("", c)
		}
	}
}

func collectExprUsage(e Expr, u *colUsage) {
	WalkExpr(e, func(x Expr) bool {
		switch ex := x.(type) {
		case *ColumnRef:
			u.addRef(ex.Table, ex.Column)
		case *Star:
			u.star[strings.ToLower(ex.Table)] = true
		default:
			if sub := SubqueryOf(x); sub != nil {
				collectUsage(sub, u)
			}
		}
		return true
	})
}
