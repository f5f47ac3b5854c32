package plan

import (
	"dashdb/internal/columnar"
	"dashdb/internal/encoding"
	"dashdb/internal/exec"
)

// defaultEstRows is the cardinality guess for the inputs that expose no
// size: views and subqueries. A held leaf knows its size exactly.
const defaultEstRows = 1000

// leafInfo is one join-graph relation during lowering: the physical
// operator plus everything estimation needs.
type leafInfo struct {
	op    exec.Operator
	arity int
	est   float64
	// scan is non-nil when op is a bare columnar scan — the case where
	// column statistics exist and bounds pushdown can add predicates.
	scan *exec.ScanOp
	// stats returns column statistics for a leaf-local column ordinal
	// (projection already applied); nil when the leaf is opaque.
	stats func(col int) columnar.ColumnStats
}

// distinct estimates the number of distinct values in a leaf column,
// falling back to "every row distinct" for opaque inputs.
func (l *leafInfo) distinct(col int) float64 {
	if l.stats != nil {
		if d := l.stats(col).Distinct; d >= 1 {
			return d
		}
	}
	if l.est >= 1 {
		return l.est
	}
	return 1
}

// analyzeLeaf builds the leafInfo for a lowered region leaf, attaching
// statistics when the operator is a columnar scan, taking the exact row
// count of a held leaf (VALUES, a CTE, a nickname, a pull, a shuffle
// partition), and recording the cardinality estimate on the operator for
// EXPLAIN. Under a filter placed on the leaf, which comes with its
// estimate, the scan's statistics still serve.
func analyzeLeaf(op exec.Operator, est float64) *leafInfo {
	if f, ok := op.(*exec.FilterOp); ok && est > 0 {
		l := analyzeLeaf(f.Child, 0)
		l.op, l.est = op, est
		return l
	}
	l := &leafInfo{op: op, arity: len(op.Schema()), est: est}
	switch o := op.(type) {
	case *exec.ScanOp:
		l.scan = o
		// Statistics come from the scan's pinned snapshot when the
		// compiler set one, so estimates describe exactly the epoch the
		// scan will read; otherwise a transient pin of the current epoch.
		// The l.stats closure may outlive the transient pin (join
		// ordering consults it later) — that is safe because ColumnStats
		// reads only the epoch's immutable in-memory state, never pages,
		// so a drained epoch still answers correctly.
		snap, release := o.PlanSnapshot()
		defer release()
		cache := map[int]columnar.ColumnStats{}
		tableCol := func(c int) int {
			if o.Projection == nil {
				return c
			}
			return o.Projection[c]
		}
		l.stats = func(c int) columnar.ColumnStats {
			tc := tableCol(c)
			s, ok := cache[tc]
			if !ok {
				s = snap.ColumnStats(tc)
				cache[tc] = s
			}
			return s
		}
		rows := float64(snap.Rows())
		sel := 1.0
		for _, p := range o.Preds {
			st, ok := cache[p.Col]
			if !ok {
				st = snap.ColumnStats(p.Col)
				cache[p.Col] = st
			}
			sel *= predSelectivity(p, st)
		}
		l.est = max(rows*sel, min(rows, 1))
		o.EstRows = l.est
	case *exec.BatchesOp:
		l.est = float64(o.Rows())
		o.EstRows = l.est
		return l
	}
	if l.est <= 0 {
		l.est = defaultEstRows
	}
	return l
}

// predSelectivity estimates the fraction of rows a pushed-down scan
// predicate keeps, from the column's distinct count and value bounds.
func predSelectivity(p columnar.Pred, st columnar.ColumnStats) float64 {
	switch p.Op {
	case encoding.OpEQ:
		if st.Distinct >= 1 {
			return 1 / st.Distinct
		}
		return 0.1
	case encoding.OpNE:
		return 1
	case encoding.OpLT, encoding.OpLE, encoding.OpGT, encoding.OpGE:
		if !st.HasBounds {
			return 1.0 / 3
		}
		lo, okLo := st.Min.AsFloat()
		hi, okHi := st.Max.AsFloat()
		v, okV := p.Val.AsFloat()
		if !okLo || !okHi || !okV || hi <= lo {
			return 1.0 / 3
		}
		frac := (v - lo) / (hi - lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		if p.Op == encoding.OpGT || p.Op == encoding.OpGE {
			frac = 1 - frac
		}
		return frac
	}
	return 1.0 / 3
}

// joinEst estimates the output of joining the current intermediate
// (cardinality curEst) with leaf cand over keys (see joining), using the
// classic |L|·|R| / max(d_L, d_R) formula per key, each distinct count
// capped by its side's cardinality.
func joinEst(curEst float64, leaves []*leafInfo, cand int, keys []edge) float64 {
	c := leaves[cand]
	est := curEst * c.est
	for _, k := range keys {
		est /= max(min(leaves[k.a].distinct(k.ac), curEst), min(c.distinct(k.bc), c.est), 1)
	}
	return max(est, 1)
}
