package exec

import (
	"dashdb/internal/bitpack"
	"dashdb/internal/encoding"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// This file is the operate-on-compressed-data core of the executor
// (paper §II.B.2): predicates, join keys, and group keys evaluated over
// dictionary codes, with values materialized only where an operator
// genuinely needs them. The scan emits code-carrying vectors
// (vec.Vector.Codes over a *encoding.Dict); compressedSel answers
// filters entirely in code space; dictRemap bridges mismatched build and
// probe dictionaries in the join; ProjectOp is the single
// late-materialization point.

// compressedSel evaluates pred over the batch's live positions idx using
// dictionary codes only. It returns (selection, true, nil) when the whole
// predicate tree could be answered in code space; (nil, false, nil) when
// some subtree needs the generic value kernels (the caller falls back);
// and a non-nil error only from a generic sub-evaluation inside an AND.
// The returned selection is ascending, as Batch.Sel requires.
//
// Parity contract: a filter keeps rows whose predicate is definite TRUE.
// NULL codes never match (Translate drops them, matching three-valued
// comparison), AND narrows the left selection before the right side runs,
// and OR unions two code-space selections — each identical to what the
// decoded kernels + selection narrowing would produce.
func compressedSel(pred Expr, vb *vec.Batch, idx []int) ([]int, bool, error) {
	switch p := pred.(type) {
	case *CmpExpr:
		col, cst, op, ok := colConstCmp(p)
		if !ok || col < 0 || col >= vb.NumCols() {
			return nil, false, nil
		}
		v := vb.Col(col)
		if !v.Encoded() {
			return nil, false, nil
		}
		// Exact-kind gate: Translate normalizes the constant via
		// types.Coerce into the dictionary's kind, but the decoded kernels
		// compare mixed numeric kinds in float space. Restricting code
		// evaluation to same-kind comparisons keeps the two paths
		// bit-identical; mixed kinds fall back to the value kernels.
		if cst.IsNull() {
			return []int{}, true, nil // NULL comparand: nothing is TRUE
		}
		if cst.Kind() != v.Kind {
			return nil, false, nil
		}
		tp := v.Dict.Translate(op, cst)
		switch {
		case tp.None:
			return []int{}, true, nil
		case tp.All:
			// Every non-NULL row matches (NE against an out-of-domain
			// value).
			out := make([]int, 0, len(idx))
			for _, i := range idx {
				if !v.IsNull(i) {
					out = append(out, i)
				}
			}
			return out, true, nil
		}
		out := make([]int, 0, len(idx))
		if len(tp.Residual) == 0 {
			ranges := make([][2]uint64, len(tp.Ranges))
			for i, r := range tp.Ranges {
				ranges[i] = [2]uint64{r.Lo, r.Hi}
			}
			return bitpack.SelectCodesInRanges(v.Codes, ranges, v.Nulls, idx, out), true, nil
		}
		// Residual ranges (the dictionary's unsorted extension region)
		// need a per-code value recheck. One pass keeps the selection
		// ascending; certain ranges and residual ranges are disjoint.
		dom := v.Dom()
		for _, i := range idx {
			if v.Nulls != nil && v.Nulls.Get(i) {
				continue
			}
			c := v.Codes[i]
			match := false
			for _, r := range tp.Ranges {
				if c-r.Lo <= r.Hi-r.Lo {
					match = true
					break
				}
			}
			if !match {
				for _, r := range tp.Residual {
					if c-r.Lo <= r.Hi-r.Lo {
						match = op.Eval(dom[c], cst)
						break
					}
				}
			}
			if match {
				out = append(out, i)
			}
		}
		return out, true, nil

	case *AndExpr:
		lsel, lok, err := compressedSel(p.L, vb, idx)
		if err != nil || !lok {
			return nil, false, err
		}
		if len(lsel) == 0 {
			return lsel, true, nil
		}
		rsel, rok, err := compressedSel(p.R, vb, lsel)
		if err != nil {
			return nil, false, err
		}
		if rok {
			return rsel, true, nil
		}
		// Right side needs value kernels: evaluate it generically over the
		// already-narrowed selection — the code-space left side still paid
		// for itself.
		pv, err := p.R.EvalVec(vb.WithSel(lsel))
		if err != nil {
			return nil, false, err
		}
		return SelTrue(pv, lsel), true, nil

	case *OrExpr:
		lsel, lok, err := compressedSel(p.L, vb, idx)
		if err != nil || !lok {
			return nil, false, err
		}
		rsel, rok, err := compressedSel(p.R, vb, idx)
		if err != nil || !rok {
			return nil, false, err
		}
		return unionSorted(lsel, rsel), true, nil
	}
	return nil, false, nil
}

// colConstCmp decomposes a comparison into (column, constant, op),
// flipping the operator when the constant is on the left.
func colConstCmp(p *CmpExpr) (int, types.Value, encoding.CmpOp, bool) {
	if c, ok := p.L.(ColRef); ok {
		if k, ok := p.R.(Const); ok {
			return int(c), k.V, p.Op, true
		}
	}
	if k, ok := p.L.(Const); ok {
		if c, ok := p.R.(ColRef); ok {
			return int(c), k.V, p.Op.Flip(), true
		}
	}
	return 0, types.Null, 0, false
}

// SelTrue filters idx down to positions where the predicate vector is
// definite TRUE: a typed BOOLEAN vector's set, non-NULL positions, or any
// other vector's true BOOLEAN values (a non-boolean value passes nothing).
// It is the one truth test: filters, HAVING, join predicates, CASE arms and
// DML residuals all keep a row through it.
//
//dashdb:hotpath
func SelTrue(pv *vec.Vector, idx []int) []int {
	out := make([]int, 0, len(idx))
	if pv.Kind == types.KindBool && pv.I64 != nil {
		for _, i := range idx {
			if !pv.IsNull(i) && pv.I64[pv.Ix(i)] != 0 {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range idx {
		if x := pv.Get(i); !x.IsNull() && x.Kind() == types.KindBool && x.Bool() {
			out = append(out, i)
		}
	}
	return out
}

// unionSorted merges two ascending position lists without duplicates.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// dictRemap lazily translates probe-side dictionary codes into build-side
// codes when the two sides of a join are encoded by different dictionaries
// (e.g. a self-join after a re-analysis, or two tables with their own
// dictionaries over the same domain): the hash join's probe keys reach its
// key table as build codes. Entries are computed on first use and cached per
// probe code; -1 records "absent from the build dictionary", which is a
// definite non-match.
type dictRemap struct {
	build *encoding.Dict
	dom   []types.Value // probe-side snapshot
	table []int64       // probe code → build code; -1 absent, -2 unknown
}

func newDictRemap(build *encoding.Dict, probeDom []types.Value) *dictRemap {
	t := make([]int64, len(probeDom))
	for i := range t {
		t[i] = -2
	}
	return &dictRemap{build: build, dom: probeDom, table: t}
}

// lookup returns the build-side code for probe code c, or ok=false when
// the probed value does not exist in the build dictionary.
func (m *dictRemap) lookup(c uint64) (uint64, bool) {
	e := m.table[c]
	if e == -2 {
		if bc, ok := m.build.EncodeExisting(m.dom[c]); ok {
			e = int64(bc)
		} else {
			e = -1
		}
		m.table[c] = e
	}
	if e < 0 {
		return 0, false
	}
	return uint64(e), true
}

// CompressedCols reports, per output column of a subtree, whether that
// column can flow dictionary-encoded out of the underlying scan.
// Selection-only operators (filter, limit, stats wrappers) pass their
// child's layout through; everything else materializes. Used by EXPLAIN to
// tag operators and by planners deciding code-key eligibility; execution
// itself adopts dictionaries dynamically from the batches, so this is
// advisory only.
func CompressedCols(op Operator) []bool {
	switch o := op.(type) {
	case *StatsOp:
		return CompressedCols(o.Child)
	case *ScanOp:
		return o.Compressed
	case *FilterOp:
		return CompressedCols(o.Child)
	case *LimitOp:
		return CompressedCols(o.Child)
	}
	return nil
}

// PredCompressible reports whether a predicate tree would be answered in
// code space given the child's compressed column layout: comparisons of a
// flagged column against a same-kind constant, closed under AND
// (left side suffices — the right narrows generically) and OR (both
// sides must qualify). EXPLAIN uses it to tag filters [compressed].
func PredCompressible(pred Expr, flags []bool) bool {
	switch p := pred.(type) {
	case *CmpExpr:
		col, _, _, ok := colConstCmp(p)
		return ok && col >= 0 && col < len(flags) && flags[col]
	case *AndExpr:
		return PredCompressible(p.L, flags)
	case *OrExpr:
		return PredCompressible(p.L, flags) && PredCompressible(p.R, flags)
	}
	return false
}
