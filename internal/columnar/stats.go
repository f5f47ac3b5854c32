package columnar

import (
	"dashdb/internal/encoding"
	"dashdb/internal/types"
)

// ColumnStats summarizes one column for the query planner: row and NULL
// counts, an estimated distinct-value count, and — for order-preserving
// encodings — the column's value-space bounds. Everything is derived from
// state the engine already maintains (the per-stride synopsis, the
// distinct-count sketch fed at seal time, and the encoder itself), so
// gathering stats is O(strides) with no data pages touched: the same
// "statistics for free" property the zone maps provide for skipping.
type ColumnStats struct {
	// Rows is the table's live row count.
	Rows int
	// Nulls is the column's NULL count over sealed strides and the tail.
	Nulls int
	// Distinct estimates the number of distinct non-NULL values,
	// clamped to [1, Rows-Nulls] when the column has any non-NULL rows.
	// Dictionary-encoded columns report the exact dictionary cardinality;
	// other encodings use the seal-time sketch plus the tail.
	Distinct float64
	// HasBounds reports whether Min/Max carry value-space bounds. Only
	// order-preserving encoders (frame-of-reference integer and float)
	// admit them: dictionary codes are assignment-ordered, so min/max
	// code says nothing about min/max value.
	HasBounds bool
	Min, Max  types.Value
}

// ColumnStats gathers planner statistics for column ci in the pinned
// epoch. Statements that plan and execute against the same snapshot get
// estimates that exactly describe the data the scan will see.
func (s *Snapshot) ColumnStats(ci int) ColumnStats {
	return s.state().columnStats(ci)
}

// columnStats serves column ci's statistics from the state's lazy cache.
// The cache needs no version stamp: the state it describes can never
// change, so planning every query of an epoch costs one computation per
// column, however many statements race.
func (st *tableState) columnStats(ci int) ColumnStats {
	st.statsMu.Lock()
	if cached, ok := st.statsCache[ci]; ok {
		st.statsMu.Unlock()
		return cached
	}
	st.statsMu.Unlock()
	computed := st.computeColumnStats(ci)
	st.statsMu.Lock()
	if st.statsCache == nil {
		st.statsCache = make(map[int]ColumnStats)
	}
	st.statsCache[ci] = computed
	st.statsMu.Unlock()
	return computed
}

// computeColumnStats folds the synopsis entries, the tail's among them,
// the seal-time sketch and the tail's codes into column ci's statistics.
func (st *tableState) computeColumnStats(ci int) ColumnStats {
	out := ColumnStats{Rows: st.live}
	if ci < 0 || ci >= len(st.cols) {
		return out
	}
	c := &st.cols[ci]
	if c.enc == nil {
		return out
	}

	// Code-space bounds and NULL count from the synopsis entries.
	var minCode, maxCode uint64
	haveSpan := false
	for s := range st.strides() {
		e := c.entry(s)
		out.Nulls += int(e.NullCnt)
		switch {
		case e.AllNulls || e.RowCnt == 0:
		case !haveSpan:
			minCode, maxCode, haveSpan = e.MinCode, e.MaxCode, true
		default:
			minCode, maxCode = min(minCode, e.MinCode), max(maxCode, e.MaxCode)
		}
	}
	sk := c.sketch // value copy: folding the tail leaves the epoch's sketch untouched
	if c.tail != nil {
		codes, _ := c.tail.Gather(strideOffsets[:c.tail.Rows()], nil)
		nulls := c.tail.Nulls()
		for i, code := range codes {
			if nulls == nil || !nulls.Get(i) {
				sk.AddCode(code)
			}
		}
	}

	out.Distinct = sk.Estimate()
	switch enc := c.enc.(type) {
	case *encoding.Dict:
		// Dictionaries know their cardinality exactly.
		out.Distinct = float64(enc.Cardinality())
	case *encoding.IntFOR:
		if haveSpan {
			out.HasBounds = true
			out.Min, out.Max = enc.Decode(minCode), enc.Decode(maxCode)
		}
	case *encoding.FloatFOR:
		if haveSpan {
			out.HasBounds = true
			out.Min, out.Max = enc.Decode(minCode), enc.Decode(maxCode)
		}
	}
	if nonNull := out.Rows - out.Nulls; nonNull > 0 {
		if out.Distinct > float64(nonNull) {
			out.Distinct = float64(nonNull)
		}
		if out.Distinct < 1 {
			out.Distinct = 1
		}
	} else {
		out.Distinct = 0
	}
	return out
}
