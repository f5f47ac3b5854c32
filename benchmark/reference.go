package main

import (
	"fmt"
	"math"
	"sort"

	"dashdb/internal/types"
	"dashdb/internal/workload"
)

// Column positions of the generated tables.
const (
	txID, txAccount, txDate, txAmount, txType, txStatus = 0, 1, 2, 3, 4, 5
	acID, acSector                                      = 0, 2
)

// reference evaluates one statement in plain Go over the generated rows:
// loops, maps and sort.Slice, nothing from the engine. Every workload's
// results are compared with it, so the workloads also agree with each
// other for the same seed.
func reference(d *dataset, s *stmt) [][]types.Value {
	switch s.class {
	case clsPoint:
		var out [][]types.Value
		for _, r := range d.txns {
			if r[txID].Int() == s.id {
				out = append(out, []types.Value{r[txAmount]})
			}
		}
		return out
	case clsScan:
		return groupRef(d.txns, txType, false, func(r types.Row) bool {
			return r[txDate].Int() >= s.cut && r[txStatus].Str() == "SETTLED"
		})
	case clsAgg:
		return groupRef(d.txns, txStatus, true, func(types.Row) bool { return true })
	case clsGroupby:
		out := groupRef(d.txns, txAccount, false, func(types.Row) bool { return true })
		if len(out) > 10 {
			out = out[:10]
		}
		return out
	case clsJoin:
		inSector := make(map[int64]bool)
		for _, a := range d.accounts {
			if a[acSector].Str() == s.sector {
				inSector[a[acID].Int()] = true
			}
		}
		return groupRef(d.txns, txStatus, false, func(r types.Row) bool {
			return r[txDate].Int() >= s.cut && inSector[r[txAccount].Int()]
		})
	default: // clsSort, clsTopk
		var out [][]types.Value
		for _, r := range d.txns {
			if r[txDate].Int() >= s.cut {
				out = append(out, []types.Value{r[txID], r[txAmount]})
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if a, b := out[i][1].Float(), out[j][1].Float(); a != b {
				return a > b
			}
			return out[i][0].Int() < out[j][0].Int()
		})
		if s.class == clsTopk && len(out) > 100 {
			out = out[:100]
		}
		return out
	}
}

// groupRef is SELECT key, COUNT(*), SUM(amount)[, AVG(amount)] ... WHERE
// keep GROUP BY key ORDER BY key.
func groupRef(rows []types.Row, key int, withAvg bool, keep func(types.Row) bool) [][]types.Value {
	type acc struct {
		key types.Value
		n   int64
		sum float64
	}
	groups := make(map[types.Value]*acc)
	for _, r := range rows {
		if !keep(r) {
			continue
		}
		g := groups[r[key]]
		if g == nil {
			g = &acc{key: r[key]}
			groups[r[key]] = g
		}
		g.n++
		g.sum += r[txAmount].Float()
	}
	out := make([][]types.Value, 0, len(groups))
	for _, g := range groups {
		row := []types.Value{g.key, types.NewInt(g.n), types.NewFloat(g.sum)}
		if withAvg {
			row = append(row, types.NewFloat(g.sum/float64(g.n)))
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return types.Compare(out[i][0], out[j][0]) < 0 })
	return out
}

// sameRows compares a result with its reference, in order (every statement
// has a total ORDER BY or returns one row). Floats may differ in the last
// bits because parallel and distributed plans add in another order.
func sameRows(got []types.Row, want [][]types.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			if !sameValue(got[i][j], w) {
				return fmt.Errorf("row %d column %d: %v, want %v", i, j, got[i][j], w)
			}
		}
	}
	return nil
}

func sameValue(g, w types.Value) bool {
	if g.IsNull() || w.IsNull() {
		return g.IsNull() && w.IsNull()
	}
	if w.Kind() == types.KindFloat {
		gf, ok := g.AsFloat()
		wf := w.Float()
		return ok && math.Abs(gf-wf) <= 1e-9*math.Max(1, math.Abs(wf))
	}
	return types.Compare(g, w) == 0
}

// --- writer shadow model --------------------------------------------------------

// shadow mirrors the fact table's live rows as the writer's list changes
// them: enough state (account, status, amount) to predict every UPDATE's
// and DELETE's affected count and the final COUNT(*) and SUM(amount).
type shadow struct {
	byAccount map[int64][]*shadowRow
}

type shadowRow struct {
	status string
	amount float64
	dead   bool
}

func newShadow(d *dataset) *shadow {
	sh := &shadow{byAccount: make(map[int64][]*shadowRow)}
	sh.insert(d.txns)
	return sh
}

func (sh *shadow) insert(rows []types.Row) {
	for _, r := range rows {
		a := r[txAccount].Int()
		sh.byAccount[a] = append(sh.byAccount[a], &shadowRow{status: r[txStatus].Str(), amount: r[txAmount].Float()})
	}
}

// apply plays one writer statement and returns the row count the engine
// must report for it (-1 when the engine reports none worth checking).
func (sh *shadow) apply(op *writerOp, st *workload.Statement) int64 {
	switch op.kind {
	case workload.KindInsert, workload.KindBulkLoad:
		sh.insert(op.rows)
		return int64(len(op.rows))
	case workload.KindUpdate, workload.KindDelete:
		status, account := st.Preds[0].Val.Str(), st.Preds[1].Val.Int()
		var n int64
		for _, r := range sh.byAccount[account] {
			if r.dead || r.status != status {
				continue
			}
			n++
			if op.kind == workload.KindDelete {
				r.dead = true
			} else {
				r.status = st.Set["status"].Str()
			}
		}
		return n
	}
	return -1
}

func (sh *shadow) totals() (count int64, sum float64) {
	for _, rows := range sh.byAccount {
		for _, r := range rows {
			if !r.dead {
				count++
				sum += r.amount
			}
		}
	}
	return count, sum
}
