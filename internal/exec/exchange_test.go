package exec

import (
	"math"
	"math/rand"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// HashPartition is the partition of a boxed row's key columns: Value.Hash
// of a single key, an FNV-1a fold of several; a NULL hashes as
// types.NullHash like any value, as the cluster's insert routing places it.
// Partition must place every row where this does.
func HashPartition(row types.Row, keys []int, parts int) int {
	if parts <= 1 {
		return 0
	}
	var h uint64
	if len(keys) == 1 {
		h = row[keys[0]].Hash()
	} else {
		h = 1469598103934665603
		for _, k := range keys {
			h ^= row[k].Hash()
			h *= 1099511628211
		}
	}
	return int(h % uint64(parts))
}

// TestPartitionMatchesHashPartition: the typed partition of every live row
// equals HashPartition of the same row boxed, for one key and several, over
// typed, dictionary-coded, Const and from-rows vectors of every kind —
// integral DOUBLEs, which hash as the BIGINT they equal, and NULLs
// included.
func TestPartitionMatchesHashPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	value := func(k types.Kind) types.Value {
		if rng.Intn(6) == 0 {
			return types.NullOf(k)
		}
		switch k {
		case types.KindBool:
			return types.NewBool(rng.Intn(2) == 0)
		case types.KindInt:
			return types.NewInt(rng.Int63n(200) - 100)
		case types.KindFloat:
			return types.NewFloat([]float64{3, -0.0, math.NaN(), 2.5, float64(rng.Intn(50))}[rng.Intn(5)])
		case types.KindString:
			return types.NewString([]string{"", "north", "south"}[rng.Intn(3)])
		case types.KindDate:
			return types.NewDate(rng.Int63n(1000))
		}
		return types.NewTimestamp(rng.Int63())
	}
	kinds := []types.Kind{types.KindBool, types.KindInt, types.KindFloat, types.KindString, types.KindDate, types.KindTimestamp}
	for iter := 0; iter < 300; iter++ {
		const n = 64
		cols := make([]*vec.Vector, 3)
		for j := range cols {
			k := kinds[rng.Intn(len(kinds))]
			switch rng.Intn(4) {
			case 0:
				cols[j] = vec.NewConst(value(k))
			case 1:
				d := encoding.NewDict(k)
				vals := make([]types.Value, n)
				for i := range vals {
					if vals[i] = value(k); !vals[i].IsNull() && !(k == types.KindFloat && math.IsNaN(vals[i].Float())) {
						d.Encode(vals[i])
					}
				}
				v := vec.NewCodes(k, n, d) // its snapshot holds every code
				for i, x := range vals {
					if x.IsNull() || (k == types.KindFloat && math.IsNaN(x.Float())) {
						v.SetNull(i)
					} else {
						v.Codes[i] = d.Encode(x)
					}
				}
				cols[j] = v
			default:
				cols[j] = vec.New(k, n)
				for i := 0; i < n; i++ {
					cols[j].Set(i, value(k))
				}
			}
		}
		b := vec.NewBatch(nil, cols, n)
		if rng.Intn(3) == 0 {
			b = vec.FromRows(nil, b.AppendRows(nil))
		}
		keys := [][]int{{0}, {1}, {0, 2}, {2, 1, 0}}[rng.Intn(4)]
		keyVecs := make([]*vec.Vector, len(keys))
		for k, c := range keys {
			keyVecs[k] = b.Col(c)
		}
		rows := b.AppendRows(nil)
		for _, parts := range []int{1, 2, 6, 7} {
			for _, i := range b.Idx() {
				if got, want := Partition(keyVecs, i, parts), HashPartition(rows[i], keys, parts); got != want {
					t.Fatalf("iteration %d: row %v keys %v parts %d: partition %d, want %d", iter, rows[i], keys, parts, got, want)
				}
			}
		}
	}
}
