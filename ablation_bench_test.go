package dashdb_test

import (
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/core"
	"dashdb/internal/encoding"
	"dashdb/internal/types"
	"dashdb/internal/workload"
)

// Ablation benchmarks for the design choices called out in DESIGN.md §6:
// each isolates one BLU technique by toggling it while holding everything
// else constant.

// --- operate-on-compressed vs decode-then-evaluate ---------------------------
//
// Same table, same predicate on an UNCLUSTERED column (so data skipping
// cannot help either side): the only difference is SWAR evaluation over
// codes vs decoding every value.

var ablationTable = func() *columnar.Table {
	fin := workload.NewFinancial(200_000, 1)
	t := columnar.NewTable(1, "transactions", fin.Tables()[1].Schema, columnar.Config{})
	if err := t.InsertBatch(fin.Transactions()); err != nil {
		panic(err)
	}
	return t
}()

// account_id is uniformly random across strides: no skipping possible.
var ablationPred = []columnar.Pred{{Col: 1, Op: encoding.OpLT, Val: types.NewInt(100)}}

func BenchmarkAblationCompressedPredicates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		snap := ablationTable.Snapshot()
		n := 0
		err := snap.Scan(ablationPred, nil, 1, nil, func(_ int, batch *columnar.Batch) bool {
			n += batch.Len()
			return true
		})
		snap.Release()
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDecodeThenEvaluate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		snap := ablationTable.Snapshot()
		n := 0
		err := snap.ScanNaive(ablationPred, func(batch *columnar.Batch) bool {
			n += batch.Len()
			return true
		})
		snap.Release()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- cache policy under a working set larger than the pool -------------------
//
// Repeated analytic scans with a pool sized at ~half the table: the
// probabilistic policy retains a stable page subset while LRU thrashes.

func cachePolicyBench(b *testing.B, policy string) {
	fin := workload.NewFinancial(150_000, 1)
	tbl := fin.Tables()[1]
	// Size the pool to roughly half the compressed table.
	probe := columnar.NewTable(9, "probe", tbl.Schema, columnar.Config{})
	if err := probe.InsertBatch(fin.Transactions()); err != nil {
		b.Fatal(err)
	}
	half := probe.Compression().PageBytes / 12 // well below the two referenced columns' working set
	db := core.Open(core.Config{BufferPoolBytes: half, CachePolicy: policy})
	t, err := db.CreateTable("transactions", tbl.Schema)
	if err != nil {
		b.Fatal(err)
	}
	if err := t.InsertBatch(fin.Transactions()); err != nil {
		b.Fatal(err)
	}
	sess := db.NewSession()
	query := `SELECT txn_type, COUNT(*), SUM(amount) FROM transactions GROUP BY txn_type`
	if _, err := sess.Exec(query); err != nil { // warm
		b.Fatal(err)
	}
	db.Pool().ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Exec(query); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(db.Pool().Stats().HitRatio(), "hit-ratio")
}

func BenchmarkAblationCachePROB(b *testing.B) { cachePolicyBench(b, "PROB") }
func BenchmarkAblationCacheLRU(b *testing.B)  { cachePolicyBench(b, "LRU") }

// --- projection pruning -------------------------------------------------------
//
// The same aggregate query expressed narrow (2 referenced columns) vs
// SELECT-star-shaped (all 6 columns referenced): pruning means the narrow
// form touches a third of the pages.

var pruneDB = func() *core.Session {
	fin := workload.NewFinancial(150_000, 1)
	db := core.Open(core.Config{BufferPoolBytes: 256 << 20})
	t, err := db.CreateTable("transactions", fin.Tables()[1].Schema)
	if err != nil {
		panic(err)
	}
	if err := t.InsertBatch(fin.Transactions()); err != nil {
		panic(err)
	}
	return db.NewSession()
}()

func BenchmarkAblationProjectionNarrow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := pruneDB.Exec(`SELECT txn_type, COUNT(*) FROM transactions GROUP BY txn_type`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationProjectionWide(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Reference every column so pruning cannot drop any.
		q := `SELECT txn_type, COUNT(*), MIN(txn_id), MIN(account_id), MIN(txn_date), MIN(amount), MIN(status)
		      FROM transactions GROUP BY txn_type`
		if _, err := pruneDB.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- fixed-point FOR vs dictionary for decimal columns -------------------------

func BenchmarkAblationDecimalFixedPoint(b *testing.B) {
	vals := make([]types.Value, 100_000)
	for i := range vals {
		vals[i] = types.NewFloat(float64(i%90_000) / 100)
	}
	codes := make([]uint64, len(vals))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := encoding.ChooseEncoder(types.KindFloat, vals)
		if enc.Kind() != encoding.KindIntFOR {
			b.Fatal("expected fixed-point FOR")
		}
		enc.EncodeAll(vals, codes)
		b.ReportMetric(float64(enc.MemSize()), "dict-bytes")
	}
}

func BenchmarkAblationDecimalDictionary(b *testing.B) {
	vals := make([]types.Value, 100_000)
	for i := range vals {
		vals[i] = types.NewFloat(float64(i%90_000) / 100)
	}
	codes := make([]uint64, len(vals))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := encoding.BuildDict(types.KindFloat, vals)
		enc.EncodeAll(vals, codes)
		b.ReportMetric(float64(enc.MemSize()), "dict-bytes")
	}
}
