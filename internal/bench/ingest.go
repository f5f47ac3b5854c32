package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dashdb/internal/columnar"
	"dashdb/internal/core"
	"dashdb/internal/types"
)

// FigureIngest (F-C2) measures the cost of snapshot isolation under
// concurrent ingest: the same analytic query mix runs (a) against a
// table loaded up front — the classic load-then-query warehouse cycle —
// and (b) while a trickle-INSERT writer and a bulk-load writer are still
// racing it. Epoch pinning keeps readers lock-free, so the concurrent
// mix should stay within a small factor of the baseline (the acceptance
// gate is 1.5x) even though every query snapshot-isolates against the
// writers.
func FigureIngest(rows, queries int) (string, error) {
	if rows < 10_000 {
		rows = 10_000
	}
	if queries < 10 {
		queries = 10
	}

	// Baseline: load everything, then query.
	base, err := ingestEngine()
	if err != nil {
		return "", err
	}
	if err := ingestLoad(base, 0, rows); err != nil {
		return "", err
	}
	baseDur, err := ingestQueryMix(base, queries)
	if err != nil {
		return "", err
	}

	// Concurrent: the same row volume arrives while the mix runs —
	// half through multi-row trickle INSERTs, half through BulkAppend
	// flushes.
	conc, err := ingestEngine()
	if err != nil {
		return "", err
	}
	var (
		wg        sync.WaitGroup
		writerErr error
		errOnce   sync.Once
	)
	fail := func(err error) {
		if err != nil {
			errOnce.Do(func() { writerErr = err })
		}
	}
	wg.Add(2)
	go func() { // trickle: 500-row INSERT statements
		defer wg.Done()
		sess := conc.NewSession()
		const batch = 500
		for lo := 0; lo < rows/2; lo += batch {
			n := batch
			if lo+n > rows/2 {
				n = rows/2 - lo
			}
			if _, err := sess.Exec(ingestInsertSQL(lo, n)); err != nil {
				fail(err)
				return
			}
		}
	}()
	go func() { // bulk: 8k-row BulkAppend flushes
		defer wg.Done()
		fail(ingestLoad(conc, rows/2, rows-rows/2))
	}()
	concDur, err := ingestQueryMix(conc, queries)
	wg.Wait()
	if err != nil {
		return "", err
	}
	if writerErr != nil {
		return "", writerErr
	}
	// Sanity: all rows landed.
	r, err := conc.NewSession().Query(`SELECT COUNT(*) FROM feed`)
	if err != nil {
		return "", err
	}
	if got := r.Rows[0][0].Int(); got != int64(rows) {
		return "", fmt.Errorf("bench ingest: %d rows landed, want %d", got, rows)
	}

	ratio := float64(concDur) / float64(baseDur)
	var b strings.Builder
	fmt.Fprintf(&b, "F-C2 — query mix racing concurrent ingest (snapshot isolation)\n")
	fmt.Fprintf(&b, "  %d rows, %d query-mix iterations (count/group-by/join)\n", rows, queries)
	fmt.Fprintf(&b, "  load-then-query baseline: %8.1f ms\n", float64(baseDur)/1e6)
	fmt.Fprintf(&b, "  racing trickle + bulk:    %8.1f ms\n", float64(concDur)/1e6)
	fmt.Fprintf(&b, "  slowdown: %.2fx (gate: <= 1.5x)\n", ratio)
	return b.String(), nil
}

func ingestEngine() (*core.DB, error) {
	db := core.Open(core.Config{BufferPoolBytes: 64 << 20, Parallelism: 4})
	_, err := db.NewSession().Exec(
		`CREATE TABLE feed (id BIGINT NOT NULL, grp BIGINT NOT NULL, val DOUBLE)`)
	return db, err
}

func ingestRow(i int) types.Row {
	return types.Row{
		types.NewInt(int64(i)),
		types.NewInt(int64(i % 97)),
		types.NewFloat(float64(i%1000) * 0.25),
	}
}

// ingestLoad bulk-appends n rows starting at id lo in 8k-row flushes.
func ingestLoad(db *core.DB, lo, n int) error {
	tbl, ok := db.Table("feed")
	if !ok {
		return fmt.Errorf("bench ingest: feed table missing")
	}
	const flush = 8 << 10
	lanes := columnar.NewLanes(tbl.Schema(), flush)
	for off := 0; off < n; off += flush {
		lanes.Reset()
		for i := off; i < min(off+flush, n); i++ {
			if err := lanes.Add(ingestRow(lo + i)); err != nil {
				return err
			}
		}
		if _, err := tbl.BulkAppend(lanes.Batch()); err != nil {
			return err
		}
	}
	return nil
}

func ingestInsertSQL(lo, n int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO feed VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		id := lo + i
		fmt.Fprintf(&b, "(%d, %d, %d.25)", id, id%97, id%1000)
	}
	return b.String()
}

// ingestQueryMix times `iters` rounds of the three-query analytic mix.
func ingestQueryMix(db *core.DB, iters int) (time.Duration, error) {
	sess := db.NewSession()
	mix := []string{
		`SELECT COUNT(*) FROM feed WHERE grp < 30`,
		`SELECT grp, SUM(val), COUNT(*) FROM feed GROUP BY grp`,
		`SELECT COUNT(*) FROM (SELECT DISTINCT grp FROM feed) a, (SELECT DISTINCT grp FROM feed) b`,
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		for _, q := range mix {
			if _, err := sess.Query(q); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}
