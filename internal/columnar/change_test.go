package columnar

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dashdb/internal/encoding"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// versionRows returns n rows of batch version v: (v, i, i) for i < n.
func versionRows(v, n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(v)), types.NewInt(int64(i)), types.NewFloat(float64(i))}
	}
	return rows
}

// TestChangeRefusedAddChangesNothing: a Change whose add fails validation,
// or whose match fails, publishes no epoch and leaves every row in place —
// the deletes it asked for included.
func TestChangeRefusedAddChangesNothing(t *testing.T) {
	tbl := NewTable(80, "refused", ingestSchema(), Config{})
	if err := tbl.InsertBatch(versionRows(0, 3)); err != nil {
		t.Fatal(err)
	}
	before, err := selectWhere(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	epoch := tbl.SnapshotInfo().Epoch
	errMatch := errors.New("match failed")
	for name, match := range map[string]func(*Snapshot) ([]int64, []*vec.Batch, error){
		"NULL into NOT NULL": func(*Snapshot) ([]int64, []*vec.Batch, error) {
			add := versionRows(1, 3)
			add[1][0] = types.Null
			return []int64{0, 1, 2}, rowsBatch(add), nil
		},
		"wrong arity": func(*Snapshot) ([]int64, []*vec.Batch, error) {
			add := versionRows(1, 3)
			for i := range add {
				add[i] = add[i][:2]
			}
			return []int64{0, 1, 2}, rowsBatch(add), nil
		},
		"match error": func(*Snapshot) ([]int64, []*vec.Batch, error) {
			return []int64{0, 1, 2}, rowsBatch(versionRows(1, 3)), errMatch
		},
	} {
		if _, err := tbl.Change(match); err == nil {
			t.Fatalf("%s: Change succeeded", name)
		}
		if got := tbl.SnapshotInfo().Epoch; got != epoch {
			t.Fatalf("%s: epoch %d -> %d, want unchanged", name, epoch, got)
		}
		after, err := selectWhere(tbl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(before, after, func(a, b types.Row) bool { return slices.Equal(a, b) }) {
			t.Fatalf("%s: rows %v -> %v", name, before, after)
		}
	}
	// A valid Change after the refused ones applies once, in one epoch.
	n, err := tbl.Change(func(*Snapshot) ([]int64, []*vec.Batch, error) {
		return []int64{0, 1, 2}, rowsBatch(versionRows(1, 3)), nil
	})
	if err != nil || n != 3 {
		t.Fatalf("Change = %d, %v; want 3 rows deleted", n, err)
	}
	if got := tbl.SnapshotInfo().Epoch; got != epoch+1 {
		t.Fatalf("epoch %d -> %d, want one publish", epoch, got)
	}
	if c, _ := countWhere(tbl, []Pred{{Col: 0, Op: encoding.OpEQ, Val: types.NewInt(1)}}); c != 3 || tbl.SnapshotInfo().Rows != 3 {
		t.Fatalf("after the change: %d version-1 rows of %d, want 3 of 3", c, tbl.SnapshotInfo().Rows)
	}
}

// TestChangePinnedReaders: a writer replaces the whole table's rows, one
// version at a time, while readers pin and scan at dop 1 and 4. A reader
// pinned before a Change sees the old version and one pinned after it the
// new one: every scan sees exactly n rows, all of one version, and a
// reader's versions never go backwards.
func TestChangePinnedReaders(t *testing.T) {
	const n, versions = 2500, 40 // n spans sealed strides and the open one
	tbl := NewTable(81, "replace", ingestSchema(), Config{})
	if err := tbl.InsertBatch(versionRows(0, n)); err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		dop := 1 + 3*(r%2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(-1)
			for !done.Load() {
				snap := tbl.Snapshot()
				var mu sync.Mutex
				seen := map[int64]int{}
				err := snap.Scan(nil, nil, dop, nil, func(_ int, b *Batch) bool {
					mu.Lock()
					defer mu.Unlock()
					for i := 0; i < b.Len(); i++ {
						seen[b.Value(0, i).Int()]++
					}
					return true
				})
				rows := snap.Rows()
				snap.Release()
				if err != nil {
					t.Error(err)
					return
				}
				if len(seen) != 1 || rows != n {
					t.Errorf("dop %d reader saw versions %v (snapshot rows %d), want %d rows of one version", dop, seen, rows, n)
					return
				}
				for v, c := range seen {
					if c != n || v < last {
						t.Errorf("dop %d reader saw %d rows of version %d after version %d", dop, c, v, last)
						return
					}
					last = v
				}
			}
		}()
	}
	for v := 1; v <= versions; v++ {
		epoch := tbl.SnapshotInfo().Epoch
		got, err := tbl.Change(func(snap *Snapshot) (del []int64, add []*vec.Batch, err error) {
			var rows []types.Row
			err = snap.Scan(nil, nil, 1, nil, func(_ int, b *Batch) bool {
				for i := 0; i < b.Len(); i++ {
					del = append(del, b.RowID(i))
					row := b.Row(i)
					row[0] = types.NewInt(int64(v))
					rows = append(rows, row)
				}
				return true
			})
			return del, rowsBatch(rows), err
		})
		if err != nil || got != n {
			t.Fatalf("version %d: Change = %d, %v", v, got, err)
		}
		if e := tbl.SnapshotInfo().Epoch; e != epoch+1 {
			t.Fatalf("version %d: epoch %d -> %d, want one publish", v, epoch, e)
		}
	}
	done.Store(true)
	wg.Wait()
	if c, _ := countWhere(tbl, []Pred{{Col: 0, Op: encoding.OpEQ, Val: types.NewInt(versions)}}); c != n {
		t.Fatalf("final version holds %d rows, want %d", c, n)
	}
}
