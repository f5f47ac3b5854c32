package btree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dashdb/internal/types"
)

// count returns the (key, rid) pairs and the distinct keys Range visits.
func count(tr *Tree) (pairs, keys int) {
	var last *types.Value
	tr.Range(nil, nil, func(k types.Value, _ int64) bool {
		pairs++
		if last == nil || types.Compare(*last, k) != 0 {
			keys++
			last = &k
		}
		return true
	})
	return pairs, keys
}

func TestInsertGet(t *testing.T) {
	tr := New()
	for i := int64(0); i < 1000; i++ {
		tr.Insert(types.NewInt(i%100), i)
	}
	pairs, keys := count(tr)
	if pairs != 1000 {
		t.Fatalf("len %d", pairs)
	}
	rids := tr.Get(types.NewInt(7))
	if len(rids) != 10 {
		t.Fatalf("key 7 has %d rids", len(rids))
	}
	for _, r := range rids {
		if r%100 != 7 {
			t.Fatalf("wrong rid %d under key 7", r)
		}
	}
	if tr.Get(types.NewInt(1000)) != nil {
		t.Fatal("absent key must return nil")
	}
	if keys != 100 {
		t.Fatalf("distinct keys %d", keys)
	}
}

func TestDuplicatePairStoredOnce(t *testing.T) {
	tr := New()
	tr.Insert(types.NewInt(1), 5)
	tr.Insert(types.NewInt(1), 5)
	if pairs, _ := count(tr); pairs != 1 {
		t.Fatalf("len %d", pairs)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := int64(0); i < 500; i++ {
		tr.Insert(types.NewInt(i), i)
	}
	for i := int64(0); i < 500; i += 2 {
		if !tr.Delete(types.NewInt(i), i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if pairs, _ := count(tr); pairs != 250 {
		t.Fatalf("len %d", pairs)
	}
	if tr.Get(types.NewInt(4)) != nil {
		t.Fatal("deleted key still present")
	}
	if tr.Get(types.NewInt(5)) == nil {
		t.Fatal("surviving key missing")
	}
	if tr.Delete(types.NewInt(4), 4) {
		t.Fatal("double delete must report false")
	}
	if tr.Delete(types.NewInt(5), 999) {
		t.Fatal("deleting wrong rid must report false")
	}
}

func TestRangeOrdered(t *testing.T) {
	tr := New()
	perm := rand.New(rand.NewSource(3)).Perm(2000)
	for _, i := range perm {
		tr.Insert(types.NewInt(int64(i)), int64(i))
	}
	lo, hi := types.NewInt(100), types.NewInt(199)
	var got []int64
	tr.Range(&lo, &hi, func(k types.Value, rid int64) bool {
		got = append(got, rid)
		return true
	})
	if len(got) != 100 {
		t.Fatalf("range returned %d rows", len(got))
	}
	for i, r := range got {
		if r != int64(100+i) {
			t.Fatalf("range out of order at %d: %d", i, r)
		}
	}
}

func TestRangeUnbounded(t *testing.T) {
	tr := New()
	for i := int64(0); i < 300; i++ {
		tr.Insert(types.NewInt(i), i)
	}
	count := 0
	tr.Range(nil, nil, func(k types.Value, rid int64) bool {
		count++
		return true
	})
	if count != 300 {
		t.Fatalf("full scan %d rows", count)
	}
	// Early stop.
	count = 0
	tr.Range(nil, nil, func(k types.Value, rid int64) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop at %d", count)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New()
	words := []string{"pear", "apple", "fig", "banana", "cherry"}
	for i, w := range words {
		tr.Insert(types.NewString(w), int64(i))
	}
	lo, hi := types.NewString("b"), types.NewString("d")
	var got []string
	tr.Range(&lo, &hi, func(k types.Value, rid int64) bool {
		got = append(got, k.Str())
		return true
	})
	if len(got) != 2 || got[0] != "banana" || got[1] != "cherry" {
		t.Fatalf("got %v", got)
	}
}

// Property: after inserting a random multiset, every key's rid set is
// exactly the inserted rids and Range(nil,nil) visits keys in order.
func TestTreeInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		want := map[int64][]int64{}
		n := rng.Intn(800) + 1
		for r := 0; r < n; r++ {
			k := int64(rng.Intn(50))
			want[k] = append(want[k], int64(r))
			tr.Insert(types.NewInt(k), int64(r))
		}
		for k, rids := range want {
			got := tr.Get(types.NewInt(k))
			if len(got) != len(rids) {
				return false
			}
		}
		prev := int64(-1)
		ok := true
		tr.Range(nil, nil, func(k types.Value, rid int64) bool {
			if k.Int() < prev {
				ok = false
				return false
			}
			prev = k.Int()
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTreeInsert(b *testing.B) {
	tr := New()
	for i := 0; i < b.N; i++ {
		tr.Insert(types.NewInt(int64(i%100000)), int64(i))
	}
}

func BenchmarkTreePointLookup(b *testing.B) {
	tr := New()
	for i := int64(0); i < 100000; i++ {
		tr.Insert(types.NewInt(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(types.NewInt(int64(i % 100000)))
	}
}
