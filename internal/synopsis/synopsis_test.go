package synopsis

import (
	"testing"

	"dashdb/internal/encoding"
)

func TestSummarize(t *testing.T) {
	codes := []uint64{5, 2, 9, 2, 7}
	e := Summarize(codes, nil)
	if e.MinCode != 2 || e.MaxCode != 9 || e.RowCnt != 5 || e.NullCnt != 0 {
		t.Fatalf("entry %+v", e)
	}
}

func TestSummarizeWithNulls(t *testing.T) {
	codes := []uint64{5, 0, 9}
	e := Summarize(codes, func(i int) bool { return i == 1 })
	if e.MinCode != 5 || e.MaxCode != 9 || e.NullCnt != 1 {
		t.Fatalf("entry %+v", e)
	}
}

func TestSummarizeAllNulls(t *testing.T) {
	e := Summarize([]uint64{0, 0}, func(i int) bool { return true })
	if !e.AllNulls || e.NullCnt != 2 {
		t.Fatalf("entry %+v", e)
	}
	p := encoding.Predicate{Ranges: []encoding.CodeRange{{Lo: 0, Hi: 100}}}
	if MayMatch(p, e) {
		t.Error("all-null stride must be skipped for comparison predicates")
	}
	if MayMatch(encoding.AllPredicate(), e) {
		t.Error("all-null stride has no non-NULL matches even for All")
	}
}

func TestMayMatch(t *testing.T) {
	e := Entry{MinCode: 100, MaxCode: 200, RowCnt: 1024}
	cases := []struct {
		p    encoding.Predicate
		want bool
	}{
		{encoding.Predicate{Ranges: []encoding.CodeRange{{Lo: 0, Hi: 99}}}, false},
		{encoding.Predicate{Ranges: []encoding.CodeRange{{Lo: 201, Hi: 300}}}, false},
		{encoding.Predicate{Ranges: []encoding.CodeRange{{Lo: 0, Hi: 100}}}, true},
		{encoding.Predicate{Ranges: []encoding.CodeRange{{Lo: 200, Hi: 999}}}, true},
		{encoding.Predicate{Ranges: []encoding.CodeRange{{Lo: 150, Hi: 150}}}, true},
		{encoding.Predicate{Ranges: []encoding.CodeRange{{Lo: 0, Hi: 50}, {Lo: 180, Hi: 190}}}, true},
		{encoding.NonePredicate(), false},
		{encoding.AllPredicate(), true},
		{encoding.Predicate{Residual: []encoding.CodeRange{{Lo: 150, Hi: 160}}}, true},
		{encoding.Predicate{Residual: []encoding.CodeRange{{Lo: 300, Hi: 400}}}, false},
	}
	for i, c := range cases {
		if got := MayMatch(c.p, e); got != c.want {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

func TestColumnSetExtends(t *testing.T) {
	var c Column
	c.Set(3, Entry{MinCode: 1})
	if len(c.Entries()) != 4 {
		t.Fatalf("strides %d", len(c.Entries()))
	}
	if c.Entries()[3].MinCode != 1 {
		t.Fatal("entry not stored")
	}
	c.Set(1, Entry{MaxCode: 9})
	if c.Entries()[1].MaxCode != 9 || len(c.Entries()) != 4 {
		t.Fatal("in-place set failed")
	}
}

func TestSynopsisMuchSmallerThanData(t *testing.T) {
	// 1,024 strides summarize ~1M tuples; the synopsis must be about
	// three orders of magnitude smaller than 8-byte-per-value data.
	var c Column
	for i := 0; i < 1024; i++ {
		c.Set(i, Entry{MinCode: uint64(i), MaxCode: uint64(i + 1), RowCnt: 1024})
	}
	dataBytes := 1024 * 1024 * 8
	ratio := float64(dataBytes) / float64(c.MemSize())
	if ratio < 300 {
		t.Errorf("synopsis only %.0fx smaller than data", ratio)
	}
}
