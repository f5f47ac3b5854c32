// Package synopsis implements data skipping (paper §II.B.4): for every
// column, min/max code and NULL-count metadata is kept per stride of 1,024
// tuples. Because the engine's predicates are translated into code space
// before scanning, skipping operates directly on code ranges: a stride is
// skipped when no predicate range can intersect its [min, max] code span.
// The synopsis is ~3 orders of magnitude smaller than the user data
// (a few words per 1,024 tuples) and is consulted before any page is
// touched, so skipped strides cost neither I/O nor buffer-pool space.
package synopsis

import (
	"dashdb/internal/encoding"
)

// Entry summarizes one column over one stride.
type Entry struct {
	MinCode  uint64
	MaxCode  uint64
	NullCnt  uint32
	RowCnt   uint32
	AllNulls bool
}

// Column is the per-column synopsis: one entry per stride, in stride
// order, plus a column-wide distinct-count sketch fed at seal time.
type Column struct {
	entries []Entry
	sketch  Sketch
}

// Set overwrites the entry for stride s, extending the synopsis if the
// stride is new (used when the open stride is re-summarized at seal time).
func (c *Column) Set(s int, e Entry) {
	for len(c.entries) <= s {
		c.entries = append(c.entries, Entry{})
	}
	c.entries[s] = e
}

// Entries exposes the live entry slice for zero-copy snapshotting: the
// columnar layer clamps it to its current length so published epochs see
// a frozen prefix while the writer keeps appending. Callers must treat
// the result as read-only; Column only ever appends (never overwrites)
// entries for new strides, so clamped prefixes stay stable.
func (c *Column) Entries() []Entry { return c.entries }

// MemSize returns the synopsis footprint in bytes: this is what makes the
// "three orders of magnitude smaller" claim measurable (experiment F-D).
//
//dashdb:nolint deadcode F-D: the synopsis-size figure, which TestSynopsisMuchSmallerThanData measures
func (c *Column) MemSize() int { return len(c.entries)*24 + 24 + sketchRegisters }

// Observe feeds a sealed stride's codes into the distinct-count sketch.
// Called alongside Set at seal time; NULL positions are skipped (NULL
// never joins, so it does not count as a key value).
func (c *Column) Observe(codes []uint64, isNull func(i int) bool) {
	prev, seen := uint64(0), false
	for i, code := range codes {
		if isNull != nil && isNull(i) || seen && code == prev {
			continue // a repeated code cannot raise a register
		}
		c.sketch.AddCode(code)
		prev, seen = code, true
	}
}

// SketchCopy snapshots the distinct sketch so callers can fold in the
// open stride's codes without mutating the sealed state.
func (c *Column) SketchCopy() Sketch { return c.sketch }

// Summarize builds an entry from a stride's codes and null positions.
// nulls may be nil when the stride contains no NULLs.
func Summarize(codes []uint64, isNull func(i int) bool) Entry {
	e := Entry{RowCnt: uint32(len(codes))}
	first := true
	for i, code := range codes {
		if isNull != nil && isNull(i) {
			e.NullCnt++
			continue
		}
		if first {
			e.MinCode, e.MaxCode = code, code
			first = false
			continue
		}
		if code < e.MinCode {
			e.MinCode = code
		}
		if code > e.MaxCode {
			e.MaxCode = code
		}
	}
	e.AllNulls = first && len(codes) > 0
	return e
}

// MayMatch reports whether a stride could contain a tuple satisfying the
// code-space predicate; false means the stride is safely skippable.
// Residual ranges are treated as potentially matching (they cannot prove
// absence), but still allow skipping when they fall entirely outside the
// stride's code span.
func MayMatch(p encoding.Predicate, e Entry) bool {
	if p.None {
		return false
	}
	if e.AllNulls {
		return false // comparison predicates never match NULL
	}
	if p.All {
		return e.RowCnt > e.NullCnt
	}
	for _, r := range p.Ranges {
		if r.Lo <= e.MaxCode && r.Hi >= e.MinCode {
			return true
		}
	}
	for _, r := range p.Residual {
		if r.Lo <= e.MaxCode && r.Hi >= e.MinCode {
			return true
		}
	}
	return false
}
