//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package kernels exercises the hotpath analyzer: annotated functions must
// stay free of timers, formatters, and reflection.
package kernels

import (
	"fmt"
	"time"
)

// sumStride is a per-stride kernel.
//
//dashdb:hotpath
func sumStride(vals []int64) (int64, time.Duration) {
	start := time.Now() //lint:expect hotpath
	var s int64
	for _, v := range vals {
		s += v
	}
	return s, time.Since(start) //lint:expect hotpath
}

// decodeRow formats per row — the classic profile killer.
//
//dashdb:hotpath
func decodeRow(ids []int64) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, fmt.Sprintf("row-%d", id)) //lint:expect hotpath
	}
	return out
}
