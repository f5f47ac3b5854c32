//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package kernels is the negative hotpath fixture: clean annotated kernels,
// and formatters outside any annotation.
package kernels

import (
	"fmt"
	"time"
)

// sumStride does pure arithmetic — exactly what a hotpath should be.
//
//dashdb:hotpath
func sumStride(vals []int64) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	return s
}

// timedScan is NOT annotated, so timers and formatters are fine here.
func timedScan(vals []int64) string {
	start := time.Now()
	s := sumStride(vals)
	return fmt.Sprintf("sum=%d in %v", s, time.Since(start))
}
