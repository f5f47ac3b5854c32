//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package hotcg exercises the hotpathcg analyzer: //dashdb:hotpath
// kernels reaching allocating, locking, or immediately-panicking code
// through in-module helpers the local hotpath analyzer never looks
// inside.
package hotcg

import (
	"fmt"
	"sync"
)

var mu sync.Mutex

// describe formats its argument — an allocation two hops from the
// kernel.
func describe(x int) string {
	return fmt.Sprintf("row %d", x)
}

// render is the middle hop: clean itself, but reaches describe.
func render(x int) string {
	return describe(x)
}

// tally serializes every caller on a shared mutex.
func tally(n *int) {
	mu.Lock()
	*n++
	mu.Unlock()
}

// unimplemented is an abort stub: its body is a bare panic.
func unimplemented() {
	panic("hotcg: unimplemented")
}

// kernelAlloc reaches fmt.Sprintf through two in-module hops.
//
//dashdb:hotpath
func kernelAlloc(xs []int) int {
	total := 0
	for _, x := range xs {
		total += len(render(x)) //lint:expect hotpathcg
	}
	return total
}

// kernelLock takes a mutex per element.
//
//dashdb:hotpath
func kernelLock(xs []int) int {
	n := 0
	for range xs {
		tally(&n) //lint:expect hotpathcg
	}
	return n
}

// kernelAbort calls a panicking stub unconditionally: the "hot" path
// can never complete.
//
//dashdb:hotpath
func kernelAbort(xs []int) int {
	unimplemented() //lint:expect hotpathcg
	return len(xs)
}
