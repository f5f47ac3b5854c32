//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package pool exercises the goroutine analyzer: library goroutines with no
// join and no cancellation leak past their caller.
package pool

import "sync/atomic"

var work atomic.Int64

func churn() {
	for i := 0; i < 1000; i++ {
		work.Add(1)
	}
}

func fireAndForget() {
	go churn()  //lint:expect goroutine
	go func() { //lint:expect goroutine
		for {
			work.Add(1)
		}
	}()
}
