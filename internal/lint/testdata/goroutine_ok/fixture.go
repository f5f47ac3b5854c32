//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package pool is the negative goroutine fixture: joined, channel-fed, and
// context-cancelled goroutines all have an ending.
package pool

import (
	"context"
	"sync"
)

func joined(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

func producer(out chan<- int) {
	go func() {
		for i := 0; ; i++ {
			out <- i
		}
	}()
}

func consume(in <-chan int) {
	go func() {
		for range in {
		}
	}()
}

func watcher(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

func drain(in chan int) {
	go drainLoop(in) // callee is handed the channel it ranges over
}

func drainLoop(in chan int) {
	for range in {
	}
}
