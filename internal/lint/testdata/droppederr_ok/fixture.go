//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package store is the negative droppederr fixture: handled errors,
// genuinely boolean blanks, and justified drops.
package store

import (
	"errors"
	"strconv"
)

var errClosed = errors.New("closed")

type writer struct{ closed bool }

func (w *writer) Close() error {
	if w.closed {
		return errClosed
	}
	w.closed = true
	return nil
}

func flush(w *writer) error {
	return w.Close()
}

func parse(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	return n, nil
}

func lookups(m map[string]int, v any) int {
	n, _ := m["k"] // second value is a bool, not an error: never flagged
	s, _ := v.(string)
	_ = s
	return n
}

func bestEffort(w *writer) {
	_ = w.Close() //dashdb:nolint droppederr double-close is harmless on teardown
}
