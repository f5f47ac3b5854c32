//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package store exercises the droppederr analyzer: errors silenced with _
// must not pass review unseen.
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

func flush(w *writer) {
	_ = w.Close() //lint:expect droppederr
}

func parse(s string) int {
	n, _ := strconv.Atoi(s) //lint:expect droppederr
	return n
}

func swallow(w *writer) {
	err := w.Close()
	_ = err //lint:expect droppederr
}

func declare(s string) int {
	var n, _ = strconv.Atoi(s) //lint:expect droppederr
	return n
}
