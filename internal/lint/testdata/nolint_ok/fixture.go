//dashdb:nolint deadcode fixture: its functions are inputs to the other analyzers, not a program

// Package quiet proves //dashdb:nolint suppression works in both placements
// (trailing the line, and on the line above) and with analyzer lists.
package quiet

import "strconv"

type closer struct{}

func (c *closer) Close() error { return nil }

func drops(c *closer, s string) int {
	_ = c.Close() //dashdb:nolint droppederr teardown best-effort
	//dashdb:nolint droppederr parse failures fall back to zero
	n, _ := strconv.Atoi(s)
	return n
}

func assertAny(v any) string {
	return v.(string) //dashdb:nolint typeassert caller guarantees a string
}

func detach() {
	go loop() //dashdb:nolint goroutine process-lifetime metrics pump
}

func loop() {
	for {
	}
}

// misspelled's directive names no analyzer: it is reported, and
// suppresses nothing.
func misspelled(s string) int {
	n, _ := strconv.Atoi(s) //dashdb:nolint droppederrr misspelled //lint:expect droppederr nolint
	return n
}
