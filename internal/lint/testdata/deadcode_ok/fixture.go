// Package deadok is the negative deadcode fixture: every function is
// reached from a root, most of them through a reference that is not a
// plain call.
package deadok

import "sort"

// Shape is a closed sum type: shape is its marker, which nothing calls.
type Shape interface {
	area() float64
	shape()
}

type square struct{ side float64 }

type circle struct{ r float64 }

func (s square) area() float64 { return s.side * s.side }

func (c circle) area() float64 { return 3 * c.r * c.r }

func (square) shape() {}

func (circle) shape() {}

// Total reaches both area methods through the interface.
func Total(shapes []Shape) float64 {
	t := 0.0
	for _, s := range shapes {
		t += s.area()
	}
	return t
}

// Shapes makes the concrete types.
func Shapes() []Shape { return []Shape{square{2}, circle{1}} }

// handlers is a registration table: a package-level var initializer is a
// root.
var handlers = map[string]func(int) int{
	"double": double,
}

func double(x int) int { return 2 * x }

// Handle dispatches through the table.
func Handle(name string, x int) int { return handlers[name](x) }

// job stores its callback in a struct field.
type job struct{ run func() int }

func answer() int { return 42 }

// Jobs builds a job whose callback is a function value.
func Jobs() []job { return []job{{run: answer}} }

type counter struct{ n int }

func (c *counter) inc() { c.n++ }

// Count hands a method value to a helper.
func Count(times int) int {
	c := &counter{}
	repeat(times, c.inc)
	return c.n
}

func repeat(n int, f func()) {
	for i := 0; i < n; i++ {
		f()
	}
}

// byLen implements sort.Interface, whose methods the standard library
// calls.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Sort orders words by length.
func Sort(words []string) { sort.Sort(byLen(words)) }

// kept is reached by nothing; its directive is the escape, and a kept
// function keeps what it calls.
//
//dashdb:nolint deadcode the fixture's escape: a kept function needs a reason
func kept() int { return keptHelper() }

func keptHelper() int { return 1 }
