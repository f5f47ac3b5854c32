// Package deadbad is the positive deadcode fixture: functions no root
// reaches, and an interface method nothing calls.
package deadbad

// sink's flush is called by nothing: one finding, at the interface, and
// none at the implementations.
type sink interface {
	write(p []byte) int
	flush(force bool) //lint:expect deadcode
}

type buf struct{ data []byte }

func (b *buf) write(p []byte) int {
	b.data = append(b.data, p...)
	return len(p)
}

func (b *buf) flush(force bool) {
	if force {
		b.data = b.data[:0]
	}
}

type discard struct{}

func (discard) write(p []byte) int { return len(p) }

func (discard) flush(bool) {}

// Emit calls write through the interface.
func Emit(s sink, p []byte) int { return s.write(p) }

// Sinks makes the concrete types.
func Sinks() []sink { return []sink{&buf{}, discard{}} }

func orphan() int { return helper() } //lint:expect deadcode

// helper is reached only from orphan, which nothing reaches.
func helper() int { return 7 } //lint:expect deadcode

type meter struct{ n int }

func (m *meter) tick() { m.n++ } //lint:expect deadcode

// Ticks never uses tick: a method is dead like any function.
func Ticks(m *meter) int { return m.n }
