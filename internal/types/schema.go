package types

import (
	"fmt"
	"strings"
)

// Column describes one column of a relation: its name, type and
// nullability. Column is shared by the catalog, both storage engines and
// the executor so that plans can be described without import cycles.
type Column struct {
	Name     string
	Kind     Kind
	Nullable bool
}

// Schema is an ordered list of columns.
type Schema []Column

// ColumnIndex returns the position of the named column (case-insensitive),
// or -1 when absent.
func (s Schema) ColumnIndex(name string) int {
	for i := range s {
		if strings.EqualFold(s[i].Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	names := make([]string, len(s))
	for i := range s {
		names[i] = s[i].Name
	}
	return names
}

// Validate checks a row against the schema: arity, kind compatibility and
// nullability. It returns a coerced copy of the row on success.
func (s Schema) Validate(row Row) (Row, error) {
	if len(row) != len(s) {
		return nil, fmt.Errorf("types: row has %d values, schema %q expects %d", len(row), s.Names(), len(s))
	}
	out := make(Row, len(row))
	for i, v := range row {
		if v.IsNull() {
			if !s[i].Nullable {
				return nil, fmt.Errorf("types: NULL in non-nullable column %s", s[i].Name)
			}
			out[i] = NullOf(s[i].Kind)
			continue
		}
		cv, err := Coerce(v, s[i].Kind)
		if err != nil {
			return nil, fmt.Errorf("types: column %s: %w", s[i].Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

// String renders the schema as "(name TYPE [NOT NULL], ...)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
		if !c.Nullable {
			b.WriteString(" NOT NULL")
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Row is a tuple of values positionally matching some Schema.
type Row []Value

// Clone returns a copy of the row that shares no slice storage.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as "(v1, v2, ...)".
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Hash combines the hashes of all values; used for row-level dedup and
// for routing rows whose distribution key is the whole row.
func (r Row) Hash() uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range r {
		h = mix64(h ^ v.Hash())
	}
	return h
}
