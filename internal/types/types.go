// Package types defines the SQL value system shared by every layer of the
// dashDB Local reproduction: the columnar engine, the row-store baseline,
// the SQL front end, the MPP coordinator and the integrated analytics
// runtime all exchange data as types.Value.
//
// A Value is a small tagged union. Numeric values are held as int64 or
// float64, strings as Go strings, and temporal values as int64 day or
// microsecond counts since the Unix epoch, which keeps comparison and
// hashing branch-light on the hot scan path.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the SQL types supported by the engine.
type Kind uint8

const (
	// KindNull is the type of the untyped NULL literal.
	KindNull Kind = iota
	// KindBool is BOOLEAN (Netezza/PostgreSQL dialect surface).
	KindBool
	// KindInt covers SMALLINT/INT/BIGINT (INT2/INT4/INT8).
	KindInt
	// KindFloat covers REAL/DOUBLE (FLOAT4/FLOAT8) and DECFLOAT.
	KindFloat
	// KindString covers CHAR/VARCHAR/VARCHAR2/BPCHAR/GRAPHIC.
	KindString
	// KindDate is a calendar date stored as days since 1970-01-01.
	KindDate
	// KindTimestamp is a timestamp stored as microseconds since the epoch.
	KindTimestamp
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	case KindTimestamp:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether values of this kind participate in arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is a single SQL datum. The zero Value is SQL NULL.
type Value struct {
	kind Kind
	i    int64   // KindBool (0/1), KindInt, KindDate (days), KindTimestamp (µs)
	f    float64 // KindFloat
	s    string  // KindString
	null bool
}

// Null is the SQL NULL value.
var Null = Value{kind: KindNull, null: true}

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// NewInt returns a BIGINT value.
func NewInt(i int64) Value { return Value{kind: KindInt, i: i} }

// NewFloat returns a DOUBLE value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, f: f} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewDate returns a DATE value from days since 1970-01-01.
func NewDate(days int64) Value { return Value{kind: KindDate, i: days} }

// NewTimestamp returns a TIMESTAMP value from microseconds since the epoch.
func NewTimestamp(us int64) Value { return Value{kind: KindTimestamp, i: us} }

// NullOf returns the NULL value carrying a specific kind, so that typed
// columns can hold NULLs without losing their declared type.
func NullOf(k Kind) Value { return Value{kind: k, null: true} }

// DateFromTime converts a time.Time to a DATE value (UTC calendar date).
func DateFromTime(t time.Time) Value {
	t = t.UTC()
	days := t.Unix() / 86400
	if t.Unix() < 0 && t.Unix()%86400 != 0 {
		days--
	}
	return NewDate(days)
}

// TimestampFromTime converts a time.Time to a TIMESTAMP value.
func TimestampFromTime(t time.Time) Value { return NewTimestamp(t.UTC().UnixMicro()) }

// Kind returns the value's type. NULLs report the kind they were declared
// with (KindNull for the bare NULL literal).
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.null || v.kind == KindNull }

// Bool returns the boolean payload. It is only meaningful for KindBool.
func (v Value) Bool() bool { return v.i != 0 }

// Int returns the integer payload (BIGINT, DATE days, TIMESTAMP µs).
func (v Value) Int() int64 { return v.i }

// Float returns the value as float64, converting integers.
func (v Value) Float() float64 {
	if v.kind == KindFloat {
		return v.f
	}
	return float64(v.i)
}

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// Time converts a DATE or TIMESTAMP value back to time.Time in UTC.
func (v Value) Time() time.Time {
	switch v.kind {
	case KindDate:
		return time.Unix(v.i*86400, 0).UTC()
	case KindTimestamp:
		return time.UnixMicro(v.i).UTC()
	default:
		return time.Time{}
	}
}

// String renders the value the way the engine's console prints it.
func (v Value) String() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.kind {
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindDate:
		return v.Time().Format("2006-01-02")
	case KindTimestamp:
		return v.Time().Format("2006-01-02 15:04:05.000000")
	default:
		return "NULL"
	}
}

// AsInt coerces the value to int64 where a lossless or truncating
// conversion exists. ok is false for NULL and non-numeric strings.
func (v Value) AsInt() (i int64, ok bool) {
	if v.IsNull() {
		return 0, false
	}
	switch v.kind {
	case KindInt, KindBool, KindDate, KindTimestamp:
		return v.i, true
	case KindFloat:
		return int64(v.f), true
	case KindString:
		i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if ferr != nil {
				return 0, false
			}
			return int64(f), true
		}
		return i, true
	}
	return 0, false
}

// AsFloat coerces the value to float64. ok is false for NULL and
// non-numeric strings.
func (v Value) AsFloat() (float64, bool) {
	if v.IsNull() {
		return 0, false
	}
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt, KindBool, KindDate, KindTimestamp:
		return float64(v.i), true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	}
	return 0, false
}

// Compare orders two values. NULL sorts before every non-NULL value
// (NULLS FIRST), matching the engine's sort and merge conventions.
// Numeric kinds compare by value regardless of int/float representation;
// mixed non-numeric kinds compare by kind tag so sorting heterogeneous
// data is still deterministic.
func Compare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if a.kind.Numeric() && b.kind.Numeric() {
		if a.kind == KindInt && b.kind == KindInt {
			return cmpInt(a.i, b.i)
		}
		return cmpFloat(a.Float(), b.Float())
	}
	if a.kind != b.kind {
		return cmpInt(int64(a.kind), int64(b.kind))
	}
	switch a.kind {
	case KindBool, KindDate, KindTimestamp:
		return cmpInt(a.i, b.i)
	case KindString:
		return strings.Compare(a.s, b.s)
	}
	return 0
}

// Equal reports SQL equality; NULL is not equal to anything, including NULL.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	// NaNs sort high so sorting never loses elements.
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return 1
	default:
		return -1
	}
}

// Hash returns a 64-bit hash of the value used for hash joins, grouping
// and MPP shard routing. Equal values (under Compare==0) hash equally,
// including int/float values that compare equal.
func (v Value) Hash() uint64 {
	if v.IsNull() {
		return NullHash
	}
	switch v.kind {
	case KindInt, KindBool, KindDate, KindTimestamp:
		return HashInt(v.i)
	case KindFloat:
		return HashFloat(v.f)
	case KindString:
		return HashString(v.s)
	default:
		return 0
	}
}

// NullHash is the hash of every NULL.
const NullHash = 0x9e3779b97f4a7c15

// HashInt is Hash of a non-NULL BOOLEAN, BIGINT, DATE or TIMESTAMP
// payload, for kernels that hold the payload unboxed.
//
//dashdb:hotpath
func HashInt(x int64) uint64 { return mix64(uint64(x)) }

// HashFloat is Hash of a non-NULL DOUBLE.
//
//dashdb:hotpath
func HashFloat(f float64) uint64 {
	if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
		// Hash integral floats as their integer value so that
		// NewInt(3) and NewFloat(3.0) land in the same bucket.
		return mix64(uint64(int64(f)))
	}
	return mix64(math.Float64bits(f))
}

// mix64 is the finalizer from SplitMix64; a fast, well-distributed
// integer mixer suitable for hash partitioning.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashString is Hash of a non-NULL VARCHAR: FNV-1a 64-bit, inlined to
// avoid allocating a hash.Hash.
//
//dashdb:hotpath
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// ParseDate parses "YYYY-MM-DD" (and Oracle's "DD-MON-YYYY") into a DATE.
func ParseDate(s string) (Value, error) {
	s = strings.TrimSpace(s)
	if t, err := time.ParseInLocation("2006-01-02", s, time.UTC); err == nil {
		return DateFromTime(t), nil
	}
	if t, err := time.ParseInLocation("02-Jan-2006", s, time.UTC); err == nil {
		return DateFromTime(t), nil
	}
	return Null, fmt.Errorf("types: invalid DATE literal %q", s)
}

// ParseTimestamp parses "YYYY-MM-DD HH:MM:SS[.ffffff]" into a TIMESTAMP.
func ParseTimestamp(s string) (Value, error) {
	s = strings.TrimSpace(s)
	for _, layout := range []string{
		"2006-01-02 15:04:05.999999",
		"2006-01-02 15:04:05",
		"2006-01-02-15.04.05.999999", // DB2 timestamp format
		"2006-01-02",
	} {
		if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			return TimestampFromTime(t), nil
		}
	}
	return Null, fmt.Errorf("types: invalid TIMESTAMP literal %q", s)
}

// Coerce converts v to kind k following SQL assignment rules, returning an
// error when the conversion is not defined. NULL coerces to NULL of any kind.
func Coerce(v Value, k Kind) (Value, error) {
	if v.IsNull() {
		return NullOf(k), nil
	}
	if v.kind == k {
		return v, nil
	}
	switch k {
	case KindBool:
		switch v.kind {
		case KindInt, KindFloat:
			i, _ := v.AsInt()
			return NewBool(i != 0), nil
		case KindString:
			switch strings.ToLower(strings.TrimSpace(v.s)) {
			case "t", "true", "1", "yes", "on":
				return NewBool(true), nil
			case "f", "false", "0", "no", "off":
				return NewBool(false), nil
			}
		}
	case KindInt:
		if i, ok := v.AsInt(); ok {
			return NewInt(i), nil
		}
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return NewFloat(f), nil
		}
	case KindString:
		return NewString(v.String()), nil
	case KindDate:
		switch v.kind {
		case KindString:
			return ParseDate(v.s)
		case KindTimestamp:
			us := v.i
			days := us / 86400e6
			if us < 0 && us%86400e6 != 0 {
				days--
			}
			return NewDate(days), nil
		case KindInt:
			return NewDate(v.i), nil
		}
	case KindTimestamp:
		switch v.kind {
		case KindString:
			return ParseTimestamp(v.s)
		case KindDate:
			return NewTimestamp(v.i * 86400e6), nil
		case KindInt:
			return NewTimestamp(v.i), nil
		}
	}
	return Null, fmt.Errorf("types: cannot coerce %s value %q to %s", v.kind, v.String(), k)
}
