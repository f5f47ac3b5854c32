package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null must be null")
	}
	if v := NewBool(true); !v.Bool() || v.Kind() != KindBool {
		t.Fatalf("NewBool: %v", v)
	}
	if v := NewInt(-42); v.Int() != -42 || v.Kind() != KindInt {
		t.Fatalf("NewInt: %v", v)
	}
	if v := NewFloat(2.5); v.Float() != 2.5 || v.Kind() != KindFloat {
		t.Fatalf("NewFloat: %v", v)
	}
	if v := NewString("abc"); v.Str() != "abc" || v.Kind() != KindString {
		t.Fatalf("NewString: %v", v)
	}
	if v := NullOf(KindInt); !v.IsNull() || v.Kind() != KindInt {
		t.Fatalf("NullOf: %v kind=%v", v, v.Kind())
	}
}

func TestDateRoundTrip(t *testing.T) {
	for _, s := range []string{"1970-01-01", "2016-06-15", "1969-12-31", "2026-07-04"} {
		v, err := ParseDate(s)
		if err != nil {
			t.Fatalf("ParseDate(%s): %v", s, err)
		}
		if got := v.String(); got != s {
			t.Errorf("date %s round-tripped to %s", s, got)
		}
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("expected error for invalid date")
	}
	// Oracle DD-MON-YYYY form.
	v, err := ParseDate("15-Jun-2016")
	if err != nil {
		t.Fatalf("oracle date: %v", err)
	}
	if v.String() != "2016-06-15" {
		t.Errorf("oracle date = %s", v)
	}
}

func TestTimestampRoundTrip(t *testing.T) {
	v, err := ParseTimestamp("2016-06-15 10:30:00.000123")
	if err != nil {
		t.Fatal(err)
	}
	want := time.Date(2016, 6, 15, 10, 30, 0, 123000, time.UTC)
	if !v.Time().Equal(want) {
		t.Errorf("got %v want %v", v.Time(), want)
	}
	// DB2 dotted format.
	if _, err := ParseTimestamp("2016-06-15-10.30.00.000123"); err != nil {
		t.Errorf("db2 format: %v", err)
	}
}

func TestCompareOrderingRules(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewFloat(1.5), NewInt(2), -1},
		{NewString("a"), NewString("b"), -1},
		{Null, NewInt(0), -1}, // NULLs first
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewBool(false), NewBool(true), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null, Null) {
		t.Error("NULL must not equal NULL")
	}
	if Equal(Null, NewInt(1)) || Equal(NewInt(1), Null) {
		t.Error("NULL must not equal a value")
	}
	if !Equal(NewInt(7), NewFloat(7)) {
		t.Error("7 must equal 7.0")
	}
}

func TestHashConsistentWithEquality(t *testing.T) {
	if NewInt(3).Hash() != NewFloat(3.0).Hash() {
		t.Error("3 and 3.0 must hash equally")
	}
	if NewString("x").Hash() == NewString("y").Hash() {
		t.Error("suspicious string hash collision")
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(NewString("42"), KindInt)
	if err != nil || v.Int() != 42 {
		t.Fatalf("coerce string->int: %v %v", v, err)
	}
	v, err = Coerce(NewInt(1), KindBool)
	if err != nil || !v.Bool() {
		t.Fatalf("coerce int->bool: %v %v", v, err)
	}
	v, err = Coerce(NewString("2016-06-15"), KindDate)
	if err != nil || v.String() != "2016-06-15" {
		t.Fatalf("coerce string->date: %v %v", v, err)
	}
	v, err = Coerce(Null, KindInt)
	if err != nil || !v.IsNull() || v.Kind() != KindInt {
		t.Fatalf("coerce null: %v %v", v, err)
	}
	if _, err := Coerce(NewString("xyz"), KindInt); err == nil {
		t.Error("expected coerce failure for non-numeric string")
	}
	// Date <-> timestamp round trip.
	d, _ := ParseDate("2016-06-15")
	ts, err := Coerce(d, KindTimestamp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Coerce(ts, KindDate)
	if err != nil || Compare(back, d) != 0 {
		t.Fatalf("date->ts->date: %v %v", back, err)
	}
}

func TestSchemaValidate(t *testing.T) {
	s := Schema{
		{Name: "id", Kind: KindInt},
		{Name: "name", Kind: KindString, Nullable: true},
	}
	row, err := s.Validate(Row{NewString("7"), Null})
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int() != 7 || !row[1].IsNull() {
		t.Fatalf("validated row: %v", row)
	}
	if _, err := s.Validate(Row{Null, NewString("x")}); err == nil {
		t.Error("expected NOT NULL violation")
	}
	if _, err := s.Validate(Row{NewInt(1)}); err == nil {
		t.Error("expected arity error")
	}
	if s.ColumnIndex("NAME") != 1 {
		t.Error("ColumnIndex must be case-insensitive")
	}
	if s.ColumnIndex("missing") != -1 {
		t.Error("ColumnIndex for missing column must be -1")
	}
	// Validate is CheckWidth, then Check value by value.
	for _, r := range []Row{
		{NewInt(7), NewString("x")},
		{NewInt(7), NullOf(KindString)},
		{NewInt(7), Null},
		{NewInt(7), NullOf(KindInt)},
		{NewString("7"), NewString("x")},
		{NewString("seven"), NewString("x")},
		{NewFloat(7), NewString("x")},
		{NullOf(KindInt), NewString("x")},
		{NewInt(7)},
	} {
		out, err := s.Validate(r)
		got, gotErr := make(Row, len(r)), s.CheckWidth(len(r))
		for i := 0; gotErr == nil && i < len(r); i++ {
			got[i], gotErr = s.Check(i, r[i])
		}
		if fmt.Sprint(err) != fmt.Sprint(gotErr) || err == nil && !slices.Equal(out, got) {
			t.Errorf("Validate(%v) = %v, %v; Check gives %v, %v", r, out, err, got, gotErr)
		}
	}
}

func TestRowCloneIndependence(t *testing.T) {
	r := Row{NewInt(1), NewInt(2)}
	c := r.Clone()
	c[0] = NewInt(99)
	if r[0].Int() != 1 {
		t.Error("Clone must not alias original")
	}
}

// Property: Compare is antisymmetric and consistent for random integers.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is transitive over random float triples.
func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true // NaN ordering tested separately
		}
		va, vb, vc := NewFloat(a), NewFloat(b), NewFloat(c)
		if Compare(va, vb) <= 0 && Compare(vb, vc) <= 0 {
			return Compare(va, vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: coercing any int to string and back is the identity.
func TestIntStringRoundTripProperty(t *testing.T) {
	f := func(a int64) bool {
		s, err := Coerce(NewInt(a), KindString)
		if err != nil {
			return false
		}
		back, err := Coerce(s, KindInt)
		return err == nil && back.Int() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: equal values hash equally (int vs float representations).
func TestHashEqualityProperty(t *testing.T) {
	f := func(a int32) bool {
		return NewInt(int64(a)).Hash() == NewFloat(float64(a)).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNaNSortsHigh(t *testing.T) {
	nan := NewFloat(math.NaN())
	if Compare(nan, NewFloat(math.Inf(1))) != 1 {
		t.Error("NaN must sort above +Inf")
	}
	if Compare(nan, nan) != 0 {
		t.Error("NaN must compare equal to NaN for sort stability")
	}
}

// TestReaderRefusesShortInput: a Reader gives back what the Append
// functions and varints wrote, and fails, for good, on a truncated
// integer, a length past the bytes left and a bool byte other than 0 or 1.
func TestReaderRefusesShortInput(t *testing.T) {
	b := binary.AppendVarint(AppendBool(AppendStr(nil, "héllo"), true), -7)
	b, _ = AppendCell(b, NewFloat(2.5))
	r := NewReader(b)
	if s, ok, n, v := r.Str(), r.Bool(), r.Varint(), r.Cell(); s != "héllo" || !ok || n != -7 || v.Float() != 2.5 || r.Err() != nil || len(r.Rest()) != 0 {
		t.Fatalf("read %q %v %d %v, err %v, %d left", s, ok, n, v, r.Err(), len(r.Rest()))
	}
	for _, c := range []struct {
		in   []byte
		read func(*Reader)
	}{
		{[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		{[]byte{}, func(r *Reader) { r.Byte() }},
		{[]byte{2}, func(r *Reader) { r.Bool() }},
		{[]byte{4, 'a', 'b'}, func(r *Reader) { r.Str() }},
		{[]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, func(r *Reader) { r.Count() }},
	} {
		r := NewReader(c.in)
		c.read(&r)
		if r.Err() == nil {
			t.Errorf("% x: accepted", c.in)
		}
		if r.Uvarint() != 0 || r.Str() != "" || r.Err() == nil {
			t.Errorf("% x: a read after the error did not read zero", c.in)
		}
	}
}
