package sql

import (
	"math"
	"testing"
)

// TestExp: EXP is strict and follows math.Exp, +Inf on overflow, over a
// literal, a NULL and an integer argument alike.
func TestExp(t *testing.T) {
	c := NewCompiler(nil, DialectANSI, &EvalEnv{Dialect: DialectANSI})
	for text, want := range map[string]float64{
		"EXP(0)":                    1,
		"EXP(-1)":                   math.Exp(-1),
		"EXP(2.5)":                  math.Exp(2.5),
		"EXP(1000)":                 math.Inf(1),
		"EXP(-1000)":                0,
		"EXP(3 - 4)":                math.Exp(-1),
		"EXP('1')":                  math.E,
		"EXP(NULL)":                 math.NaN(), // NULL
		"EXP(CAST(NULL AS DOUBLE))": math.NaN(),
	} {
		e, err := ParseExpr(text, DialectANSI)
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.EvalConst(e)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if math.IsNaN(want) {
			if !v.IsNull() {
				t.Errorf("%s = %v, want NULL", text, v)
			}
		} else if got, ok := v.AsFloat(); !ok || got != want {
			t.Errorf("%s = %v, want %v", text, v, want)
		}
	}
	for _, bad := range []string{"EXP()", "EXP(1, 2)", "EXP('x')"} {
		e, err := ParseExpr(bad, DialectANSI)
		if err != nil {
			continue
		}
		if v, err := c.EvalConst(e); err == nil {
			t.Errorf("%s = %v, want an error", bad, v)
		}
	}
}
