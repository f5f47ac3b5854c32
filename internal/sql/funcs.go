package sql

import (
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"dashdb/internal/types"
)

// EvalEnv carries per-session evaluation state into scalar functions:
// the statement clock (NOW/SYSDATE are stable within a statement) and the
// active dialect.
type EvalEnv struct {
	Now     time.Time
	Dialect Dialect
}

// ScalarFunc is one entry of the polyglot function library (§II.C.1).
type ScalarFunc struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 = variadic
	// Dialects restricts availability; nil = all dialects.
	Dialects []Dialect
	Fn       func(env *EvalEnv, args []types.Value) (types.Value, error)
	// Float, set instead of Fn, is a strict function of one number, which
	// the compiler runs as a typed kernel over its argument as a DOUBLE.
	Float func(float64) float64
}

func (f *ScalarFunc) availableIn(d Dialect) bool {
	if len(f.Dialects) == 0 {
		return true
	}
	for _, fd := range f.Dialects {
		if fd == d {
			return true
		}
	}
	return false
}

// LookupFunc resolves a scalar function name under a dialect.
func LookupFunc(name string, d Dialect) (*ScalarFunc, error) {
	f, ok := funcRegistry[strings.ToUpper(name)]
	if !ok {
		return nil, fmt.Errorf("sql: unknown function %s", name)
	}
	if !f.availableIn(d) {
		return nil, fmt.Errorf("sql: function %s is not available in the %s dialect", name, d)
	}
	return f, nil
}

var funcRegistry = map[string]*ScalarFunc{}

func register(f *ScalarFunc) {
	funcRegistry[f.Name] = f
}

// alias registers an alternate name for an existing function.
func alias(name, target string, dialects ...Dialect) {
	t := funcRegistry[target]
	register(&ScalarFunc{Name: name, MinArgs: t.MinArgs, MaxArgs: t.MaxArgs, Dialects: dialects, Fn: t.Fn})
}

// argument helpers -----------------------------------------------------------

func strArg(v types.Value) string { return v.Str() }

func intArg(v types.Value) (int64, error) {
	i, ok := v.AsInt()
	if !ok {
		return 0, fmt.Errorf("sql: expected numeric argument, got %v", v)
	}
	return i, nil
}

func floatArg(v types.Value) (float64, error) {
	f, ok := v.AsFloat()
	if !ok {
		return 0, fmt.Errorf("sql: expected numeric argument, got %v", v)
	}
	return f, nil
}

// anyNull returns true if any argument is NULL (the common strict rule).
func anyNull(args []types.Value) bool {
	for _, a := range args {
		if a.IsNull() {
			return true
		}
	}
	return false
}

// strict wraps a function with NULL-in → NULL-out semantics.
func strict(fn func(env *EvalEnv, args []types.Value) (types.Value, error)) func(*EvalEnv, []types.Value) (types.Value, error) {
	return func(env *EvalEnv, args []types.Value) (types.Value, error) {
		if anyNull(args) {
			return types.Null, nil
		}
		return fn(env, args)
	}
}

var oracleOnly = []Dialect{DialectOracle}
var netezzaOnly = []Dialect{DialectNetezza}
var db2Only = []Dialect{DialectDB2}

func init() {
	registerCommon()
	registerOracle()
	registerNetezza()
	registerDB2()
}

func registerCommon() {
	register(&ScalarFunc{Name: "UPPER", MinArgs: 1, MaxArgs: 1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		return types.NewString(strings.ToUpper(strArg(a[0]))), nil
	})})
	register(&ScalarFunc{Name: "LOWER", MinArgs: 1, MaxArgs: 1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		return types.NewString(strings.ToLower(strArg(a[0]))), nil
	})})
	register(&ScalarFunc{Name: "LENGTH", MinArgs: 1, MaxArgs: 1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		return types.NewInt(int64(len(strArg(a[0])))), nil
	})})
	alias("CHAR_LENGTH", "LENGTH")
	alias("LEN", "LENGTH")
	register(&ScalarFunc{Name: "TRIM", MinArgs: 1, MaxArgs: 1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		return types.NewString(strings.TrimSpace(strArg(a[0]))), nil
	})})
	register(&ScalarFunc{Name: "LTRIM", MinArgs: 1, MaxArgs: 2, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		cut := " "
		if len(a) == 2 {
			cut = strArg(a[1])
		}
		return types.NewString(strings.TrimLeft(strArg(a[0]), cut)), nil
	})})
	register(&ScalarFunc{Name: "RTRIM", MinArgs: 1, MaxArgs: 2, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		cut := " "
		if len(a) == 2 {
			cut = strArg(a[1])
		}
		return types.NewString(strings.TrimRight(strArg(a[0]), cut)), nil
	})})
	register(&ScalarFunc{Name: "REPLACE", MinArgs: 3, MaxArgs: 3, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		return types.NewString(strings.ReplaceAll(strArg(a[0]), strArg(a[1]), strArg(a[2]))), nil
	})})
	register(&ScalarFunc{Name: "CONCAT", MinArgs: 2, MaxArgs: -1, Fn: func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		var b strings.Builder
		for _, v := range a {
			if !v.IsNull() {
				b.WriteString(v.String())
			}
		}
		return types.NewString(b.String()), nil
	}})
	register(&ScalarFunc{Name: "ABS", MinArgs: 1, MaxArgs: 1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		if a[0].Kind() == types.KindInt {
			i := a[0].Int()
			if i < 0 {
				i = -i
			}
			return types.NewInt(i), nil
		}
		f, err := floatArg(a[0])
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(math.Abs(f)), nil
	})})
	register(&ScalarFunc{Name: "MOD", MinArgs: 2, MaxArgs: 2, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		x, err := intArg(a[0])
		if err != nil {
			return types.Null, err
		}
		y, err := intArg(a[1])
		if err != nil {
			return types.Null, err
		}
		if y == 0 {
			return types.Null, fmt.Errorf("sql: division by zero in MOD")
		}
		return types.NewInt(x % y), nil
	})})
	register(&ScalarFunc{Name: "ROUND", MinArgs: 1, MaxArgs: 2, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		f, err := floatArg(a[0])
		if err != nil {
			return types.Null, err
		}
		scale := int64(0)
		if len(a) == 2 {
			if scale, err = intArg(a[1]); err != nil {
				return types.Null, err
			}
		}
		mult := math.Pow(10, float64(scale))
		return types.NewFloat(math.Round(f*mult) / mult), nil
	})})
	register(&ScalarFunc{Name: "TRUNC", MinArgs: 1, MaxArgs: 2, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		f, err := floatArg(a[0])
		if err != nil {
			return types.Null, err
		}
		scale := int64(0)
		if len(a) == 2 {
			if scale, err = intArg(a[1]); err != nil {
				return types.Null, err
			}
		}
		mult := math.Pow(10, float64(scale))
		return types.NewFloat(math.Trunc(f*mult) / mult), nil
	})})
	register(&ScalarFunc{Name: "FLOOR", MinArgs: 1, MaxArgs: 1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		f, err := floatArg(a[0])
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(math.Floor(f)), nil
	})})
	register(&ScalarFunc{Name: "CEIL", MinArgs: 1, MaxArgs: 1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		f, err := floatArg(a[0])
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(math.Ceil(f)), nil
	})})
	alias("CEILING", "CEIL")
	register(&ScalarFunc{Name: "SQRT", MinArgs: 1, MaxArgs: 1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		f, err := floatArg(a[0])
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(math.Sqrt(f)), nil
	})})
	register(&ScalarFunc{Name: "EXP", MinArgs: 1, MaxArgs: 1, Float: math.Exp})
	register(&ScalarFunc{Name: "POWER", MinArgs: 2, MaxArgs: 2, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		x, err := floatArg(a[0])
		if err != nil {
			return types.Null, err
		}
		y, err := floatArg(a[1])
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(math.Pow(x, y)), nil
	})})
	register(&ScalarFunc{Name: "SIGN", MinArgs: 1, MaxArgs: 1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		f, err := floatArg(a[0])
		if err != nil {
			return types.Null, err
		}
		switch {
		case f > 0:
			return types.NewInt(1), nil
		case f < 0:
			return types.NewInt(-1), nil
		default:
			return types.NewInt(0), nil
		}
	})})
	register(&ScalarFunc{Name: "COALESCE", MinArgs: 1, MaxArgs: -1, Fn: func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		for _, v := range a {
			if !v.IsNull() {
				return v, nil
			}
		}
		return types.Null, nil
	}})
	register(&ScalarFunc{Name: "NULLIF", MinArgs: 2, MaxArgs: 2, Fn: func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		if types.Equal(a[0], a[1]) {
			return types.Null, nil
		}
		return a[0], nil
	}})
	register(&ScalarFunc{Name: "YEAR", MinArgs: 1, MaxArgs: 1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		t, err := asTime(a[0])
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(int64(t.Year())), nil
	})})
	register(&ScalarFunc{Name: "MONTH", MinArgs: 1, MaxArgs: 1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		t, err := asTime(a[0])
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(int64(t.Month())), nil
	})})
	register(&ScalarFunc{Name: "DAY", MinArgs: 1, MaxArgs: 1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		t, err := asTime(a[0])
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(int64(t.Day())), nil
	})})
	register(&ScalarFunc{Name: "CURRENT_DATE", MinArgs: 0, MaxArgs: 0, Fn: func(env *EvalEnv, _ []types.Value) (types.Value, error) {
		return types.DateFromTime(env.Now), nil
	}})
	register(&ScalarFunc{Name: "CURRENT_TIMESTAMP", MinArgs: 0, MaxArgs: 0, Fn: func(env *EvalEnv, _ []types.Value) (types.Value, error) {
		return types.TimestampFromTime(env.Now), nil
	}})
}

// asTime coerces a date/timestamp/string value to time.Time.
func asTime(v types.Value) (time.Time, error) {
	switch v.Kind() {
	case types.KindDate, types.KindTimestamp:
		return v.Time(), nil
	case types.KindString:
		if d, err := types.ParseDate(v.Str()); err == nil {
			return d.Time(), nil
		}
		if ts, err := types.ParseTimestamp(v.Str()); err == nil {
			return ts.Time(), nil
		}
	}
	return time.Time{}, fmt.Errorf("sql: expected date/timestamp, got %v", v)
}

func registerOracle() {
	register(&ScalarFunc{Name: "NVL", MinArgs: 2, MaxArgs: 2, Dialects: oracleOnly, Fn: func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		if a[0].IsNull() {
			return a[1], nil
		}
		return a[0], nil
	}})
	register(&ScalarFunc{Name: "NVL2", MinArgs: 3, MaxArgs: 3, Dialects: oracleOnly, Fn: func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		if a[0].IsNull() {
			return a[2], nil
		}
		return a[1], nil
	}})
	register(&ScalarFunc{Name: "DECODE", MinArgs: 3, MaxArgs: -1, Dialects: oracleOnly, Fn: func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		// DECODE(expr, s1, r1, s2, r2, ..., [default]); NULL matches NULL.
		expr := a[0]
		rest := a[1:]
		for len(rest) >= 2 {
			s, r := rest[0], rest[1]
			if types.Equal(expr, s) || (expr.IsNull() && s.IsNull()) {
				return r, nil
			}
			rest = rest[2:]
		}
		if len(rest) == 1 {
			return rest[0], nil
		}
		return types.Null, nil
	}})
	substr := func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		s := strArg(a[0])
		start, err := intArg(a[1])
		if err != nil {
			return types.Null, err
		}
		// Oracle: position 1-based; 0 treated as 1; negative counts from end.
		switch {
		case start == 0:
			start = 1
		case start < 0:
			start = int64(len(s)) + start + 1
			if start < 1 {
				return types.NewString(""), nil
			}
		}
		if start > int64(len(s)) {
			return types.NewString(""), nil
		}
		sub := s[start-1:]
		if len(a) == 3 {
			n, err := intArg(a[2])
			if err != nil {
				return types.Null, err
			}
			if n < 0 {
				return types.Null, nil
			}
			if n < int64(len(sub)) {
				sub = sub[:n]
			}
		}
		return types.NewString(sub), nil
	}
	register(&ScalarFunc{Name: "SUBSTR", MinArgs: 2, MaxArgs: 3, Fn: strict(substr)})
	alias("SUBSTR2", "SUBSTR", DialectOracle)
	alias("SUBSTR4", "SUBSTR", DialectOracle)
	alias("SUBSTRB", "SUBSTR", DialectOracle)
	alias("SUBSTRING", "SUBSTR")
	register(&ScalarFunc{Name: "INSTR", MinArgs: 2, MaxArgs: 2, Dialects: oracleOnly, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		return types.NewInt(int64(strings.Index(strArg(a[0]), strArg(a[1])) + 1)), nil
	})})
	pad := func(left bool) func(*EvalEnv, []types.Value) (types.Value, error) {
		return strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
			s := strArg(a[0])
			n, err := intArg(a[1])
			if err != nil {
				return types.Null, err
			}
			fill := " "
			if len(a) == 3 {
				fill = strArg(a[2])
			}
			if fill == "" || n <= int64(len(s)) {
				if n < int64(len(s)) {
					s = s[:n]
				}
				return types.NewString(s), nil
			}
			padLen := int(n) - len(s)
			padding := strings.Repeat(fill, padLen/len(fill)+1)[:padLen]
			if left {
				return types.NewString(padding + s), nil
			}
			return types.NewString(s + padding), nil
		})
	}
	register(&ScalarFunc{Name: "LPAD", MinArgs: 2, MaxArgs: 3, Fn: pad(true)})
	register(&ScalarFunc{Name: "RPAD", MinArgs: 2, MaxArgs: 3, Fn: pad(false)})
	register(&ScalarFunc{Name: "INITCAP", MinArgs: 1, MaxArgs: 1, Dialects: oracleOnly, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		s := strings.ToLower(strArg(a[0]))
		var b strings.Builder
		up := true
		for _, r := range s {
			if up && r >= 'a' && r <= 'z' {
				b.WriteRune(r - 32)
			} else {
				b.WriteRune(r)
			}
			up = r == ' ' || r == '\t' || r == '-' || r == '_'
		}
		return types.NewString(b.String()), nil
	})})
	register(&ScalarFunc{Name: "HEXTORAW", MinArgs: 1, MaxArgs: 1, Dialects: oracleOnly, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		raw, err := hex.DecodeString(strArg(a[0]))
		if err != nil {
			return types.Null, fmt.Errorf("sql: HEXTORAW: %v", err)
		}
		return types.NewString(string(raw)), nil
	})})
	register(&ScalarFunc{Name: "RAWTOHEX", MinArgs: 1, MaxArgs: 1, Dialects: oracleOnly, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		return types.NewString(strings.ToUpper(hex.EncodeToString([]byte(strArg(a[0]))))), nil
	})})
	register(&ScalarFunc{Name: "LEAST", MinArgs: 1, MaxArgs: -1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		best := a[0]
		for _, v := range a[1:] {
			if types.Compare(v, best) < 0 {
				best = v
			}
		}
		return best, nil
	})})
	register(&ScalarFunc{Name: "GREATEST", MinArgs: 1, MaxArgs: -1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		best := a[0]
		for _, v := range a[1:] {
			if types.Compare(v, best) > 0 {
				best = v
			}
		}
		return best, nil
	})})
	register(&ScalarFunc{Name: "TO_CHAR", MinArgs: 1, MaxArgs: 2, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		if len(a) == 2 && (a[0].Kind() == types.KindDate || a[0].Kind() == types.KindTimestamp) {
			return types.NewString(formatOracleDate(a[0].Time(), strArg(a[1]))), nil
		}
		return types.NewString(a[0].String()), nil
	})})
	register(&ScalarFunc{Name: "TO_DATE", MinArgs: 1, MaxArgs: 2, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		v, err := types.ParseDate(strArg(a[0]))
		if err != nil && len(a) == 2 {
			if t, perr := parseOracleDate(strArg(a[0]), strArg(a[1])); perr == nil {
				return types.DateFromTime(t), nil
			}
		}
		return v, err
	})})
	register(&ScalarFunc{Name: "TO_NUMBER", MinArgs: 1, MaxArgs: 1, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		s := strings.TrimSpace(strArg(a[0]))
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return types.NewInt(i), nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return types.Null, fmt.Errorf("sql: TO_NUMBER: %q is not numeric", s)
		}
		return types.NewFloat(f), nil
	})})
	register(&ScalarFunc{Name: "SYSDATE", MinArgs: 0, MaxArgs: 0, Dialects: oracleOnly, Fn: func(env *EvalEnv, _ []types.Value) (types.Value, error) {
		return types.DateFromTime(env.Now), nil
	}})
}

// formatOracleDate supports the common Oracle date format elements.
func formatOracleDate(t time.Time, format string) string {
	r := strings.NewReplacer(
		"YYYY", "2006", "YY", "06",
		"MM", "01", "MON", "Jan",
		"DD", "02",
		"HH24", "15", "HH", "03",
		"MI", "04", "SS", "05",
	)
	return t.Format(r.Replace(strings.ToUpper(format)))
}

func parseOracleDate(s, format string) (time.Time, error) {
	r := strings.NewReplacer(
		"YYYY", "2006", "YY", "06",
		"MM", "01", "MON", "Jan",
		"DD", "02",
		"HH24", "15", "HH", "03",
		"MI", "04", "SS", "05",
	)
	return time.ParseInLocation(r.Replace(strings.ToUpper(format)), s, time.UTC)
}

func registerNetezza() {
	register(&ScalarFunc{Name: "NOW", MinArgs: 0, MaxArgs: 0, Dialects: netezzaOnly, Fn: func(env *EvalEnv, _ []types.Value) (types.Value, error) {
		return types.TimestampFromTime(env.Now), nil
	}})
	register(&ScalarFunc{Name: "DATE_PART", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		t, err := asTime(a[1])
		if err != nil {
			return types.Null, err
		}
		switch strings.ToLower(strArg(a[0])) {
		case "year":
			return types.NewInt(int64(t.Year())), nil
		case "month":
			return types.NewInt(int64(t.Month())), nil
		case "day":
			return types.NewInt(int64(t.Day())), nil
		case "hour":
			return types.NewInt(int64(t.Hour())), nil
		case "minute":
			return types.NewInt(int64(t.Minute())), nil
		case "second":
			return types.NewInt(int64(t.Second())), nil
		case "dow":
			return types.NewInt(int64(t.Weekday())), nil
		case "doy":
			return types.NewInt(int64(t.YearDay())), nil
		case "quarter":
			return types.NewInt(int64((t.Month()-1)/3 + 1)), nil
		case "week":
			_, w := t.ISOWeek()
			return types.NewInt(int64(w)), nil
		case "epoch":
			return types.NewInt(t.Unix()), nil
		default:
			return types.Null, fmt.Errorf("sql: DATE_PART: unknown field %q", strArg(a[0]))
		}
	})})
	register(&ScalarFunc{Name: "POW", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: funcRegistry["POWER"].Fn})
	hashFn := func(mask uint64) func(*EvalEnv, []types.Value) (types.Value, error) {
		return strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
			return types.NewInt(int64(a[0].Hash() & mask)), nil
		})
	}
	register(&ScalarFunc{Name: "HASH", MinArgs: 1, MaxArgs: 1, Dialects: netezzaOnly, Fn: hashFn(1<<63 - 1)})
	register(&ScalarFunc{Name: "HASH4", MinArgs: 1, MaxArgs: 1, Dialects: netezzaOnly, Fn: hashFn(1<<31 - 1)})
	register(&ScalarFunc{Name: "HASH8", MinArgs: 1, MaxArgs: 1, Dialects: netezzaOnly, Fn: hashFn(1<<63 - 1)})
	register(&ScalarFunc{Name: "BTRIM", MinArgs: 1, MaxArgs: 2, Dialects: netezzaOnly, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		cut := " "
		if len(a) == 2 {
			cut = strArg(a[1])
		}
		return types.NewString(strings.Trim(strArg(a[0]), cut)), nil
	})})
	register(&ScalarFunc{Name: "TO_HEX", MinArgs: 1, MaxArgs: 1, Dialects: netezzaOnly, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		i, err := intArg(a[0])
		if err != nil {
			return types.Null, err
		}
		return types.NewString(strconv.FormatInt(i, 16)), nil
	})})
	// intNand / intNor / intNnor / intNnot bit operations.
	for _, n := range []string{"1", "2", "4", "8"} {
		n := n
		register(&ScalarFunc{Name: "INT" + n + "AND", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: bitop(func(x, y int64) int64 { return x & y })})
		register(&ScalarFunc{Name: "INT" + n + "OR", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: bitop(func(x, y int64) int64 { return x | y })})
		register(&ScalarFunc{Name: "INT" + n + "NOR", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: bitop(func(x, y int64) int64 { return ^(x | y) })})
		register(&ScalarFunc{Name: "INT" + n + "XOR", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: bitop(func(x, y int64) int64 { return x ^ y })})
		register(&ScalarFunc{Name: "INT" + n + "NOT", MinArgs: 1, MaxArgs: 1, Dialects: netezzaOnly, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
			x, err := intArg(a[0])
			if err != nil {
				return types.Null, err
			}
			return types.NewInt(^x), nil
		})})
	}
	register(&ScalarFunc{Name: "STRLEFT", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		s := strArg(a[0])
		n, err := intArg(a[1])
		if err != nil {
			return types.Null, err
		}
		if n < 0 {
			n = 0
		}
		if n > int64(len(s)) {
			n = int64(len(s))
		}
		return types.NewString(s[:n]), nil
	})})
	alias("STRLFT", "STRLEFT", DialectNetezza)
	register(&ScalarFunc{Name: "STRRIGHT", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		s := strArg(a[0])
		n, err := intArg(a[1])
		if err != nil {
			return types.Null, err
		}
		if n < 0 {
			n = 0
		}
		if n > int64(len(s)) {
			n = int64(len(s))
		}
		return types.NewString(s[int64(len(s))-n:]), nil
	})})
	register(&ScalarFunc{Name: "STRPOS", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		return types.NewInt(int64(strings.Index(strArg(a[0]), strArg(a[1])) + 1)), nil
	})})
	register(&ScalarFunc{Name: "AGE", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		t1, err := asTime(a[0])
		if err != nil {
			return types.Null, err
		}
		t2, err := asTime(a[1])
		if err != nil {
			return types.Null, err
		}
		days := int64(t1.Sub(t2).Hours() / 24)
		return types.NewInt(days), nil
	})})
	register(&ScalarFunc{Name: "NEXT_MONTH", MinArgs: 1, MaxArgs: 1, Dialects: netezzaOnly, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		t, err := asTime(a[0])
		if err != nil {
			return types.Null, err
		}
		first := time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC).AddDate(0, 1, 0)
		return types.DateFromTime(first), nil
	})})
	between := func(unit time.Duration) func(*EvalEnv, []types.Value) (types.Value, error) {
		return strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
			t1, err := asTime(a[0])
			if err != nil {
				return types.Null, err
			}
			t2, err := asTime(a[1])
			if err != nil {
				return types.Null, err
			}
			return types.NewInt(int64(t2.Sub(t1) / unit)), nil
		})
	}
	register(&ScalarFunc{Name: "DAYS_BETWEEN", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: between(24 * time.Hour)})
	register(&ScalarFunc{Name: "HOURS_BETWEEN", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: between(time.Hour)})
	register(&ScalarFunc{Name: "SECONDS_BETWEEN", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: between(time.Second)})
	register(&ScalarFunc{Name: "WEEKS_BETWEEN", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: between(7 * 24 * time.Hour)})
	register(&ScalarFunc{Name: "MINUTES_BETWEEN", MinArgs: 2, MaxArgs: 2, Dialects: netezzaOnly, Fn: between(time.Minute)})
}

func bitop(op func(x, y int64) int64) func(*EvalEnv, []types.Value) (types.Value, error) {
	return strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		x, err := intArg(a[0])
		if err != nil {
			return types.Null, err
		}
		y, err := intArg(a[1])
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(op(x, y)), nil
	})
}

func registerDB2() {
	register(&ScalarFunc{Name: "NORMALIZE_DECFLOAT", MinArgs: 1, MaxArgs: 1, Dialects: db2Only, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		f, err := floatArg(a[0])
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(f), nil
	})})
	register(&ScalarFunc{Name: "COMPARE_DECFLOAT", MinArgs: 2, MaxArgs: 2, Dialects: db2Only, Fn: strict(func(_ *EvalEnv, a []types.Value) (types.Value, error) {
		x, err := floatArg(a[0])
		if err != nil {
			return types.Null, err
		}
		y, err := floatArg(a[1])
		if err != nil {
			return types.Null, err
		}
		switch {
		case math.IsNaN(x) || math.IsNaN(y):
			return types.NewInt(3), nil // unordered, per DB2
		case x < y:
			return types.NewInt(-1), nil
		case x > y:
			return types.NewInt(1), nil
		default:
			return types.NewInt(0), nil
		}
	})})
}

// LikeMatch implements SQL LIKE: '%' matches any run, '_' one character.
func LikeMatch(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative matcher with backtracking on '%'.
	var si, pi int
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
