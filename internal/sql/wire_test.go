package sql

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dashdb/internal/types"
)

// wireShapes are statements the coordinator sends shards: the benchmark's
// seven SELECT classes as written, a scatter's rewritten partial-aggregate
// statement (mpp's _P aliases, AVG split in two), and DML and expression
// shapes a broadcast or a stage sends.
var wireShapes = []string{
	"SELECT amount FROM transactions WHERE txn_id = 417",
	"SELECT txn_type, COUNT(*), SUM(amount) FROM transactions WHERE txn_date >= DATE '2012-03-01' AND status = 'SETTLED' GROUP BY txn_type ORDER BY txn_type",
	"SELECT status, COUNT(*), SUM(amount), AVG(amount) FROM transactions GROUP BY status ORDER BY status",
	"SELECT account_id, COUNT(*), SUM(amount) FROM transactions GROUP BY account_id ORDER BY account_id FETCH FIRST 10 ROWS ONLY",
	"SELECT transactions.status, COUNT(*), SUM(transactions.amount) FROM transactions JOIN accounts ON transactions.account_id = accounts.account_id" +
		" WHERE transactions.txn_date >= DATE '2011-06-30' AND accounts.sector = 'retail' GROUP BY transactions.status ORDER BY transactions.status",
	"SELECT txn_id, amount FROM transactions WHERE txn_date >= DATE '2012-10-01' ORDER BY amount DESC, txn_id",
	"SELECT txn_id, amount FROM transactions WHERE txn_date >= DATE '2012-10-01' ORDER BY amount DESC, txn_id FETCH FIRST 100 ROWS ONLY",
	"SELECT status AS status, COUNT(*) AS _P0, SUM(amount) AS _P1, SUM(amount) AS _P2_S, COUNT(amount) AS _P2_C FROM transactions AS transactions GROUP BY status",
	"INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
	"UPDATE t SET v = v + 1.5 WHERE k BETWEEN -3 AND 7 AND s NOT IN ('a', 'b')",
	"SELECT CASE WHEN x IS NULL THEN 0 ELSE CAST(x AS DOUBLE) END FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k)",
}

// roundTrip encodes st and decodes it back, requiring the decoder to take
// every byte.
func roundTrip(t *testing.T, st Statement) Statement {
	t.Helper()
	b, err := AppendStmt(nil, st)
	if err != nil {
		t.Fatalf("encode %#v: %v", st, err)
	}
	got, n, err := ReadStmt(b)
	if err != nil {
		t.Fatalf("decode %#v: %v", st, err)
	}
	if n != len(b) {
		t.Fatalf("decode took %d of %d bytes", n, len(b))
	}
	return got
}

// deepUnary is a SELECT nested depth levels deep: the statement, its
// query expression, and depth-3 negations of a literal.
func deepUnary(depth int) Statement {
	var e Expr = &Literal{Val: types.NewInt(1)}
	for i := 3; i < depth; i++ {
		e = &UnaryOp{Op: "-", Expr: e}
	}
	return &SelectStmt{Items: []SelectItem{{Expr: e}}}
}

// TestStmtWireDepth: a tree at the depth bound crosses the wire; one a
// level deeper is refused by the encoder, and by the decoder when a writer
// that started a level down produced its bytes anyway.
func TestStmtWireDepth(t *testing.T) {
	if got := roundTrip(t, deepUnary(MaxWireDepth)); !reflect.DeepEqual(got, deepUnary(MaxWireDepth)) {
		t.Fatal("tree at the bound did not survive the wire")
	}
	deep := deepUnary(MaxWireDepth + 1)
	if _, err := AppendStmt(nil, deep); !errors.Is(err, errWireDepth) {
		t.Fatalf("encoder: %v, want %v", err, errWireDepth)
	}
	w := wireWriter{depth: -1}
	w.stmt(deep)
	if w.err != nil {
		t.Fatal(w.err)
	}
	if _, _, err := ReadStmt(w.b); !errors.Is(err, errWireDepth) {
		t.Fatalf("decoder: %v, want %v", err, errWireDepth)
	}
}

// TestStmtWireChains: a binary operator chain the parser builds left-deep
// crosses the wire at one level however long it is, mixed operators and
// all; the decoder refuses a chain without an operator and one whose
// leftmost operand is itself written as a chain, which the encoder never
// writes.
func TestStmtWireChains(t *testing.T) {
	terms := make([]string, 3*MaxWireDepth)
	for i := range terms {
		terms[i] = fmt.Sprintf("id = %d", i)
	}
	for _, src := range []string{
		"DELETE FROM t WHERE " + strings.Join(terms, " OR "),
		"SELECT * FROM t WHERE " + strings.Join(terms, " AND "),
		"SELECT a" + strings.Repeat(" + 1 - b * 2", MaxWireDepth) + " FROM t",
		"SELECT a" + strings.Repeat(" || 'x'", 2*MaxWireDepth) + " FROM t",
		"SELECT * FROM t WHERE (a OR b) AND (c OR d OR e) OR f = g + h",
	} {
		st, err := Parse(src, DialectANSI)
		if err != nil {
			t.Fatalf("%.60s: %v", src, err)
		}
		if got := roundTrip(t, st); !reflect.DeepEqual(got, st) {
			t.Fatalf("%.60s: AST did not survive the wire", src)
		}
	}
	leaf := func(w *wireWriter) { w.tag(wStar); w.str("") }
	for _, c := range []struct {
		name  string
		write func(w *wireWriter)
		ok    bool
	}{
		{"one operator", func(w *wireWriter) { w.tag(wBinaryOp); w.count(1, false); leaf(w); w.str("-"); leaf(w) }, true},
		{"no operator", func(w *wireWriter) { w.tag(wBinaryOp); w.count(0, false); leaf(w) }, false},
		{"nil chain", func(w *wireWriter) { w.tag(wBinaryOp); w.count(0, true) }, false},
		{"chain below a chain", func(w *wireWriter) {
			w.tag(wBinaryOp)
			w.count(1, false)
			w.expr(&BinaryOp{Op: "+", Left: &Star{}, Right: &Star{}})
			w.str("-")
			leaf(w)
		}, false},
	} {
		var w wireWriter
		c.write(&w)
		r := wireReader{Reader: types.NewReader(w.b)}
		r.expr()
		if ok := r.Err() == nil && len(r.Rest()) == 0; ok != c.ok {
			t.Errorf("%s: decoded %v, want %v (err %v)", c.name, ok, c.ok, r.Err())
		}
	}
}

// wireNodes holds one of every node type the codec writes.
var wireNodes = []any{
	&SelectStmt{}, &InsertStmt{}, &UpdateStmt{}, &DeleteStmt{}, &CreateTableStmt{}, &DropStmt{}, &TruncateStmt{},
	&CreateViewStmt{}, &CreateSequenceStmt{}, &CreateAliasStmt{}, &CreateIndexStmt{}, &SetStmt{}, &ExplainStmt{},
	&ValuesStmt{}, &CallStmt{}, &BeginBlockStmt{},
	&Literal{}, &ColumnRef{}, &Star{}, &BinaryOp{}, &UnaryOp{}, &FuncCall{}, &CaseExpr{}, &CastExpr{}, &IsNullExpr{},
	&IsBoolExpr{}, &BetweenExpr{}, &InExpr{}, &ExistsExpr{}, &SubqueryExpr{}, &SeqValExpr{}, &RownumExpr{},
	&ParamExpr{}, &OverlapsExpr{},
	&TableRef{}, &SubqueryRef{}, &JoinRef{},
}

// fillNode sets every exported field of v, recursively, to a value that is
// not zero. Below three levels a pointer or a list stays nil and an
// interface gets a leaf node, so the fill ends. A field of a type it does
// not know fails the test, which must then learn the type.
func fillNode(t *testing.T, v reflect.Value, depth int) {
	t.Helper()
	deep := depth >= 3
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", depth))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(-7 - depth))
	case reflect.Slice:
		if !deep {
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := 0; i < 2; i++ {
				fillNode(t, v.Index(i), depth+1)
			}
		}
	case reflect.Pointer:
		if !deep {
			v.Set(reflect.New(v.Type().Elem()))
			fillNode(t, v.Elem(), depth+1)
		}
	case reflect.Interface:
		var n any
		switch v.Type() {
		case reflect.TypeFor[Expr]():
			n = &Star{}
			if !deep {
				n = &ColumnRef{}
			}
		case reflect.TypeFor[Statement]():
			n = &TruncateStmt{}
			if !deep {
				n = &DeleteStmt{}
			}
		case reflect.TypeFor[FromItem]():
			n = &TableRef{}
		default:
			t.Fatalf("cannot fill a %s", v.Type())
		}
		fillNode(t, reflect.ValueOf(n).Elem(), depth+1)
		v.Set(reflect.ValueOf(n))
	case reflect.Struct:
		if v.Type() == reflect.TypeFor[types.Value]() {
			v.Set(reflect.ValueOf(types.NewString(fmt.Sprintf("v%d", depth))))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNode(t, v.Field(i), depth)
			}
		}
	default:
		t.Fatalf("cannot fill a %s", v.Type())
	}
}

// TestStmtWireEveryField fills every exported field of every node type and
// requires the node to survive the wire, so a field added to the AST and
// not to the codec fails here.
func TestStmtWireEveryField(t *testing.T) {
	for _, n := range wireNodes {
		v := reflect.ValueOf(n).Elem()
		fillNode(t, v, 0)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && v.Field(i).IsZero() {
				t.Fatalf("%T.%s left zero", n, f.Name)
			}
		}
		var st Statement
		switch x := n.(type) {
		case Statement:
			st = x
		case Expr:
			st = &SelectStmt{Items: []SelectItem{{Expr: x}}}
		case FromItem:
			st = &SelectStmt{From: []FromItem{x}}
		}
		if got := roundTrip(t, st); !reflect.DeepEqual(got, st) {
			t.Errorf("%T did not survive the wire:\n%#v\nvs\n%#v", n, got, st)
		}
	}
}

// FuzzStmtWire fuzzes the statement codec, the decoder of which faces the
// network. Input that parses must survive AppendStmt and ReadStmt as an
// identical tree, with every byte consumed; any bytes fed to ReadStmt may
// only fail to decode, never panic or allocate past what they hold, and
// what it accepts must encode and decode to the same tree again.
func FuzzStmtWire(f *testing.F) {
	for _, s := range append(append([]string(nil), parseSeeds...), wireShapes...) {
		f.Add([]byte(s))
		if st, err := Parse(s, DialectANSI); err == nil {
			if b, err := AppendStmt(nil, st); err == nil {
				f.Add(b)
			}
		}
	}
	dialects := []Dialect{DialectANSI, DialectOracle, DialectNetezza, DialectDB2}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range dialects {
			if st, err := Parse(string(data), d); err == nil {
				if got := roundTrip(t, st); !reflect.DeepEqual(got, st) {
					t.Fatalf("%q (%v): AST did not survive the wire:\n%#v\nvs\n%#v", data, d, got, st)
				}
			}
		}
		st, n, err := ReadStmt(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decode took %d of %d bytes", n, len(data))
		}
		if got := roundTrip(t, st); !reflect.DeepEqual(got, st) {
			t.Fatalf("accepted % x: re-encoded tree differs:\n%#v\nvs\n%#v", data, got, st)
		}
	})
}
