package sql

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"

	"dashdb/internal/types"
)

// exprKinds lists the Expr implementations declared in ast.go (the types
// with an expr() method), so the walk test below fails when a kind is
// added without being placed in its tree.
func exprKinds(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]bool)
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "expr" {
			continue
		}
		kinds[fd.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name] = true
	}
	return kinds
}

// everyKindTree builds one expression holding every Expr kind, in every
// child position a kind has. all lists its nodes; inner sits inside the
// subquery block three of them share.
func everyKindTree(t *testing.T) (root Expr, all []Expr, inner Expr) {
	t.Helper()
	n := func(e Expr) Expr { all = append(all, e); return e }
	leaf := func() Expr { return n(&Literal{Val: types.NewInt(int64(len(all)))}) }

	inner = &ColumnRef{Column: "inside_a_subquery"}
	sub := &SelectStmt{Items: []SelectItem{{Expr: inner}}, Where: inner, Limit: -1}

	root = n(&FuncCall{
		Name: "F",
		Args: []Expr{
			n(&BinaryOp{Op: "+", Left: n(&ColumnRef{Column: "a"}), Right: n(&UnaryOp{Op: "-", Expr: leaf()})}),
			n(&CaseExpr{
				Operand: leaf(),
				Whens:   []CaseWhen{{When: leaf(), Then: leaf()}, {When: leaf(), Then: n(&ParamExpr{})}},
				Else:    n(&CastExpr{Expr: leaf(), Type: "INT"}),
			}),
			n(&IsNullExpr{Expr: n(&IsBoolExpr{Expr: leaf(), Want: true})}),
			n(&BetweenExpr{Expr: leaf(), Lo: leaf(), Hi: n(&RownumExpr{})}),
			n(&InExpr{Expr: leaf(), List: []Expr{leaf(), n(&SeqValExpr{Seq: "s", Next: true})}}),
			n(&InExpr{Expr: n(&Star{}), Sub: sub}),
			n(&ExistsExpr{Sub: sub}),
			n(&SubqueryExpr{Sub: sub}),
			n(&OverlapsExpr{S1: leaf(), E1: leaf(), S2: leaf(), E2: leaf()}),
		},
		WithinGroupOrder: leaf(),
	})

	have := make(map[string]bool)
	for _, e := range all {
		have[reflect.TypeOf(e).Elem().Name()] = true
	}
	for k := range exprKinds(t) {
		if !have[k] {
			t.Errorf("Expr kind %s is not in this test's tree: add it, and its children to WalkExpr and MapExpr", k)
		}
	}
	return root, all, inner
}

// TestWalkExprVisitsEveryChildOnce checks that WalkExpr hands each node of
// the every-kind tree to the visitor exactly once, parents first, without
// entering a subquery's block, and prunes below a node the visitor
// declines.
func TestWalkExprVisitsEveryChildOnce(t *testing.T) {
	root, all, inner := everyKindTree(t)

	visits := make(map[Expr]int)
	var order []Expr
	WalkExpr(root, func(e Expr) bool {
		visits[e]++
		order = append(order, e)
		return true
	})
	for _, e := range all {
		if visits[e] != 1 {
			t.Errorf("%T %+v visited %d times, want 1", e, e, visits[e])
		}
	}
	if len(visits) != len(all) {
		t.Errorf("visited %d distinct nodes, built %d", len(visits), len(all))
	}
	if visits[inner] != 0 {
		t.Errorf("the walk entered a subquery's SELECT block")
	}
	if order[0] != root {
		t.Errorf("first visit is %T, want the root", order[0])
	}

	// Declining a node skips everything below it and nothing else.
	seen := 0
	WalkExpr(root, func(e Expr) bool {
		seen++
		_, isCase := e.(*CaseExpr)
		return !isCase
	})
	if below := 7; seen != len(all)-below { // operand, 2×(when, then), else and its operand
		t.Errorf("pruned walk visited %d nodes, want %d", seen, len(all)-below)
	}

	WalkExpr(nil, func(Expr) bool { t.Error("visited a nil expression"); return true })
}

// TestMapExprReachesEveryChild replaces every literal of the every-kind
// tree: no original literal may survive in the copy (a kind MapExpr does
// not enumerate would share its subtree), the original stays as built, and
// a nil-answering replace yields an equal tree.
func TestMapExprReachesEveryChild(t *testing.T) {
	root, all, _ := everyKindTree(t)
	original := make(map[Expr]bool)
	for _, e := range all {
		original[e] = true
	}
	marker := &Literal{Val: types.NewString("replaced")}
	mapped := MapExpr(root, func(e Expr) Expr {
		if _, lit := e.(*Literal); lit {
			return marker
		}
		return nil
	})
	WalkExpr(mapped, func(e Expr) bool {
		if _, lit := e.(*Literal); lit && e != marker {
			t.Errorf("literal %+v of the original is reachable from the copy", e)
		}
		if _, leaf := e.(*Literal); !leaf && original[e] && hasChildren(e) {
			t.Errorf("%T of the original is shared with the copy", e)
		}
		return true
	})
	seen := 0
	WalkExpr(root, func(e Expr) bool {
		if e == marker {
			t.Errorf("MapExpr wrote into the original")
		}
		seen++
		return true
	})
	if seen != len(all) {
		t.Errorf("original now walks %d nodes, built %d", seen, len(all))
	}
	if same := MapExpr(root, func(Expr) Expr { return nil }); !reflect.DeepEqual(same, root) {
		t.Errorf("a copy with nothing replaced differs from its original")
	}
	if MapExpr(nil, func(Expr) Expr { return marker }) != nil {
		t.Errorf("mapped a nil expression to something")
	}
}

func hasChildren(e Expr) bool {
	n := 0
	WalkExpr(e, func(Expr) bool { n++; return true })
	return n > 1
}
