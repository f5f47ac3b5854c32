package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerInstrumentWrap enforces the telemetry-weave invariant from the
// observability PR: the bridge adapter RowAdapter must keep its concrete type
// because GroupByOp's ingest and both sides of HashJoinOp look through it with
// a type assertion to pull batches. Wrapping it in a StatsOp (directly, or by
// handing it to Instrument, which would if its adapter case were ever dropped)
// hides the concrete type and silently disables the vectorized fast paths.
var AnalyzerInstrumentWrap = &Analyzer{
	Name: "instrumentwrap",
	Doc:  "Instrument and StatsOp must never wrap RowAdapter",
	Run:  runInstrumentWrap,
}

// adapterName reports whether t is (a pointer to) the protected bridge
// adapter type declared in a package named "exec".
func adapterName(t types.Type) string {
	if t == nil {
		return ""
	}
	named, ok := deref(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "exec" {
		return ""
	}
	if obj.Name() == "RowAdapter" {
		return obj.Name()
	}
	return ""
}

// instrumentFuncName returns the name of fn if it is the row-tree
// instrumenting entry point declared in a package named "exec". (RowAdapter
// is not a VecOperator, so InstrumentVec and VecStatsOp cannot be handed one.)
func instrumentFuncName(info *types.Info, fn ast.Expr) string {
	var id *ast.Ident
	switch e := fn.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	obj := info.Uses[id]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Name() != "exec" {
		return ""
	}
	if obj.Name() == "Instrument" {
		return obj.Name()
	}
	return ""
}

// statsOpName reports whether t is the StatsOp decorator type from a package
// named "exec".
func statsOpName(t types.Type) string {
	named, ok := deref(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "exec" {
		return ""
	}
	if obj.Name() == "StatsOp" {
		return obj.Name()
	}
	return ""
}

func runInstrumentWrap(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := instrumentFuncName(info, n.Fun)
				if fn == "" || len(n.Args) != 1 {
					return true
				}
				if tv, ok := info.Types[n.Args[0]]; ok {
					if ad := adapterName(tv.Type); ad != "" {
						pass.Reportf(n.Pos(),
							"%s must not be handed a *%s: the adapter's concrete type is probed by VecIngest/hash-join fast paths (see exec/instrument.go)", fn, ad)
					}
				}
			case *ast.CompositeLit:
				tv, ok := info.Types[n]
				if !ok {
					return true
				}
				op := statsOpName(tv.Type)
				if op == "" {
					return true
				}
				for i, el := range n.Elts {
					var val ast.Expr
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Child" {
							continue
						}
						val = kv.Value
					} else if i == 0 {
						val = el // positional: Child is the first field
					} else {
						continue
					}
					if tv, ok := info.Types[val]; ok {
						if ad := adapterName(tv.Type); ad != "" {
							pass.Reportf(val.Pos(),
								"%s must not wrap *%s: stats decoration hides the adapter's concrete type from VecIngest/hash-join fast paths", op, ad)
						}
					}
				}
			}
			return true
		})
	}
}
