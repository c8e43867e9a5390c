// Package queryutil locates the repository's query entry points in
// analyzed source: calls that hand a SPARQL query or SEM_MATCH call
// string to the warehouse. sparqlcheck, iricheck, and mustparse share
// this discovery so they agree on what counts as a query call site.
package queryutil

import (
	"go/ast"
	"go/types"

	"mdw/internal/analysis/framework"
)

// Kind discriminates what language the string argument is written in.
type Kind int

const (
	// KindSPARQL marks arguments that are complete SPARQL queries.
	KindSPARQL Kind = iota
	// KindSemMatch marks arguments that are SEM_MATCH call texts
	// (Listings 1 and 2 of the paper).
	KindSemMatch
)

// entryPoint is one function or method that receives query text.
type entryPoint struct {
	pkg  string // defining package import path
	name string // function name, or method name for recvPkg methods
	arg  int    // index of the query-text argument
	kind Kind
}

var entryPoints = []entryPoint{
	{"mdw/internal/sparql", "Parse", 0, KindSPARQL},
	{"mdw/internal/sparql", "MustParse", 0, KindSPARQL},
	{"mdw/internal/semmatch", "ParseCall", 0, KindSemMatch},
	// Warehouse façade methods forward verbatim to the parsers above; the
	// text follows the context.
	{"mdw/internal/core", "Query", 1, KindSPARQL},
	{"mdw/internal/core", "SemMatch", 1, KindSemMatch},
}

// CallSite is one discovered query call with a constant argument.
type CallSite struct {
	Call *ast.CallExpr
	// Arg is the query-text argument expression (report position).
	Arg ast.Expr
	// Text is the folded constant value of Arg.
	Text string
	Kind Kind
	// Fn names the entry point, e.g. "sparql.MustParse".
	Fn string
}

// Callee resolves the called function or method of call, returning its
// defining package path and name. It handles plain calls
// (sparql.Parse(...)), and method calls through typed receivers
// (w.Query(...)).
func Callee(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, found := info.Selections[fun]; found {
			obj = sel.Obj()
		} else {
			// Package-qualified call: the Sel identifier resolves
			// directly to the function object.
			obj = info.Uses[fun.Sel]
		}
	default:
		return "", "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// ConstQueryCalls walks the pass's files and yields every entry-point
// call whose query argument folds to a constant string. Calls with
// non-constant arguments are reported through nonConst (may be nil),
// which mustparse uses to police sparql.MustParse.
func ConstQueryCalls(pass *framework.Pass, yield func(CallSite), nonConst func(fn string, call *ast.CallExpr, arg ast.Expr)) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := Callee(pass.TypesInfo, call)
			if !ok {
				return true
			}
			for _, ep := range entryPoints {
				if ep.pkg != pkgPath || ep.name != name || ep.arg >= len(call.Args) {
					continue
				}
				arg := call.Args[ep.arg]
				fn := shortPkg(ep.pkg) + "." + ep.name
				if text, isConst := pass.ConstString(arg); isConst {
					yield(CallSite{Call: call, Arg: arg, Text: text, Kind: ep.kind, Fn: fn})
				} else if nonConst != nil {
					nonConst(fn, call, arg)
				}
				break
			}
			return true
		})
	}
}

func shortPkg(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
