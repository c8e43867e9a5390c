// Package ctxflow guards the warehouse's end-to-end tracing contract.
// PR 5 threaded context propagation through every service so one HTTP
// request yields ONE hierarchical trace; that property dies silently
// whenever a function that already holds a context calls the
// context-free variant of an API that has a context-aware one (the
// callee falls back to context.Background() and the child span is
// orphaned from its trace).
//
// ctxflow reports, for every function with a context.Context parameter,
// calls to a function or method N for which a sibling NCtx exists (same
// package or same receiver type, first parameter a context.Context)
// when no argument of the call carries the context.
//
// It also bans context.Background() and context.TODO() outside package
// main: a library that conjures a root context detaches everything
// below it from the caller's trace. The one sanctioned shape is the
// compatibility shim — a function whose entire body is a single
// delegation to its own Ctx variant with context.Background() — which
// is how the context-free API surface is kept alive.
package ctxflow

import (
	"go/ast"
	"go/types"

	"mdw/internal/analysis/framework"
)

// Analyzer is the ctxflow framework.Analyzer.
var Analyzer = &framework.Analyzer{
	Name: "ctxflow",
	Doc: "forward contexts to context-aware callees\n\n" +
		"A function that receives a context.Context must pass it to callees\n" +
		"that have a Ctx variant, and context.Background()/TODO() is banned\n" +
		"outside package main and single-statement compatibility shims —\n" +
		"both patterns orphan the request trace.",
	Run: run,
}

func run(pass *framework.Pass) error {
	isMain := false
	for _, f := range pass.Files {
		if f.Name.Name == "main" {
			isMain = true
		}
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, isMain)
		}
	}
	return nil
}

// checkFunc applies both rules to one declared function.
func checkFunc(pass *framework.Pass, fd *ast.FuncDecl, isMain bool) {
	ctxParams := contextParams(pass, fd)
	shimDelegate := shimDelegation(pass, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := contextRootCall(pass, call); ok {
			allowed := isMain && name == "Background"
			if !allowed && name == "Background" && call == shimDelegate {
				allowed = true
			}
			if !allowed {
				pass.Reportf(call.Pos(), "context.%s() orphans the request trace; accept a context.Context and propagate it (only package main and single-statement compatibility shims may start from context.%s())", name, name)
			}
			return true
		}
		if len(ctxParams) == 0 {
			return true
		}
		variant := ctxVariantOf(pass, call)
		if variant == "" || callCarriesContext(pass, call, ctxParams) {
			return true
		}
		if variant == fd.Name.Name {
			// The caller IS the Ctx variant delegating to the base
			// implementation (ParseCtx opens the span, then calls Parse) —
			// the standard way to implement the variant, not a dropped
			// context.
			return true
		}
		pass.Reportf(call.Pos(), "%s receives a context but calls %s, which has the context-aware variant %s; forward the context or the callee's spans are orphaned from the trace",
			fd.Name.Name, calleeLabel(call), variant)
		return true
	})
}

// contextParams returns the objects of fd's context.Context parameters.
func contextParams(pass *framework.Pass, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		if !isContextType(pass, field.Type) {
			continue
		}
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// isContextType matches the syntactic type context.Context, verifying
// that the qualifier really is the imported "context" package (the
// loader stubs it, but the import resolution is intact).
func isContextType(pass *framework.Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	return isPackageIdent(pass, sel.X, "context")
}

func isPackageIdent(pass *framework.Pass, e ast.Expr, path string) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// contextRootCall matches context.Background() / context.TODO().
func contextRootCall(pass *framework.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
		return "", false
	}
	if !isPackageIdent(pass, sel.X, "context") {
		return "", false
	}
	return sel.Sel.Name, true
}

// shimDelegation recognizes the compatibility-shim shape: the entire
// body of function N is one statement delegating to NCtx — either
// `return x.NCtx(context.Background(), …)` or a bare call for void
// functions — and returns that delegating call (nil otherwise).
func shimDelegation(pass *framework.Pass, fd *ast.FuncDecl) *ast.CallExpr {
	if len(fd.Body.List) != 1 {
		return nil
	}
	var call *ast.CallExpr
	switch stmt := fd.Body.List[0].(type) {
	case *ast.ReturnStmt:
		if len(stmt.Results) != 1 {
			return nil
		}
		call, _ = stmt.Results[0].(*ast.CallExpr)
	case *ast.ExprStmt:
		call, _ = stmt.X.(*ast.CallExpr)
	}
	if call == nil || len(call.Args) == 0 {
		return nil
	}
	if calleeName(call) != fd.Name.Name+"Ctx" {
		return nil
	}
	// The delegation must start from context.Background() in the first
	// argument — that is what makes it a sanctioned shim.
	first, ok := call.Args[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	if name, ok := contextRootCall(pass, first); !ok || name != "Background" {
		return nil
	}
	return first
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func calleeLabel(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "the callee"
}

// ctxVariantOf returns the name of the context-aware variant of the
// call's target ("" when none exists). A variant is a function or
// method named <callee>+"Ctx" in the same lookup scope whose first
// parameter is a context.Context.
func ctxVariantOf(pass *framework.Pass, call *ast.CallExpr) string {
	name := calleeName(call)
	if name == "" || len(name) >= 3 && name[len(name)-3:] == "Ctx" {
		return ""
	}
	want := name + "Ctx"
	var variant *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj, ok := pass.TypesInfo.Uses[fun].(*types.Func)
		if !ok || obj.Pkg() == nil {
			return ""
		}
		variant, _ = obj.Pkg().Scope().Lookup(want).(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, pass.Pkg, want)
			variant, _ = obj.(*types.Func)
			break
		}
		if x, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[x].(*types.PkgName); ok {
				variant, _ = pn.Imported().Scope().Lookup(want).(*types.Func)
			}
		}
	}
	if variant == nil {
		return ""
	}
	// Verify the variant really takes a context first — by declaration,
	// since the loader's stubbing leaves context.Context untyped.
	decl, pkg := declOf(pass, variant)
	if decl == nil || decl.Type.Params == nil || len(decl.Type.Params.List) == 0 {
		return ""
	}
	declPass := &framework.Pass{TypesInfo: pkg.Info, Pkg: pkg.Types}
	if !isContextType(declPass, decl.Type.Params.List[0].Type) {
		return ""
	}
	return want
}

// declOf finds fn's declaration by position in its package, which must
// be among the analyzed ones (nil otherwise).
func declOf(pass *framework.Pass, fn *types.Func) (*ast.FuncDecl, *framework.Package) {
	if fn.Pkg() == nil {
		return nil, nil
	}
	pkg := pass.Prog.Package(fn.Pkg().Path())
	if pkg == nil {
		return nil, nil
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Pos() == fn.Pos() {
				return fd, pkg
			}
		}
	}
	return nil, nil
}

// callCarriesContext reports whether any argument of the call mentions
// one of the caller's context parameters (directly, or wrapped as in
// obs.ChildCtx(ctx)).
func callCarriesContext(pass *framework.Pass, call *ast.CallExpr, ctxParams []types.Object) bool {
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if use := pass.TypesInfo.Uses[id]; use != nil {
					for _, p := range ctxParams {
						if use == p {
							found = true
						}
					}
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
