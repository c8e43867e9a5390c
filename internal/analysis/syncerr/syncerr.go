// Package syncerr guards the durability contract: an fsync error that
// nobody looks at is silent data loss. The WAL promises that an
// acknowledged mutation survives a crash — but only if every error from
// Write/WriteString/Sync/Flush/Close on the files underneath it is
// checked and propagated. POSIX makes this unforgiving: a failed fsync
// may drop the dirty pages, so the NEXT fsync can succeed while the
// data is already gone. The one place the failure is observable is the
// return value at the call site.
//
// Two layers of checking:
//
//   - Primitive sinks. A call to Write/WriteString/Sync/Flush/Close on
//     a value syncerr can trace to an *os.File or *bufio.Writer
//     (declared type, or assigned from os.Open/Create/OpenFile/
//     CreateTemp/NewFile or bufio.NewWriter*) must consume its error.
//   - Propagated errors. A module function whose returned error can
//     carry a sink failure is marked with the DurableErr object fact;
//     the fact flows bottom-up along calls (helpers in the
//     same package, then across packages in import order), and every
//     call to a marked function must consume its error too. This is
//     how `wal.sync()` inside internal/durable obligates
//     `Manager.Sync()` callers in cmd/mdwd.
//
// Consumption is judged by the framework's reaching-values walk
// (internal/analysis/framework/dataflow). Two idioms are exempt:
// discards anywhere under a defer (deferred cleanup has no error path
// of its own), and a discarded Close immediately followed by a return
// that already carries an error (closing a temp file on the failure
// path — the original error is the one that matters).
package syncerr

import (
	"go/ast"
	"go/types"
	"strings"

	"mdw/internal/analysis/framework"
	"mdw/internal/analysis/framework/dataflow"
)

// Analyzer is the syncerr framework.Analyzer.
var Analyzer = &framework.Analyzer{
	Name: "syncerr",
	Doc: "errors from durable Write/Sync/Close/Flush must be checked\n\n" +
		"Discarding the error of a file write, fsync, flush, or close —\n" +
		"directly or through a function that propagates one — is silent\n" +
		"durability loss.",
	Run:       run,
	FactTypes: []framework.Fact{(*DurableErr)(nil)},
}

// DurableErr marks a function whose returned error can carry a failed
// durable write/sync/flush/close.
type DurableErr struct{}

// AFact marks DurableErr as a framework fact.
func (*DurableErr) AFact() {}

// sinkOps are the io methods whose errors carry durability failures.
var sinkOps = map[string]bool{
	"Write": true, "WriteString": true, "Sync": true, "Flush": true, "Close": true,
}

func run(pass *framework.Pass) error {
	fileFields := collectFileFields(pass)

	type funcInfo struct {
		decl  *ast.FuncDecl
		obj   *types.Func
		sinks []*ast.CallExpr
		calls []*ast.CallExpr // calls to module functions, for fact propagation & checking
	}
	var funcs []*funcInfo
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			fi := &funcInfo{decl: fd, obj: obj}
			fileVars := collectFileVars(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isSinkCall(pass, call, fileVars, fileFields) {
					fi.sinks = append(fi.sinks, call)
				} else if callee := moduleCallee(pass, call); callee != nil {
					fi.calls = append(fi.calls, call)
				}
				return true
			})
			funcs = append(funcs, fi)
		}
	}

	// Fact fixpoint within the package: a function returning an error
	// that contains a sink — or a call to an already-marked function —
	// carries DurableErr. Facts from imported packages are already in
	// the store (packages run in dependency order).
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			if fi.obj == nil || !returnsError(pass, fi.decl) {
				continue
			}
			if pass.ImportObjectFact(fi.obj, &DurableErr{}) {
				continue
			}
			durable := len(fi.sinks) > 0
			if !durable {
				for _, call := range fi.calls {
					if callee := moduleCallee(pass, call); callee != nil && pass.ImportObjectFact(callee, &DurableErr{}) {
						durable = true
						break
					}
				}
			}
			if durable {
				pass.ExportObjectFact(fi.obj, &DurableErr{})
				changed = true
			}
		}
	}

	// Check consumption at every sink and every durable-function call.
	for _, fi := range funcs {
		for _, call := range fi.sinks {
			checkCall(pass, fi.decl, call, calleeName(call))
		}
		for _, call := range fi.calls {
			callee := moduleCallee(pass, call)
			if callee == nil || !pass.ImportObjectFact(callee, &DurableErr{}) {
				continue
			}
			checkCall(pass, fi.decl, call, callee.Name())
		}
	}
	return nil
}

// checkCall reports the call if its error result is discarded.
func checkCall(pass *framework.Pass, fd *ast.FuncDecl, call *ast.CallExpr, name string) {
	path := dataflow.Path(fd.Body, call)
	if path == nil || underDefer(path) {
		return
	}
	verdict := dataflow.ErrResult(pass.TypesInfo, fd.Body, path, call)
	if verdict == dataflow.Consumed {
		return
	}
	if isCloseOnErrorPath(path, call, name) {
		return
	}
	pass.Reportf(call.Pos(), "error from %s is %s; a dropped durable-write error is silent data loss — check and propagate it",
		name, verdict)
}

// underDefer reports whether any ancestor of the call is a defer — the
// deferred-cleanup exemption.
func underDefer(path []ast.Node) bool {
	for _, n := range path {
		if _, ok := n.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// isCloseOnErrorPath recognizes `f.Close(); return …, err`: discarding
// a Close error while already returning one is sanctioned cleanup.
func isCloseOnErrorPath(path []ast.Node, call *ast.CallExpr, name string) bool {
	if op, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); !ok || op.Sel.Name != "Close" {
		if !strings.EqualFold(name, "Close") {
			return false
		}
	}
	// Locate the statement holding the call and its enclosing block.
	var stmt ast.Stmt
	var block *ast.BlockStmt
	for i := len(path) - 1; i >= 0; i-- {
		if s, ok := path[i].(ast.Stmt); ok && stmt == nil {
			if _, isBlock := s.(*ast.BlockStmt); !isBlock {
				stmt = s
				continue
			}
		}
		if b, ok := path[i].(*ast.BlockStmt); ok && stmt != nil {
			block = b
			break
		}
	}
	if stmt == nil || block == nil {
		return false
	}
	for i, s := range block.List {
		if s != stmt || i+1 >= len(block.List) {
			continue
		}
		ret, ok := block.List[i+1].(*ast.ReturnStmt)
		if !ok {
			return false
		}
		for _, res := range ret.Results {
			if id, ok := res.(*ast.Ident); ok && id.Name != "nil" {
				return true
			}
		}
		return false
	}
	return false
}

// returnsError reports whether the function's last result is the
// builtin error type (syntactically — reliable even where stub types
// leave the signature partially invalid).
func returnsError(pass *framework.Pass, fd *ast.FuncDecl) bool {
	res := fd.Type.Results
	if res == nil || len(res.List) == 0 {
		return false
	}
	last := res.List[len(res.List)-1].Type
	id, ok := last.(*ast.Ident)
	return ok && id.Name == "error"
}

// moduleCallee resolves a call to a function or method declared in the
// module (nil for stubs, builtins, conversions, function values).
func moduleCallee(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			obj = sel.Obj()
		} else {
			obj = pass.TypesInfo.Uses[fun.Sel]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return fn
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}

// collectFileFields returns the objects of struct fields declared in
// this package with a file-like type (*os.File, *bufio.Writer, …).
func collectFileFields(pass *framework.Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if !isFileType(pass, field.Type) {
						continue
					}
					for _, name := range field.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							out[obj] = true
						}
					}
				}
			}
		}
	}
	return out
}

// collectFileVars returns the objects of parameters and locals of fd
// that hold file-like values: declared with a file-like type, or
// assigned from a file-producing constructor.
func collectFileVars(pass *framework.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(id *ast.Ident) {
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			out[obj] = true
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if !isFileType(pass, field.Type) {
				continue
			}
			for _, name := range field.Names {
				mark(name)
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// f, err := os.OpenFile(...) — first LHS is the file.
			if len(n.Rhs) == 1 && len(n.Lhs) >= 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isFileConstructor(pass, call) {
					if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						mark(id)
					}
				}
			}
		case *ast.ValueSpec:
			if isFileType(pass, n.Type) {
				for _, name := range n.Names {
					mark(name)
				}
			}
		}
		return true
	})
	return out
}

// isFileType matches the syntactic types (*)os.File and (*)bufio.Writer
// (plus bufio.ReadWriter), verified against the real import paths.
func isFileType(pass *framework.Pass, e ast.Expr) bool {
	if e == nil {
		return false
	}
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[x].(*types.PkgName)
	if !ok {
		return false
	}
	switch pn.Imported().Path() {
	case "os":
		return sel.Sel.Name == "File"
	case "bufio":
		return sel.Sel.Name == "Writer" || sel.Sel.Name == "ReadWriter"
	}
	return false
}

// isFileConstructor matches os.Open/OpenFile/Create/CreateTemp/NewFile
// and bufio.NewWriter/NewWriterSize.
func isFileConstructor(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[x].(*types.PkgName)
	if !ok {
		return false
	}
	switch pn.Imported().Path() {
	case "os":
		switch sel.Sel.Name {
		case "Open", "OpenFile", "Create", "CreateTemp", "NewFile":
			return true
		}
	case "bufio":
		switch sel.Sel.Name {
		case "NewWriter", "NewWriterSize":
			return true
		}
	}
	return false
}

// isSinkCall matches <filelike>.Write/WriteString/Sync/Flush/Close().
func isSinkCall(pass *framework.Pass, call *ast.CallExpr, fileVars, fileFields map[types.Object]bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !sinkOps[sel.Sel.Name] {
		return false
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[recv]
		return obj != nil && fileVars[obj]
	case *ast.SelectorExpr:
		obj := pass.TypesInfo.Uses[recv.Sel]
		return obj != nil && fileFields[obj]
	}
	return false
}
