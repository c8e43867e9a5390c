package mdw

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneReadKernel pins the read path's structure the way the surface
// tests pin exported names. Outside internal/store one non-test function
// turns model names into a view (reason.View, which every reader goes
// through, so pinning a snapshot per read is a change to that function),
// and the services resolve no constant vocabulary IRI themselves: Table I
// navigation is metamodel.Graph's. Class IRIs a caller supplies
// (Options.FilterClasses, Options.TargetClasses) are not constants.
func TestOneReadKernel(t *testing.T) {
	services := map[string]bool{
		"internal/search": true, "internal/lineage": true, "internal/audit": true, "internal/impact": true,
	}
	fset := token.NewFileSet()
	var viewOf []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch path {
			case "bench", "internal/store", ".git", ".bench_build":
				return filepath.SkipDir // bench is a module of its own
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch {
			case sel.Sel.Name == "ViewOf":
				viewOf = append(viewOf, fset.Position(call.Pos()).String())
			case sel.Sel.Name == "Lookup" && services[filepath.ToSlash(filepath.Dir(path))] && mentionsVocabulary(call):
				t.Errorf("%s: a service resolves a constant vocabulary term; take it from metamodel.Graph",
					fset.Position(call.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(viewOf) != 1 || !strings.HasPrefix(viewOf[0], filepath.Join("internal", "reason", "reason.go")) {
		t.Errorf("non-test .ViewOf( calls outside internal/store = %v, want the one in reason.View", viewOf)
	}
}

// mentionsVocabulary reports whether an argument of the call names
// something of package rdf other than the IRI constructor.
func mentionsVocabulary(call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "rdf" && sel.Sel.Name != "IRI" {
					found = true
				}
			}
			return !found
		})
	}
	return found
}
