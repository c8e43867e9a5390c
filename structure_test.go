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
// turns model names into a view (reason.ViewCtx, which every reader goes
// through, and which pins a store.Snapshot per read), and the services
// resolve no constant vocabulary IRI themselves: Table I navigation is
// metamodel.Graph's. Class IRIs a caller supplies (Options.FilterClasses,
// Options.TargetClasses) are not constants.
//
// There is one read discipline and nothing left of the others: no
// ReadView critical section, no retry budget, no scan fallback (only
// tests set Options.ForceScan, the oracle switch), and nobody outside the
// store holds a *store.Model it could read while a writer moves it —
// except the rule engine, whose scratch index is its own, and recovery,
// which installs what it rebuilt.
func TestOneReadKernel(t *testing.T) {
	services := map[string]bool{
		"internal/search": true, "internal/lineage": true, "internal/audit": true, "internal/impact": true,
	}
	gone := map[string]bool{"ReadView": true, "ModelInfo": true, "maxFreshAttempts": true}
	mayHoldModels := map[string]bool{"internal/store": true, "internal/reason": true, "internal/durable": true}
	fset := token.NewFileSet()
	var viewOf []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch path {
			case "bench", ".git", ".bench_build":
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
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if gone[n.Name] {
					t.Errorf("%s: %s is back", fset.Position(n.Pos()), n.Name)
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok && key.Name == "ForceScan" {
					t.Errorf("%s: non-test code sets Options.ForceScan", fset.Position(n.Pos()))
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "ForceScan" {
						t.Errorf("%s: non-test code sets Options.ForceScan", fset.Position(n.Pos()))
					}
				}
			case *ast.Field: // parameters, results and struct fields
				if !mayHoldModels[dir] && namesStoreModel(n.Type) {
					t.Errorf("%s: a *store.Model outside the store, the rule engine and recovery; read a store.Snapshot",
						fset.Position(n.Pos()))
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch {
			case sel.Sel.Name == "ViewOf" && dir != "internal/store":
				viewOf = append(viewOf, fset.Position(call.Pos()).String())
			case sel.Sel.Name == "Lookup" && services[dir] && mentionsVocabulary(call):
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
		t.Errorf("non-test .ViewOf( calls outside internal/store = %v, want the one in reason.ViewCtx", viewOf)
	}
}

// namesStoreModel reports whether a type expression mentions *store.Model.
func namesStoreModel(typ ast.Expr) bool {
	found := false
	ast.Inspect(typ, func(n ast.Node) bool {
		if star, ok := n.(*ast.StarExpr); ok {
			if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Model" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "store" {
					found = true
				}
			}
		}
		return !found
	})
	return found
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
