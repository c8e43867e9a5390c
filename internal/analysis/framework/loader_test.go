package framework

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture loads one testdata package through the module loader.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir("testdata/src/"+name, "fixture/"+name)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.LoadError != nil {
		t.Fatalf("fixture %s failed to load: %v", name, pkg.LoadError)
	}
	if errs := pkg.RealTypeErrors(); len(errs) > 0 {
		t.Fatalf("fixture %s has real type errors: %v", name, errs)
	}
	return pkg
}

// TestLoaderErrorsBecomeDiagnostics pins the contract that a package
// that fails to load is REPORTED, not silently skipped: a real type
// error and a parse error must each surface as a "loader" diagnostic
// and therefore fail the lint run.
func TestLoaderErrorsBecomeDiagnostics(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir("testdata/src/broken", "fixture/broken")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.RealTypeErrors()) == 0 {
		t.Fatal("broken fixture produced no real type errors")
	}
	res, err := RunAll([]*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) == 0 {
		t.Fatal("type-broken package produced no diagnostics")
	}
	for _, d := range res.Diagnostics {
		if d.Analyzer != LoaderAnalyzerName {
			t.Errorf("unexpected analyzer %q on loader diagnostic %v", d.Analyzer, d)
		}
	}
	if !strings.Contains(res.Diagnostics[0].Message, "undefinedIdent") {
		t.Errorf("diagnostic %q does not name the undefined identifier", res.Diagnostics[0].Message)
	}
}

func TestParseErrorsBecomeDiagnostics(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte("package bad\n\nfunc {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "fixture/bad")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.LoadError == nil {
		t.Fatal("parse-broken package has no LoadError")
	}
	res, err := RunAll([]*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Analyzer != LoaderAnalyzerName {
		t.Fatalf("diagnostics = %v, want one loader diagnostic", res.Diagnostics)
	}
	if res.Diagnostics[0].Pos.Filename == "" {
		t.Error("parse diagnostic has no file position")
	}
}

func TestLoaderGenerics(t *testing.T) {
	pkg := loadFixture(t, "generics")

	sum, ok := pkg.Types.Scope().Lookup("Sum").(*types.Func)
	if !ok {
		t.Fatal("generics.Sum not found")
	}
	sig := sum.Type().(*types.Signature)
	if sig.TypeParams() == nil || sig.TypeParams().Len() != 1 {
		t.Fatalf("Sum signature %v: want one type parameter", sig)
	}

	// The instantiated call inside Use must resolve back to the generic
	// origin — that is what syncerr's moduleCallee relies on.
	var instantiated *types.Func
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "Sum" {
				instantiated, _ = pkg.Info.Uses[id].(*types.Func)
			}
			return true
		})
	}
	if instantiated == nil {
		t.Fatal("no resolved use of Sum found")
	}
	if got := instantiated.Origin(); got != sum {
		t.Fatalf("instantiated Sum origin = %v, want %v", got, sum)
	}

	// Methods on generic types must be present on the named type.
	pair, ok := pkg.Types.Scope().Lookup("Pair").(*types.TypeName)
	if !ok {
		t.Fatal("generics.Pair not found")
	}
	named := pair.Type().(*types.Named)
	if named.NumMethods() != 1 || named.Method(0).Name() != "Swap" {
		t.Fatalf("Pair methods = %d, want the single Swap method", named.NumMethods())
	}
}

func TestLoaderEmbeddedInterfaces(t *testing.T) {
	pkg := loadFixture(t, "embedded")
	scope := pkg.Types.Scope()

	rc := scope.Lookup("ReadCloser").Type().Underlying().(*types.Interface)
	if rc.NumMethods() != 2 {
		t.Fatalf("ReadCloser has %d methods after embedding, want 2", rc.NumMethods())
	}
	file := scope.Lookup("File").Type()
	if !types.Implements(types.NewPointer(file), rc) {
		t.Fatal("*File must implement the embedded ReadCloser interface")
	}
	// Logged embeds *File; promotion must carry the implementation.
	logged := scope.Lookup("Logged").Type()
	if !types.Implements(types.NewPointer(logged), rc) {
		t.Fatal("*Logged must implement ReadCloser via the promoted methods")
	}

	// The promoted call l.Read() must resolve through Selections to the
	// original (*File).Read.
	var promoted *types.Func
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Read" {
				return true
			}
			if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if fn, ok := s.Obj().(*types.Func); ok && fn.FullName() == "(*fixture/embedded.File).Read" {
					promoted = fn
				}
			}
			return true
		})
	}
	if promoted == nil {
		t.Fatal("promoted l.Read() did not resolve to (*File).Read")
	}
}
