package semmatch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestExportedFunctions pins what the package exports: one parser, one
// Run and one Explain on the request, the two pieces Run is made of that
// other packages use (QueryText for the linter, Source for
// core.Warehouse), and the listings' aliases.
func TestExportedFunctions(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["semmatch"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = fn.Recv.List[0].Type.(*ast.Ident).Name + "." + name
			}
			got = append(got, name)
		}
	}
	sort.Strings(got)
	want := []string{"PaperAliases", "ParseCall", "Request.Explain", "Request.QueryText", "Request.Run", "Request.Source"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported functions = %v, want %v", got, want)
	}
}
