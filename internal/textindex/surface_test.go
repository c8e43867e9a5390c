package textindex

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestExportedNames pins the package's exported functions and methods.
// Index maintenance has one form — Manager.For, which extends the kept
// index from the store's change feed or, when the feed cannot say what
// changed, calls BuildPostings over the pinned view — so there is no
// Collect-everything-and-diff Index.UpdateWith, no Build, Index.Update or
// Manager.Refresh, and no by-generation Manager.Get, Install or BuildLock
// for callers to compose wrongly.
func TestExportedNames(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["textindex"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name = recv.(*ast.Ident).Name + "." + name
			}
			got = append(got, name)
		}
	}
	sort.Strings(got)
	want := []string{
		"BuildPostings", "Config.Fields", "DefaultConfig", "Fold",
		"Index.Gen", "Index.Search", "Index.SearchAny", "Index.Stats",
		"Manager.For", "Manager.StatsAll", "NewManager", "Tokenize",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported functions of textindex = %v, want %v", got, want)
	}
}
