package framework

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// markFact marks a function object for the facts round-trip test.
type markFact struct{ Seen int }

func (*markFact) AFact() {}

// loadFactsModule loads the two-package facts fixture in REVERSE
// dependency order, so the test also proves RunAll's topological
// reordering (facts must flow lo → hi regardless of input order).
func loadFactsModule(t *testing.T) []*Package {
	t.Helper()
	l, err := NewLoader("testdata/src/facts")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("facts/hi", "facts/lo")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].Path != "facts/hi" {
		t.Fatalf("loaded %d packages, want hi then lo as input order", len(pkgs))
	}
	return pkgs
}

// markAnalyzer exports a fact on every function named Target and, in
// the same pass, reports calls to functions carrying the fact — the
// shape of syncerr, whose facts flow from one package to its importers.
func markAnalyzer() *Analyzer {
	return &Analyzer{
		Name:      "mark",
		Doc:       "marks functions named Target and reports calls to them",
		FactTypes: []Fact{(*markFact)(nil)},
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncDecl:
						if fn, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok && n.Name.Name == "Target" {
							pass.ExportObjectFact(fn, &markFact{Seen: 1})
						}
					case *ast.CallExpr:
						sel, ok := n.Fun.(*ast.SelectorExpr)
						if !ok {
							return true
						}
						fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
						fact := &markFact{}
						if ok && pass.ImportObjectFact(fn, fact) && fact.Seen == 1 {
							pass.Reportf(n.Pos(), "call to marked function %s", fn.Name())
						}
					}
					return true
				})
			}
			return nil
		},
	}
}

func TestFactsFlowAcrossPackages(t *testing.T) {
	pkgs := loadFactsModule(t)
	res, err := RunAll(pkgs, markAnalyzer())
	if err != nil {
		t.Fatal(err)
	}

	// Two lo.Target() call sites in hi; one is suppressed by an allow.
	if len(res.Diagnostics) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (one suppressed): %v", len(res.Diagnostics), res.Diagnostics)
	}
	if !strings.Contains(res.Diagnostics[0].Message, "Target") {
		t.Errorf("diagnostic %q does not name the marked function", res.Diagnostics[0].Message)
	}

	// Allow audit: one allow consumed a diagnostic, one is stale.
	var used, stale int
	for _, a := range res.Allows {
		if a.Analyzer != "mark" {
			continue
		}
		if a.Used {
			used++
		} else {
			stale++
		}
	}
	if used != 1 || stale != 1 {
		t.Fatalf("allow audit: used=%d stale=%d, want 1 and 1 (%+v)", used, stale, res.Allows)
	}
}

func TestExportFactUnregisteredPanics(t *testing.T) {
	pkgs := loadFactsModule(t)
	bad := &Analyzer{
		Name: "bad",
		Doc:  "exports a fact type it never registered",
		Run: func(pass *Pass) error {
			obj := pass.Pkg.Scope().Lookup("Target")
			if obj == nil {
				return nil // the fixture package without Target
			}
			defer func() {
				if recover() == nil {
					t.Error("ExportObjectFact on an unregistered fact type did not panic")
				}
			}()
			pass.ExportObjectFact(obj, &markFact{})
			return nil
		},
	}
	if _, err := RunAll(pkgs, bad); err != nil {
		t.Fatal(err)
	}
}
