// Package analysistest runs a framework.Analyzer over fixture packages
// and checks its diagnostics against "// want" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line expects diagnostics by carrying a trailing comment of
// the form
//
//	// want "regexp" `another regexp`
//
// Every diagnostic reported on that line must match one of the regexps,
// and every regexp must be matched by exactly one diagnostic. Lines
// without a want comment must produce no diagnostics.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mdw/internal/analysis/framework"
)

// Run loads each named fixture directory (resolved relative to
// dir/testdata/src) as one package, applies the analyzer, and reports
// mismatches through t.
func Run(t *testing.T, dir string, a *framework.Analyzer, fixtures ...string) {
	t.Helper()
	for _, fx := range fixtures {
		runOne(t, filepath.Join(dir, "testdata", "src", fx), fx, a)
	}
}

func runOne(t *testing.T, fxDir, fxName string, a *framework.Analyzer) {
	t.Helper()
	loader, err := framework.NewLoader(fxDir)
	if err != nil {
		t.Fatalf("%s: %v", fxName, err)
	}
	pkg, err := loader.LoadDir(fxDir, "fixture/"+fxName)
	if err != nil {
		t.Fatalf("%s: loading fixture: %v", fxName, err)
	}
	checkFixture(t, fxName, a, []*framework.Package{pkg})
}

// RunModule loads each named fixture directory as a complete module —
// the fixture contains its own go.mod and one subdirectory per package
// — applies the analyzer to all packages together, and checks "want"
// comments across the whole module. This is how analyzers that pass
// facts between packages (syncerr) are tested.
func RunModule(t *testing.T, dir string, a *framework.Analyzer, fixtures ...string) {
	t.Helper()
	for _, fx := range fixtures {
		fxDir := filepath.Join(dir, "testdata", "src", fx)
		loader, err := framework.NewLoader(fxDir)
		if err != nil {
			t.Fatalf("%s: %v", fx, err)
		}
		pkgs, err := loader.Load("./...")
		if err != nil {
			t.Fatalf("%s: loading fixture module: %v", fx, err)
		}
		checkFixture(t, fx, a, pkgs)
	}
}

func checkFixture(t *testing.T, fxName string, a *framework.Analyzer, pkgs []*framework.Package) {
	t.Helper()
	res, err := framework.RunAll(pkgs, a)
	if err != nil {
		t.Fatalf("%s: running %s: %v", fxName, a.Name, err)
	}
	ws := &wantSet{}
	for _, pkg := range pkgs {
		if err := collectWants(pkg, ws); err != nil {
			t.Fatalf("%s: %v", fxName, err)
		}
	}
	for _, d := range res.Diagnostics {
		if !ws.match(d) {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", fxName, filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
	for _, w := range ws.unmatched() {
		t.Errorf("%s: expected diagnostic matching %q at %s:%d, got none", fxName, w.re.String(), filepath.Base(w.file), w.line)
	}
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

type wantSet struct{ wants []*want }

func (ws *wantSet) match(d framework.Diagnostic) bool {
	for _, w := range ws.wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) unmatched() []*want {
	var out []*want
	for _, w := range ws.wants {
		if !w.matched {
			out = append(out, w)
		}
	}
	return out
}

func collectWants(pkg *framework.Package, ws *wantSet) error {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := splitPatterns(rest)
				if err != nil {
					return fmt.Errorf("%s:%d: %w", pos.Filename, pos.Line, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return fmt.Errorf("%s:%d: bad want pattern %q: %w", pos.Filename, pos.Line, p, err)
					}
					ws.wants = append(ws.wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return nil
}

// splitPatterns parses a sequence of "..." or `...` quoted regexps.
func splitPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("want patterns must be quoted with \" or `, got %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern in %q", s)
		}
		out = append(out, s[1:1+end])
		s = strings.TrimSpace(s[end+2:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want comment")
	}
	return out, nil
}
