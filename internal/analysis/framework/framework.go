// Package framework is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer holds a
// name, documentation, and a Run function; a Pass hands the Run function
// one type-checked package at a time and collects diagnostics.
//
// The x/tools module is deliberately not vendored — the warehouse builds
// offline — so this package supplies the small subset the mdwlint
// analyzers need: a source loader for the repository's own module (see
// load.go), positional diagnostics, per-line suppression comments, and
// cross-package analyzer facts (see facts.go). RunAll is the one entry
// point. Analyzers written against it look exactly like go/analysis
// analyzers and could be ported to the real framework by swapping the
// import.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//mdwlint:allow <name>" suppression comments.
	Name string
	// Doc is the help text shown by cmd/mdwlint.
	Doc string
	// Run applies the analyzer to one package. Packages arrive in
	// dependency order (imports before importers), so facts exported
	// while analyzing a package are visible to every downstream pass.
	Run func(*Pass) error
	// FactTypes declares the fact types this analyzer exports; a fact
	// type must be registered here before ExportObjectFact accepts it.
	FactTypes []Fact
}

// Program is the whole set of packages being analyzed by one RunAll,
// in dependency order. Analyzers reach sibling packages through the
// Pass's Prog field.
type Program struct {
	Fset *token.FileSet
	// Packages holds the loaded packages topologically sorted: a package
	// precedes everything that imports it.
	Packages []*Package

	facts map[factKey]Fact
}

// Package returns the loaded package with the given import path, or nil.
func (prog *Program) Package(path string) *Package {
	for _, p := range prog.Packages {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// Pass is the interface between one analyzer run and one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the package's import path (or a synthetic path for
	// directory loads in tests).
	Path string
	// Prog is the whole program being analyzed.
	Prog *Program

	diags *[]Diagnostic
}

// Diagnostic is one reported problem.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// LoaderAnalyzerName labels diagnostics produced by the loader itself:
// packages that failed to parse, and type errors not attributable to the
// loader's deliberate stubbing of external imports. They are emitted by
// every Run regardless of the analyzer selection — a package that did
// not load was not analyzed, and silence would hide that.
const LoaderAnalyzerName = "loader"

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ConstString returns the constant string value of expr, if the
// type-checker folded it to one (string literals, concatenations of
// constants, references to string constants).
func (p *Pass) ConstString(expr ast.Expr) (string, bool) {
	return constString(p.TypesInfo, expr)
}

// Allow is one "//mdwlint:allow <analyzer> <reason>" comment found in
// the analyzed sources.
type Allow struct {
	Pos      token.Position
	Analyzer string
	// Used reports whether the comment suppressed at least one
	// diagnostic in this run. An unused allow is stale — it documents an
	// exemption that no longer exists — unless the analyzer it names was
	// excluded from the run.
	Used bool
}

// Result is the full outcome of one RunAll.
type Result struct {
	// Diagnostics are sorted by position; suppressed ones (see
	// filterSuppressed) are dropped.
	Diagnostics []Diagnostic
	// Allows lists every suppression comment seen, with usage marks, so
	// callers running the complete analyzer set can audit stale allows.
	Allows []Allow
}

// RunAll applies the analyzers to every loaded package.
//
// Packages are visited in dependency order, so facts flow from defining
// packages to their importers. Packages that failed to load are
// reported under the "loader" pseudo-analyzer and skipped.
func RunAll(pkgs []*Package, analyzers ...*Analyzer) (*Result, error) {
	sorted := topoPackages(pkgs)
	var fset *token.FileSet
	for _, p := range sorted {
		if p.Fset != nil {
			fset = p.Fset
			break
		}
	}
	prog := &Program{
		Fset:     fset,
		Packages: sorted,
		facts:    map[factKey]Fact{},
	}

	var diags []Diagnostic
	for _, pkg := range sorted {
		diags = append(diags, loaderDiagnostics(pkg)...)
	}
	for _, a := range analyzers {
		for _, pkg := range sorted {
			if pkg.LoadError != nil || pkg.Types == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Path:      pkg.Path,
				Prog:      prog,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}

	diags, allows := filterSuppressed(diags, sorted)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return &Result{Diagnostics: diags, Allows: allows}, nil
}

// topoPackages orders packages so that every package precedes the
// packages importing it; ties (and packages outside the set) keep their
// relative input order, which the loader already sorts by path.
func topoPackages(pkgs []*Package) []*Package {
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	var out []*Package
	state := map[*Package]int{}
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return
		}
		state[p] = 1
		if p.Types != nil {
			for _, imp := range p.Types.Imports() {
				if dep, ok := byPath[imp.Path()]; ok {
					visit(dep)
				}
			}
		}
		state[p] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// loaderDiagnostics converts a package's load failures into ordinary
// diagnostics: the parse error that prevented loading, or type errors
// the stub classifier (see load.go) deems real. At most a handful per
// package — a genuinely broken file cascades.
func loaderDiagnostics(pkg *Package) []Diagnostic {
	const maxPerPackage = 5
	var out []Diagnostic
	if pkg.LoadError != nil {
		pos := token.Position{Filename: pkg.Dir}
		if pkg.LoadErrorPos.IsValid() || pkg.LoadErrorPos.Filename != "" {
			pos = pkg.LoadErrorPos
		}
		out = append(out, Diagnostic{
			Analyzer: LoaderAnalyzerName,
			Pos:      pos,
			Message:  fmt.Sprintf("package %s failed to load: %v", pkg.Path, pkg.LoadError),
		})
		return out
	}
	for _, err := range pkg.RealTypeErrors() {
		if len(out) >= maxPerPackage {
			out = append(out, Diagnostic{
				Analyzer: LoaderAnalyzerName,
				Pos:      out[len(out)-1].Pos,
				Message:  fmt.Sprintf("package %s: further type errors omitted", pkg.Path),
			})
			break
		}
		pos := token.Position{Filename: pkg.Dir}
		msg := err.Error()
		if te, ok := err.(types.Error); ok {
			pos = te.Fset.Position(te.Pos)
			msg = te.Msg
		}
		out = append(out, Diagnostic{
			Analyzer: LoaderAnalyzerName,
			Pos:      pos,
			Message:  fmt.Sprintf("package %s does not type-check: %s", pkg.Path, msg),
		})
	}
	return out
}

// filterSuppressed drops diagnostics whose source line (or the line
// directly above it) carries a "//mdwlint:allow <analyzer> <reason>"
// comment, and returns every allow comment seen with a mark recording
// whether it suppressed anything. The reason is mandatory by
// convention: a bare allow reads as an unexplained override in review.
func filterSuppressed(diags []Diagnostic, pkgs []*Package) ([]Diagnostic, []Allow) {
	type key struct {
		analyzer string
		line     int
	}
	// file -> (analyzer, line) -> index into allows.
	table := map[string]map[key]int{}
	var allows []Allow
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fname := pkg.Fset.Position(f.Pos()).Filename
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "mdwlint:allow ") {
						continue
					}
					fields := strings.Fields(strings.TrimPrefix(text, "mdwlint:allow "))
					if len(fields) == 0 {
						continue
					}
					if table[fname] == nil {
						table[fname] = map[key]int{}
					}
					pos := pkg.Fset.Position(c.Pos())
					allows = append(allows, Allow{Pos: pos, Analyzer: fields[0]})
					idx := len(allows) - 1
					// The comment suppresses its own line and the next: a
					// trailing comment covers its statement, a standalone
					// comment covers the statement below it.
					table[fname][key{fields[0], pos.Line}] = idx
					table[fname][key{fields[0], pos.Line + 1}] = idx
				}
			}
		}
	}
	if len(allows) == 0 {
		return diags, nil
	}
	out := diags[:0]
	for _, d := range diags {
		if idx, ok := table[d.Pos.Filename][key{d.Analyzer, d.Pos.Line}]; ok {
			allows[idx].Used = true
			continue
		}
		out = append(out, d)
	}
	return out, allows
}
