package framework

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path string
	Name string
	Dir  string
	// ModulePath is the path of the module the loader resolved
	// module-internal imports against.
	ModulePath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects type-checker complaints. Imports of packages
	// outside the module are stubbed out (the loader works offline and
	// does not compile the standard library), so analyzers must expect
	// partial type information and must not treat these as fatal.
	// RealTypeErrors filters out the complaints the stubbing provokes.
	TypeErrors []error
	// LoadError is set when the package could not be loaded at all
	// (unreadable directory, parse failure). Such a package has no Files
	// or Types; RunAll reports it under the "loader"
	// pseudo-analyzer instead of silently skipping it.
	LoadError error
	// LoadErrorPos locates LoadError when it has a source position
	// (parse errors do; directory errors do not).
	LoadErrorPos token.Position
}

// RealTypeErrors returns the type errors that are NOT explained by the
// loader's stubbing of external imports — errors a real compiler would
// also report. The stub noise has two shapes, verified against the full
// healthy tree: "undefined: q.Name" where q locally names a stubbed
// (non-module) import of the erroring file, and `"path" imported and
// not used` for a stubbed import whose every selection failed.
// Everything else — undefined bare identifiers, module-internal import
// failures, mismatched types between module types — is real.
func (p *Package) RealTypeErrors() []error {
	if len(p.TypeErrors) == 0 {
		return nil
	}
	// file -> local names of stubbed imports in that file.
	stubImports := map[string]map[string]bool{}
	isModule := func(path string) bool {
		return p.ModulePath != "" && (path == p.ModulePath || strings.HasPrefix(path, p.ModulePath+"/"))
	}
	for _, f := range p.Files {
		fname := p.Fset.Position(f.Pos()).Filename
		names := map[string]bool{}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || isModule(path) {
				continue
			}
			name := path
			if i := strings.LastIndexByte(name, '/'); i >= 0 {
				name = name[i+1:]
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names[name] = true
		}
		stubImports[fname] = names
	}
	var real []error
	for _, err := range p.TypeErrors {
		te, ok := err.(types.Error)
		if !ok {
			real = append(real, err)
			continue
		}
		msg := te.Msg
		fname := te.Fset.Position(te.Pos).Filename
		if rest, ok := strings.CutPrefix(msg, "undefined: "); ok {
			if q, _, found := strings.Cut(rest, "."); found && stubImports[fname][q] {
				continue // selection into a stubbed import
			}
		}
		if strings.HasSuffix(msg, "imported and not used") {
			if q, _, found := strings.Cut(msg, `"`); found && q == "" {
				if path, _, ok := strings.Cut(msg[1:], `"`); ok && !isModule(path) {
					continue // stubbed import whose every selection failed
				}
			}
		}
		real = append(real, err)
	}
	return real
}

// Loader parses and type-checks packages of one Go module from source.
//
// External imports (the standard library and any other module) resolve
// to empty placeholder packages: selections into them fail to
// type-check, which the loader tolerates. Everything defined inside the
// module — constants, functions, methods — gets real types.Info entries,
// including folded constant values, which is all the mdwlint analyzers
// need.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	pkgs    map[string]*Package // by import path, only module-internal
	stubs   map[string]*types.Package
	loading map[string]bool
}

// NewLoader locates the enclosing module by walking up from dir to the
// nearest go.mod.
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			modPath := modulePath(string(data))
			if modPath == "" {
				return nil, fmt.Errorf("framework: %s/go.mod: no module directive", root)
			}
			return &Loader{
				Fset:       token.NewFileSet(),
				ModuleRoot: root,
				ModulePath: modPath,
				pkgs:       map[string]*Package{},
				stubs:      map[string]*types.Package{},
				loading:    map[string]bool{},
			}, nil
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("framework: no go.mod found above %s", dir)
		}
		root = parent
	}
}

func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Load resolves the given patterns to packages. Supported patterns:
// "./..." (every package under the module root), a relative directory
// ("./internal/store"), or a module import path ("mdw/internal/store").
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var out []*Package
	seen := map[string]bool{}
	add := func(p *Package) {
		if p != nil && !seen[p.Path] {
			seen[p.Path] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			dirs, err := l.walkPackageDirs(l.ModuleRoot)
			if err != nil {
				return nil, err
			}
			for _, dir := range dirs {
				p, err := l.loadDir(dir, l.importPathFor(dir))
				if err != nil {
					return nil, err
				}
				add(p)
			}
		case strings.HasPrefix(pat, l.ModulePath+"/") || pat == l.ModulePath:
			p, err := l.importModulePackage(pat)
			if err != nil {
				return nil, err
			}
			add(p)
		default:
			dir := pat
			if !filepath.IsAbs(dir) {
				dir = filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
			}
			p, err := l.loadDir(dir, l.importPathFor(dir))
			if err != nil {
				return nil, err
			}
			add(p)
		}
	}
	return out, nil
}

// LoadDir loads the .go files of one directory as a package with a
// synthetic import path — how the analysistest harness loads fixtures
// that live outside the module's package tree.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	return l.loadDir(dir, asPath)
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

func (l *Loader) walkPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// loadDir parses and type-checks the package in dir under the given
// import path, caching by path. Load failures (unreadable directory,
// parse errors, no Go files) do not abort the load: they produce a
// Package whose LoadError is set, so one broken package surfaces as a
// diagnostic instead of hiding every other package's findings.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("framework: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	fail := func(err error, pos token.Position) (*Package, error) {
		p := &Package{Path: path, Dir: dir, ModulePath: l.ModulePath, Fset: l.Fset, LoadError: err, LoadErrorPos: pos}
		l.pkgs[path] = p
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fail(err, token.Position{})
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pos := token.Position{Filename: filepath.Join(dir, name)}
			if el, ok := err.(scanner.ErrorList); ok && len(el) > 0 {
				pos = el[0].Pos
				err = fmt.Errorf("%s", el[0].Msg)
			}
			return fail(fmt.Errorf("parse: %w", err), pos)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return fail(fmt.Errorf("no Go files in %s", dir), token.Position{})
	}

	// Load module-internal imports first (depth-first topological order).
	for _, f := range files {
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if l.isModulePath(ipath) {
				if _, err := l.importModulePackage(ipath); err != nil {
					return nil, err
				}
			}
		}
	}

	pkg := &Package{
		Path:       path,
		Name:       files[0].Name.Name,
		Dir:        dir,
		ModulePath: l.ModulePath,
		Fset:       l.Fset,
		Files:      files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer:         (*loaderImporter)(l),
		Error:            func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		IgnoreFuncBodies: false,
	}
	tpkg, _ := conf.Check(path, l.Fset, files, pkg.Info) // errors recorded via conf.Error
	if tpkg == nil {
		return nil, fmt.Errorf("framework: type-checking %s produced no package", path)
	}
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *Loader) isModulePath(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// importModulePackage maps an import path inside the module to its
// directory and loads it.
func (l *Loader) importModulePackage(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	return l.loadDir(dir, path)
}

// loaderImporter adapts the loader to the go/types Importer interface.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.isModulePath(path) {
		p, err := l.importModulePackage(path)
		if err != nil {
			return nil, err
		}
		if p.LoadError != nil {
			// Propagate so the importing package records a "could not
			// import" type error pointing at the broken dependency.
			return nil, p.LoadError
		}
		return p.Types, nil
	}
	// Stub: an empty, complete package. Selections into it fail to
	// type-check; the per-package Error handler swallows that.
	if s, ok := l.stubs[path]; ok {
		return s, nil
	}
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	s := types.NewPackage(path, name)
	s.MarkComplete()
	l.stubs[path] = s
	return s, nil
}

// constString extracts a folded constant string value.
func constString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
