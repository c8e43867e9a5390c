package mdw

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docNameAllow lists backticked names the docs use that no declaration of
// this tree carries, each with the reason it stays.
var docNameAllow = map[string]string{
	"ReadView":         "a removed name that TestOneReadKernel keeps out of the tree",
	"ModelInfo":        "a removed name that TestOneReadKernel keeps out of the tree",
	"maxFreshAttempts": "a removed name that TestOneReadKernel keeps out of the tree",
	"mapsTo":           "a predicate of the paper's data-transfer ontology (dt:mapsTo)",
	"hasRuleCondition": "a predicate of the paper's data-transfer ontology (dt:hasRuleCondition)",
	"r.Context()":      "net/http's Request.Context",
	"Background()":     "context.Background",
	"WriteString":      "a method of the standard library's writers",
	"Flush":            "a method of the standard library's writers",
	"RLock":            "sync.RWMutex.RLock",
	"lineage.trace":    "a trace span's name, as the trace tree prints it",
}

// docNameStd lists the standard library packages the docs name things of.
var docNameStd = map[string]bool{
	"atomic": true, "context": true, "errors": true, "json": true, "maps": true, "runtime": true, "slices": true,
	"sort": true, "strings": true, "sync": true, "time": true, "types": true, "fmt": true, "io": true, "os": true,
}

// TestDocNames: every Go name DESIGN.md and README.md put in backticks —
// pkg.Name, Type.Member, pkg.Type.Member, value.Member, or a bare mixed-case
// identifier — resolves to a declaration of the tree (a func, method,
// type, field, const, var or parameter, or a field's JSON name), unless
// docNameAllow says why not. Lower-case single words, identifiers with
// underscores (metric and row names) and file names are prose, not
// checked.
func TestDocNames(t *testing.T) {
	d := declaredNames(t)
	spans := regexp.MustCompile("`([^`\n]+)`")
	name := regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_]*(\.[A-Za-z][A-Za-z0-9_]*)*(\(\))?$`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range spans.FindAllStringSubmatch(line, -1) {
				span := m[1]
				if !name.MatchString(span) || docNameAllow[span] != "" || !d.checked(span) {
					continue
				}
				if !d.resolves(strings.TrimSuffix(span, "()")) {
					t.Errorf("%s:%d: `%s` names no declaration of the tree", doc, i+1, span)
				}
			}
		}
	}
}

// docDecls holds what the tree declares: per package its names, members
// of its types included; per type its methods and fields; and every name.
type docDecls struct {
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
	all     map[string]bool
}

func declaredNames(t *testing.T) *docDecls {
	d := &docDecls{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, all: map[string]bool{}}
	var top map[string]bool // the package of the file being read
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name], top[name], d.all[name] = true, true, true
	}
	fields := func(typ string, list *ast.FieldList) {
		for _, f := range list.List {
			for _, n := range f.Names {
				member(typ, n.Name)
			}
			if f.Tag != nil {
				tag, _ := strconv.Unquote(f.Tag.Value)
				if js, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); js != "" && js != "-" {
					member(typ, js)
				}
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		top = d.pkgs[f.Name.Name]
		if top == nil {
			top = map[string]bool{}
			d.pkgs[f.Name.Name] = top
		}
		declare := func(n string) { top[n], d.all[n] = true, true }
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				for _, list := range []*ast.FieldList{decl.Type.Params, decl.Type.Results} {
					if list == nil {
						continue
					}
					for _, f := range list.List {
						for _, n := range f.Names {
							d.all[n.Name] = true
						}
					}
				}
				if decl.Recv == nil {
					declare(decl.Name.Name)
					continue
				}
				recv := decl.Recv.List[0].Type
				for {
					switch r := recv.(type) {
					case *ast.StarExpr:
						recv = r.X
						continue
					case *ast.IndexExpr:
						recv = r.X
						continue
					case *ast.IndexListExpr:
						recv = r.X
						continue
					}
					break
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name.Name)
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields(spec.Name.Name, typ.Fields)
						case *ast.InterfaceType:
							fields(spec.Name.Name, typ.Methods)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declare(n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checked reports whether span is a name the test holds the docs to: a
// dotted name without underscores in its last part and not a file name,
// or a bare identifier with upper and lower case letters and no
// underscore.
func (d *docDecls) checked(span string) bool {
	span = strings.TrimSuffix(span, "()")
	parts := strings.Split(span, ".")
	last := parts[len(parts)-1]
	if len(parts) > 1 {
		switch last {
		case "go", "md", "json", "nt", "txt", "log", "golden", "snap", "yml":
			return false
		}
		return !strings.Contains(last, "_") && !strings.Contains(parts[0], "_")
	}
	return !strings.Contains(span, "_") && strings.ToLower(span) != span && strings.ToUpper(span) != span
}

// resolves reports whether a dotted or bare name is declared: the first
// part a package of the tree, a type, a standard library package or a
// value, and each later part declared in what the part before names.
func (d *docDecls) resolves(span string) bool {
	parts := strings.Split(span, ".")
	if len(parts) == 1 {
		return d.all[span]
	}
	first, rest := parts[0], parts[1:]
	switch {
	case d.pkgs[first] != nil && first != "mdw":
		if !d.pkgs[first][rest[0]] {
			return false
		}
		if len(rest) == 1 {
			return true
		}
		first, rest = rest[0], rest[1:]
	case docNameStd[first]:
		return true
	}
	if d.members[first] != nil {
		return d.members[first][rest[0]] && (len(rest) == 1 || d.all[rest[len(rest)-1]])
	}
	// A value: its member is declared on some type.
	return d.all[rest[len(rest)-1]]
}
