package mdw

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/surface.golden from the tree")

// knownDeadRead is the one metric family bench/ reads that nothing
// emits: the per-query plan memo it counted was deleted, and the row
// that reads it is the benchmark's to drop.
const knownDeadRead = "mdw_sparql_plancache_total"

// TestSurface is the catalogue of what the system shows the outside: the
// HTTP routes, mdwd's flags, mdw's subcommands with their flags, and
// every metric family, read from the non-test sources with go/parser and
// compared with testdata/surface.golden (go test -run TestSurface
// -update . re-records it). A rename or a removal is a reviewed golden
// diff, not a silent change. Every mdw_ family bench/ reads must be
// emitted, so a rename cannot zero a benchmark row unnoticed.
func TestSurface(t *testing.T) {
	var lines []string
	metrics := map[string]bool{}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // package directory -> files
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
		files[dir] = append(files[dir], f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, name, lit := literalCall(n)
			if call == nil {
				return true
			}
			switch name {
			case "Counter", "Gauge", "Histogram":
				if lit == "" {
					t.Errorf("%s: metric family is not a string literal", fset.Position(call.Pos()))
				} else {
					metrics[lit] = true
				}
			case "HandleFunc":
				if dir == "internal/httpapi" && lit != "" {
					lines = append(lines, "route "+lit)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files["cmd/mdwd"] {
		for _, fl := range flagsDefinedOn(f, "flag") {
			lines = append(lines, "flag mdwd -"+fl)
		}
	}
	lines = append(lines, mdwSubcommands(t, files["cmd/mdw"])...)
	for m := range metrics {
		lines = append(lines, "metric "+m)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "surface.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test -run TestSurface -update .)", err)
	}
	if got != string(want) {
		t.Errorf("the surface differs from %s; review the change and re-record with -update:\n%s",
			golden, lineDiff(string(want), got))
	}

	// The tripwire: what the benchmark reads is emitted.
	read := benchMetricReads(t)
	for m := range read {
		switch {
		case m == knownDeadRead && metrics[m]:
			t.Errorf("%s is emitted again: drop knownDeadRead", m)
		case m != knownDeadRead && !metrics[m]:
			t.Errorf("bench/ reads %s, which nothing emits", m)
		}
	}
	if !read[knownDeadRead] {
		t.Errorf("bench/ no longer reads %s: drop knownDeadRead", knownDeadRead)
	}
}

// literalCall matches a method or package-function call X.Name(...) and
// returns its name and its first argument when that is a string literal
// ("" otherwise).
func literalCall(n ast.Node) (*ast.CallExpr, string, string) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", ""
	}
	lit := ""
	if len(call.Args) > 0 {
		if bl, ok := call.Args[0].(*ast.BasicLit); ok && bl.Kind == token.STRING {
			lit, _ = strconv.Unquote(bl.Value)
		}
	}
	return call, sel.Sel.Name, lit
}

// flagsDefinedOn lists the flags defined in n by calls recv.Kind("name",
// ...) — flag.String, fs.Bool and the like.
func flagsDefinedOn(n ast.Node, recv string) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		call, name, lit := literalCall(n)
		if call == nil || lit == "" || name == "NewFlagSet" {
			return true
		}
		if id, ok := call.Fun.(*ast.SelectorExpr).X.(*ast.Ident); ok && id.Name == recv {
			out = append(out, lit)
		}
		return true
	})
	return out
}

// mdwSubcommands lists mdw's subcommands, the cases of run's switch that
// call a cmd function, and the flags each defines on its FlagSet.
func mdwSubcommands(t *testing.T, files []*ast.File) []string {
	funcs := map[string]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				funcs[fd.Name.Name] = fd
			}
		}
	}
	run := funcs["run"]
	if run == nil {
		t.Fatal("cmd/mdw has no run function")
	}
	var out []string
	ast.Inspect(run.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok || len(cc.List) != 1 {
			return true
		}
		bl, ok := cc.List[0].(*ast.BasicLit)
		if !ok {
			return true
		}
		sub, _ := strconv.Unquote(bl.Value)
		for _, st := range cc.Body {
			ret, ok := st.(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				continue
			}
			call, ok := ret.Results[0].(*ast.CallExpr)
			if !ok {
				continue
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || funcs[id.Name] == nil {
				continue
			}
			out = append(out, "cmd mdw "+sub)
			for _, fl := range flagsDefinedOn(funcs[id.Name].Body, "fs") {
				out = append(out, "flag mdw "+sub+" -"+fl)
			}
		}
		return true
	})
	return out
}

// benchMetricReads returns the mdw_ families bench/*.go mentions, the
// histogram series suffixes folded into their family.
func benchMetricReads(t *testing.T) map[string]bool {
	paths, err := filepath.Glob(filepath.Join("bench", "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bench/*.go (%v)", err)
	}
	name := regexp.MustCompile(`\bmdw_[a-z0-9_]+`)
	read := map[string]bool{}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range name.FindAllString(string(src), -1) {
			for _, suffix := range []string{"_sum", "_count", "_bucket"} {
				m = strings.TrimSuffix(m, suffix)
			}
			read[m] = true
		}
	}
	return read
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
