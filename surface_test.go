package mdw

import (
	"flag"
	"fmt"
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
// every metric family with its label keys, read from the non-test
// sources with go/parser and compared with testdata/surface.golden (go
// test -run TestSurface -update . re-records it). A rename or a removal
// is a reviewed golden diff, not a silent change.
//
// Each entry names its reader: a test, bench/ file, the CI workflow, or
// README or DESIGN where an operator workflow uses it. The reader file
// must exist and still mention the entry — what nothing reads is
// deleted, not catalogued. -update keeps the readers already recorded
// and writes a new entry as "read by ?", which fails until one is named.
// Every mdw_ family bench/ reads must be emitted, so a rename cannot
// zero a benchmark row unnoticed.
func TestSurface(t *testing.T) {
	entries, metrics := surfaceEntries(t)
	golden := filepath.Join("testdata", "surface.golden")
	want, err := os.ReadFile(golden)
	if err != nil && !*update {
		t.Fatalf("%v (run go test -run TestSurface -update .)", err)
	}
	readers := map[string]string{}
	for _, line := range strings.Split(string(want), "\n") {
		if entry, reader, ok := strings.Cut(line, " read by "); ok {
			readers[strings.TrimSpace(entry)] = reader
		}
	}
	var b strings.Builder
	for _, e := range entries {
		if readers[e] == "" {
			readers[e] = "?"
		}
		fmt.Fprintf(&b, "%-48s read by %s\n", e, readers[e])
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if got != string(want) {
		t.Errorf("the surface differs from %s; review the change and re-record with -update:\n%s",
			golden, lineDiff(string(want), got))
	}

	files := map[string]string{}
	for _, e := range entries {
		if err := checkReader(e, readers[e], files); err != nil {
			t.Errorf("%s: %v", e, err)
		}
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

// surfaceEntries lists the catalogue's entries, sorted, and the metric
// families emitted.
func surfaceEntries(t *testing.T) ([]string, map[string]bool) {
	var lines []string
	labels := map[string]string{} // metric family -> "{key,...}"
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
					return true
				}
				keys, err := labelKeys(call, name)
				if err != nil {
					t.Errorf("%s: %s: %v", fset.Position(call.Pos()), lit, err)
				}
				if prev, ok := labels[lit]; ok && prev != keys {
					t.Errorf("%s: %s registered with label keys %q and %q", fset.Position(call.Pos()), lit, prev, keys)
				}
				labels[lit] = keys
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
	metrics := map[string]bool{}
	for m, keys := range labels {
		metrics[m] = true
		lines = append(lines, "metric "+m+keys)
	}
	sort.Strings(lines)
	return lines, metrics
}

// labelKeys renders the label keys of a Counter/Gauge(name, k, v, ...)
// or Histogram(name, bounds, k, v, ...) registration as "{k1,k2}" ("" for
// none). Every key must be a string literal.
func labelKeys(call *ast.CallExpr, kind string) (string, error) {
	first := 1
	if kind == "Histogram" {
		first = 2
	}
	if call.Ellipsis.IsValid() {
		return "", fmt.Errorf("label pairs passed as a slice")
	}
	var keys []string
	for i := first; i < len(call.Args); i += 2 {
		bl, ok := call.Args[i].(*ast.BasicLit)
		if !ok || bl.Kind != token.STRING {
			return "", fmt.Errorf("label key %d is not a string literal", len(keys)+1)
		}
		k, _ := strconv.Unquote(bl.Value)
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return "", nil
	}
	return "{" + strings.Join(keys, ",") + "}", nil
}

// checkReader reports why reader is not a reader of entry: none named,
// not a kind of file that counts, missing, or no longer mentioning the
// entry. files caches what was read.
func checkReader(entry, reader string, files map[string]string) error {
	switch {
	case reader == "?":
		return fmt.Errorf("no reader: name the test, bench/ file, CI workflow or README/DESIGN workflow that reads it, or delete it")
	case strings.HasSuffix(reader, "_test.go"),
		strings.HasPrefix(reader, "bench/") && strings.HasSuffix(reader, ".go"),
		reader == ".github/workflows/ci.yml", reader == "README.md", reader == "DESIGN.md":
	default:
		return fmt.Errorf("%s is not a reader: a test, bench/*.go, .github/workflows/ci.yml, README.md or DESIGN.md", reader)
	}
	text, ok := files[reader]
	if !ok {
		b, err := os.ReadFile(filepath.FromSlash(reader))
		if err != nil {
			return fmt.Errorf("reader: %v", err)
		}
		text = string(b)
		files[reader] = text
	}
	for _, key := range mentionKeys(entry) {
		if mentions(text, key) {
			return nil
		}
	}
	return fmt.Errorf("%s no longer mentions it (looked for %q)", reader, mentionKeys(entry))
}

// mentionKeys returns the texts any one of which a reader of entry
// contains: a route's path, a flag's -name, `mdw sub` or "sub" for a
// subcommand, a metric's family name (or one of its histogram series).
func mentionKeys(entry string) []string {
	f := strings.Fields(entry)
	switch f[0] {
	case "route":
		if path := strings.TrimSuffix(f[2], "{$}"); path != "/" {
			return []string{path}
		}
		return []string{`"/"`}
	case "flag":
		return []string{f[len(f)-1]}
	case "cmd":
		return []string{"mdw " + f[2], strconv.Quote(f[2])}
	default: // metric
		name, _, _ := strings.Cut(f[1], "{")
		return []string{name, name + "_sum", name + "_count", name + "_bucket"}
	}
}

// mentions reports whether key occurs in text as a whole token: not
// preceded by a letter, digit, '_' or '-' (a route's path may follow
// anything), nor followed by one of those or '/'.
func mentions(text, key string) bool {
	inToken := func(c byte) bool {
		return c == '_' || c == '-' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
	}
	for i := 0; ; {
		j := strings.Index(text[i:], key)
		if j < 0 {
			return false
		}
		start, end := i+j, i+j+len(key)
		before := start == 0 || key[0] == '/' || !inToken(text[start-1])
		after := end == len(text) || !inToken(text[end]) && text[end] != '/'
		if before && after {
			return true
		}
		i = start + 1
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
