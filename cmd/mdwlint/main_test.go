package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdw/internal/analysis/framework"
)

// TestTreeIsClean runs what CI's lint step runs: every analyzer over
// the whole module, stale-waiver audit included. A finding or a
// //mdwlint:allow that no longer suppresses anything fails here too.
func TestTreeIsClean(t *testing.T) {
	diags, err := lint(".", all, true, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// mutant re-introduces one bug into a copy of a real package: the first
// occurrence of old in file becomes new.
type mutant struct {
	analyzer string
	dir      string // package directory, relative to the module root
	file     string
	old, new string
}

// keptMutants holds one mutant per analyzer, each a bug this repository
// has had or a break in a query the paper's listings depend on.
var keptMutants = []mutant{
	{
		// The WAL's fsync error dropped.
		analyzer: "syncerr", dir: "internal/durable", file: "wal.go",
		old: "\tif err := w.f.Sync(); err != nil {\n\t\treturn 0, err\n\t}\n",
		new: "\tw.f.Sync()\n",
	},
	{
		// A search request detached from its trace.
		analyzer: "ctxflow", dir: "internal/httpapi", file: "httpapi.go",
		old: "s.w.SearchCtx(r.Context(), term, opt)",
		new: "s.w.SearchCtx(context.Background(), term, opt)",
	},
	{
		// A Table I class misspelt in the services' vocabulary.
		analyzer: "iricheck", dir: "internal/metamodel", file: "graph.go",
		old: `rdf.DMNS + "Application"`,
		new: `rdf.DMNS + "Aplication"`,
	},
	{
		// Listing 2's graph pattern left unclosed.
		analyzer: "sparqlcheck", dir: "cmd/mdw", file: "main.go",
		old: "?target_id dm:hasName ?target_name},",
		new: "?target_id dm:hasName ?target_name,",
	},
	{
		// Request text handed to the panicking parser.
		analyzer: "mustparse", dir: "internal/core", file: "warehouse.go",
		old: "q, err := sparql.ParseCtx(ctx, text)",
		new: "q, err := sparql.MustParse(text), error(nil)",
	},
}

// TestKeptAnalyzersCatchTheirMutant loads each mutated package from a
// temporary copy, against the rest of the real module, and requires its
// analyzer — and no other — to report the mutation: on its line, or on
// the first line of the multi-line literal holding it (at most ten
// lines above).
func TestKeptAnalyzersCatchTheirMutant(t *testing.T) {
	covered := map[string]bool{}
	for _, m := range keptMutants {
		covered[m.analyzer] = true
		t.Run(m.analyzer, func(t *testing.T) {
			// A fresh loader per mutant: its cache is keyed by import path.
			l, err := framework.NewLoader(".")
			if err != nil {
				t.Fatal(err)
			}
			dir, line := copyMutated(t, filepath.Join(l.ModuleRoot, m.dir), m)
			pkg, err := l.LoadDir(dir, l.ModulePath+"/"+m.dir)
			if err != nil {
				t.Fatal(err)
			}
			res, err := framework.RunAll([]*framework.Package{pkg}, all...)
			if err != nil {
				t.Fatal(err)
			}
			caught := false
			for _, d := range res.Diagnostics {
				if d.Analyzer != m.analyzer {
					t.Errorf("reported by %s, want only %s: %s", d.Analyzer, m.analyzer, d)
					continue
				}
				if filepath.Base(d.Pos.Filename) == m.file && line-10 < d.Pos.Line && d.Pos.Line <= line {
					caught = true
				}
			}
			if !caught {
				t.Errorf("%s did not report %s:%d (%q)", m.analyzer, m.file, line, m.new)
			}
		})
	}
	for _, a := range all {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no mutant", a.Name)
		}
	}
}

// copyMutated copies the package's non-test Go files into a temporary
// directory with the mutation applied, and returns the directory and
// the line the mutation starts on.
func copyMutated(t *testing.T, src string, m mutant) (string, int) {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	line := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		if name == m.file {
			i := strings.Index(text, m.old)
			if i < 0 {
				t.Fatalf("%s/%s no longer contains %q; update the mutant", m.dir, m.file, m.old)
			}
			line = strings.Count(text[:i], "\n") + 1
			text = text[:i] + m.new + text[i+len(m.old):]
		}
		if err := os.WriteFile(filepath.Join(dst, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if line == 0 {
		t.Fatalf("%s/%s not found", m.dir, m.file)
	}
	return dst, line
}
