// Command mdwlint is the warehouse's static-analysis multichecker. It
// loads the requested packages with the repository's own source loader
// (no external tooling, so it runs offline) and applies the five
// repo-specific analyzers:
//
//	sparqlcheck  constant query strings must parse
//	iricheck     constant IRIs/prefixed names must exist in the vocabulary
//	mustparse    sparql.MustParse takes constants only
//	ctxflow      contexts must be forwarded to context-aware callees
//	syncerr      durable Write/Sync/Flush/Close errors must be checked
//
// Each one guards the query text of the paper's listings or has caught
// a bug of this repository; main_test.go holds one such mutant per
// analyzer and fails when the analyzer stops reporting it.
//
// Usage:
//
//	go run ./cmd/mdwlint ./...
//	go run ./cmd/mdwlint -help
//	go run ./cmd/mdwlint -only sparqlcheck,iricheck ./internal/core
//	go run ./cmd/mdwlint -json ./...
//	go run ./cmd/mdwlint -c 2 ./internal/store
//
// Diagnostics print as file:line:col: analyzer: message; the exit code
// is 1 when any diagnostic is reported. With -json the full result —
// diagnostics plus stale suppression comments — is a single JSON
// object on stdout. -c N adds N lines of source context around each
// diagnostic in text mode.
//
// A finding is waived in source with a trailing
// "//mdwlint:allow <analyzer> <reason>" comment. When the full analyzer
// set runs, an allow comment that no longer suppresses anything is
// itself reported (analyzer "deadallow"): stale waivers hide real
// findings added later at the same site.
//
// Packages that fail to load — parse errors, real type errors that the
// loader's import stubbing cannot explain — are reported under the
// "loader" pseudo-analyzer and exit 1 like any other finding; a package
// that did not load was not analyzed, and silence would be a false
// "clean".
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mdw/internal/analysis/ctxflow"
	"mdw/internal/analysis/framework"
	"mdw/internal/analysis/iricheck"
	"mdw/internal/analysis/mustparse"
	"mdw/internal/analysis/sparqlcheck"
	"mdw/internal/analysis/syncerr"
)

var all = []*framework.Analyzer{
	sparqlcheck.Analyzer,
	iricheck.Analyzer,
	mustparse.Analyzer,
	ctxflow.Analyzer,
	syncerr.Analyzer,
}

// deadAllowName labels stale-suppression findings.
const deadAllowName = "deadallow"

// jsonDiagnostic is the -json wire shape of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonResult is the -json top-level object.
type jsonResult struct {
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("help-analyzers", false, "print the analyzers and their documentation")
	asJSON := flag.Bool("json", false, "emit the diagnostics as one JSON object on stdout")
	context := flag.Int("c", 0, "print N lines of source context around each diagnostic (text mode)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mdwlint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers: %s\n\n", names(all))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	fullSet := true
	if *only != "" {
		analyzers = nil
		fullSet = false
		for _, want := range strings.Split(*only, ",") {
			want = strings.TrimSpace(want)
			found := false
			for _, a := range all {
				if a.Name == want {
					analyzers = append(analyzers, a)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "mdwlint: unknown analyzer %q (have %s)\n", want, names(all))
				os.Exit(2)
			}
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdwlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint(wd, analyzers, fullSet, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdwlint: %v\n", err)
		os.Exit(2)
	}

	if *asJSON {
		out := jsonResult{Diagnostics: []jsonDiagnostic{}}
		for _, d := range diags {
			out.Diagnostics = append(out.Diagnostics, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "mdwlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
			if *context > 0 {
				printContext(d, *context)
			}
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// lint loads the packages matching patterns in the module enclosing dir
// and runs the analyzers over them. When fullSet is true — every
// analyzer ran — each allow comment that suppressed nothing is reported
// under deadallow; a partial run cannot tell "nothing to suppress" from
// "suppressed analyzer was not invoked".
func lint(dir string, analyzers []*framework.Analyzer, fullSet bool, patterns ...string) ([]framework.Diagnostic, error) {
	loader, err := framework.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	res, err := framework.RunAll(pkgs, analyzers...)
	if err != nil {
		return nil, err
	}
	diags := res.Diagnostics
	if fullSet {
		for _, a := range res.Allows {
			if a.Used || !knownAnalyzer(a.Analyzer) {
				continue
			}
			diags = append(diags, framework.Diagnostic{
				Analyzer: deadAllowName,
				Pos:      a.Pos,
				Message:  fmt.Sprintf("stale //mdwlint:allow %s — it suppresses nothing; remove it so it cannot mask a future finding", a.Analyzer),
			})
		}
	}
	return diags, nil
}

// printContext prints n source lines either side of the diagnostic,
// gutter-numbered, with a marker on the reported line.
func printContext(d framework.Diagnostic, n int) {
	if d.Pos.Filename == "" || d.Pos.Line <= 0 {
		return
	}
	f, err := os.Open(d.Pos.Filename)
	if err != nil {
		return
	}
	defer f.Close()
	first, last := d.Pos.Line-n, d.Pos.Line+n
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for line := 1; sc.Scan(); line++ {
		if line < first {
			continue
		}
		if line > last {
			break
		}
		marker := " "
		if line == d.Pos.Line {
			marker = ">"
		}
		fmt.Printf("  %s %4d | %s\n", marker, line, sc.Text())
	}
	fmt.Println()
}

func knownAnalyzer(name string) bool {
	for _, a := range all {
		if a.Name == name {
			return true
		}
	}
	return false
}

func names(as []*framework.Analyzer) string {
	var ns []string
	for _, a := range as {
		ns = append(ns, a.Name)
	}
	return strings.Join(ns, ", ")
}
