package sparql

import (
	"context"
	"strings"
	"testing"

	"mdw/internal/rdf"
)

func TestExplainJoinOrder(t *testing.T) {
	q := MustParse(`PREFIX dm: <` + rdf.DMNS + `> PREFIX dt: <` + rdf.DTNS + `> PREFIX inst: <` + rdf.InstNS + `>
		SELECT ?name WHERE {
			?x dt:isMappedTo* ?y .
			?y dm:hasName ?name .
			inst:customer_id dm:hasName ?cn .
		}`)
	out := q.Explain()
	// The constant-subject pattern must be ordered first, the closure
	// path last.
	first := strings.Index(out, "inst:customer_id")
	path := strings.Index(out, "dt:isMappedTo*")
	middle := strings.Index(out, "?y dm:hasName ?name")
	if first < 0 || path < 0 || middle < 0 {
		t.Fatalf("explain output incomplete:\n%s", out)
	}
	if !(first < middle && middle < path) {
		t.Errorf("join order wrong:\n%s", out)
	}
	if !strings.Contains(out, "BGP (3 patterns, join order):") {
		t.Errorf("missing BGP header:\n%s", out)
	}
}

func TestExplainStructures(t *testing.T) {
	q := MustParse(`SELECT DISTINCT ?x (COUNT(?y) AS ?n) WHERE {
		{ ?x <http://t/a> ?y } UNION { ?x <http://t/b> ?y }
		OPTIONAL { ?x <http://t/c> ?z }
		FILTER (?x != ?y)
		FILTER NOT EXISTS { ?x <http://t/d> ?w }
	} GROUP BY ?x ORDER BY DESC(?n) LIMIT 5 OFFSET 2`)
	out := q.Explain()
	for _, want := range []string{
		"SELECT DISTINCT ?x (COUNT(...) AS ?n)",
		"UNION left:", "UNION right:",
		"OPTIONAL (left join):",
		// ?x and ?y are certain once the UNION closes (both branches
		// bind them), so both constraints are pushed ahead of OPTIONAL.
		"FILTER ?x != ?y (pushed down)",
		"FILTER NOT EXISTS (pushed down, per-solution subquery):",
		"GROUP BY ?x",
		"ORDER BY DESC(?n)",
		"LIMIT 5",
		"OFFSET 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestExplainAskAndConstruct(t *testing.T) {
	ask := MustParse(`ASK { ?s ?p ?o }`)
	if !strings.Contains(ask.Explain(), "ASK") {
		t.Error("ASK header missing")
	}
	con := MustParse(`CONSTRUCT { ?s <http://t/p> ?o } WHERE { ?s ?p ?o }`)
	if !strings.Contains(con.Explain(), "CONSTRUCT (1 template triples)") {
		t.Errorf("CONSTRUCT header missing:\n%s", con.Explain())
	}
}

func TestExplainPathSyntax(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE {
		?x (^<http://t/a>/<http://t/b>|<http://t/c>+) ?y .
		?y <http://t/d>? ?z .
	}`)
	out := q.Explain()
	if !strings.Contains(out, "(^<http://t/a>/<http://t/b>|<http://t/c>+)") {
		t.Errorf("composite path rendering wrong:\n%s", out)
	}
	if !strings.Contains(out, "<http://t/d>?") {
		t.Errorf("optional path rendering wrong:\n%s", out)
	}
}

// TestExplainPerKeyFilter: a morsel plan marks a filter whose one variable
// is the driving pattern's walked key (here the object, ?t) as tested per
// key, in the plan and in the analyzed plan; a filter that also reads the
// pattern's other variable stays per triple, and so does every filter of
// a serial plan.
func TestExplainPerKeyFilter(t *testing.T) {
	src, dict := namesFixture(500)
	par := ParOptions{MaxWorkers: 2, MorselSize: 8, SerialThreshold: 1}
	for _, c := range []struct {
		filter, want string
	}{
		{`regex(?t, "customer", "i")`, `FILTER REGEX(?t, "(?i)customer") (pushed down, per key)`},
		{`?o != <http://b/o0> && regex(?t, "customer", "i")`, `FILTER (?o != <http://b/o0> && REGEX(?t, "(?i)customer")) (pushed down)`},
	} {
		q := MustParse(`SELECT ?o WHERE { ?o <` + rdf.MDWHasName + `> ?t FILTER (` + c.filter + `) }`)
		p := q.PlanOpts(src, dict, par)
		if out := p.String(); !strings.Contains(out, c.want+"\n") {
			t.Errorf("plan lacks %q:\n%s", c.want, out)
		}
		_, stats, err := p.Run(context.Background(), RunOptions{Analyze: true})
		if err != nil {
			t.Fatal(err)
		}
		if out := stats.String(); !strings.Contains(out, c.want+" [in=") {
			t.Errorf("analyzed plan lacks %q:\n%s", c.want, out)
		}
		if out := q.PlanOpts(src, dict, ParOptions{MaxWorkers: 1}).String(); strings.Contains(out, "per key") {
			t.Errorf("serial plan tests a filter per key:\n%s", out)
		}
	}
}
