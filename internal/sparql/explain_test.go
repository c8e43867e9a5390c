package sparql

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
	"mdw/internal/textindex"
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
// a serial plan. Run with the text index kept over its view, the
// analyzed plan marks a name match the index answered "text index", with
// the counts of the run without it and fewer terms decoded; a name with
// no token, a name so common the index gives up, and a view the index is
// not over keep the plain marker.
func TestExplainPerKeyFilter(t *testing.T) {
	st := store.New()
	st.AddAll("m", names(500))
	src, dict := st.Snapshot("m"), st.Dict()
	tix := textindex.NewManager(textindex.Config{})
	tix.For("m", src, st)
	st.Add("other", rdf.T(rdf.IRI("http://b/x"), rdf.HasName, rdf.Literal("Customer_x")))
	par := ParOptions{MaxWorkers: 2, MorselSize: 8, SerialThreshold: 1}
	for _, c := range []struct {
		filter, want string
		view         *store.View
		indexed      bool
	}{
		{`regex(?t, "customer", "i")`, `FILTER REGEX(?t, "(?i)customer") (pushed down, per key)`, src, true},
		{`?o != <http://b/o0> && regex(?t, "customer", "i")`, `FILTER (?o != <http://b/o0> && REGEX(?t, "(?i)customer")) (pushed down)`, src, false},
		{`regex(?t, "_", "i")`, `FILTER REGEX(?t, "(?i)_") (pushed down, per key)`, src, false},
		{`regex(?t, "a", "i")`, `FILTER REGEX(?t, "(?i)a") (pushed down, per key)`, src, false},
		{`regex(?t, "customer", "i")`, `FILTER REGEX(?t, "(?i)customer") (pushed down, per key)`, st.ViewOf("m", "other"), false},
	} {
		q := MustParse(`SELECT ?o WHERE { ?o <` + rdf.MDWHasName + `> ?t FILTER (` + c.filter + `) }`)
		p := q.PlanOpts(c.view, dict, par)
		if out := p.String(); !strings.Contains(out, c.want+"\n") {
			t.Errorf("plan lacks %q:\n%s", c.want, out)
		}
		_, plain, err := p.Run(context.Background(), RunOptions{Analyze: true})
		if err != nil {
			t.Fatal(err)
		}
		if out := plain.String(); !strings.Contains(out, c.want+" [in=") {
			t.Errorf("analyzed plan lacks %q:\n%s", c.want, out)
		}
		var keys KeyIndex
		if ix := tix.Kept("m", c.view.Version()); ix != nil {
			keys = ix
		}
		_, stats, err := p.Run(context.Background(), RunOptions{Analyze: true, Keys: keys})
		if err != nil {
			t.Fatal(err)
		}
		want := c.want
		if c.indexed {
			want = strings.Replace(want, "per key)", "per key, text index)", 1)
			if stats.TermDecodes >= plain.TermDecodes {
				t.Errorf("%s: %d terms decoded with the text index, %d without", c.filter, stats.TermDecodes, plain.TermDecodes)
			}
		}
		if out := stats.String(); !strings.Contains(out, want+" [in=") {
			t.Errorf("analyzed plan lacks %q:\n%s", want, out)
		}
		if a, b := opRows(stats.Root), opRows(plain.Root); !slices.Equal(a, b) {
			t.Errorf("%s: analyzed counts with the text index %v, without %v", c.filter, a, b)
		}
		if out := q.PlanOpts(c.view, dict, ParOptions{MaxWorkers: 1}).String(); strings.Contains(out, "per key") {
			t.Errorf("serial plan tests a filter per key:\n%s", out)
		}
	}
}

// opRows lists an operator tree's loops and rows, depth first.
func opRows(op *OpStats) []string {
	out := []string{fmt.Sprintf("%s %s: loops=%d rows=%d", op.Op, op.Detail, op.Loops, op.Rows)}
	for _, c := range op.Children {
		out = append(out, opRows(c)...)
	}
	return out
}
