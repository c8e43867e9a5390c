package semmatch

import (
	"context"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/rescache"
	"mdw/internal/sparql"
	"mdw/internal/store"
)

func fixture() *store.Store {
	st := store.New()
	inst := func(s string) rdf.Term { return rdf.IRI(rdf.InstNS + s) }
	dm := func(s string) rdf.Term { return rdf.IRI(rdf.DMNS + s) }
	st.AddAll("DWH_CURR", []rdf.Triple{
		rdf.T(inst("client_information_id"), rdf.IsMappedTo, inst("partner_id")),
		rdf.T(inst("partner_id"), rdf.IsMappedTo, inst("customer_id")),
		rdf.T(inst("customer_id"), rdf.Type, dm("Application1_View_Column")),
		rdf.T(inst("customer_id"), rdf.HasName, rdf.Literal("customer_id")),
		rdf.T(dm("Application1_View_Column"), rdf.SubClassOf, dm("Attribute")),
		rdf.T(dm("Application1_View_Column"), rdf.Label, rdf.Literal("Application1 View Column")),
		rdf.T(dm("Attribute"), rdf.Label, rdf.Literal("Attribute")),
	})
	return st
}

// run executes the request plainly under a background context.
func run(r Request, st *store.Store) (*sparql.Result, error) {
	res, _, err := r.Run(context.Background(), st, sparql.RunOptions{})
	return res, err
}

func TestRequestWithoutRulebaseSeesOnlyFacts(t *testing.T) {
	st := fixture()
	req := Request{
		Pattern: `?x rdf:type dm:Attribute`,
		Models:  []string{"DWH_CURR"},
		Aliases: PaperAliases(),
	}
	res, err := run(req, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("without OWLPRIME rows = %d, want 0 (no inferred types)", res.Len())
	}
}

func TestRequestWithRulebaseSeesInferred(t *testing.T) {
	st := fixture()
	req := Request{
		Pattern:   `?x rdf:type dm:Attribute`,
		Models:    []string{"DWH_CURR"},
		Rulebases: []string{"OWLPRIME"},
		Aliases:   PaperAliases(),
	}
	res, err := run(req, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("with OWLPRIME rows = %d, want 1", res.Len())
	}
	if rdf.LocalName(res.Row(0)["x"].Value) != "customer_id" {
		t.Errorf("x = %v", res.Row(0)["x"])
	}
}

func TestRequestErrors(t *testing.T) {
	st := fixture()
	if _, err := run(Request{Pattern: "?s ?p ?o"}, st); err == nil {
		t.Error("no models should error")
	}
	if _, err := run(Request{Pattern: "?s ?p ?o", Models: []string{"nope"}}, st); err == nil {
		t.Error("missing model should error")
	}
	if _, err := run(Request{Pattern: "?s ?p ?o", Models: []string{"DWH_CURR"}, Rulebases: []string{"RDFS"}}, st); err == nil {
		t.Error("unsupported rulebase should error")
	}
}

// TestListing1 runs the paper's Listing 1 SEM_MATCH call (the search for
// 'customer') nearly verbatim.
func TestListing1(t *testing.T) {
	st := fixture()
	call := `SEM_MATCH(
		{?object rdf:type ?c .
		 ?c rdfs:label ?class .
		 ?object dm:hasName ?term},
		SEM_MODELS('DWH_CURR'),
		SEM_RULEBASES('OWLPRIME'),
		SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'),
		            SEM_ALIAS('owl', 'http://www.w3.org/2002/07/owl#')),
		null)`
	req, err := ParseCall(call)
	if err != nil {
		t.Fatal(err)
	}
	req.Filter = `regex(?term, "customer", "i")`
	req.Select = []string{"class", "object"}
	req.GroupBy = []string{"class", "object"}
	res, err := run(*req, st)
	if err != nil {
		t.Fatal(err)
	}
	// customer_id is an Application1_View_Column and, via OWLPRIME, an
	// Attribute: two (class, object) groups.
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
	classes := map[string]bool{}
	for i := 0; i < res.Len(); i++ {
		classes[res.Row(i)["class"].Value] = true
	}
	if !classes["Application1 View Column"] || !classes["Attribute"] {
		t.Errorf("classes = %v", classes)
	}
}

// TestListing2 runs the paper's Listing 2 lineage call.
func TestListing2(t *testing.T) {
	st := fixture()
	call := `SEM_MATCH(
		{?source_id dt:isMappedTo ?target_id .
		 ?target_id rdf:type dm:Application1_View_Column .
		 ?target_id dm:hasName ?target_name},
		SEM_MODELS('DWH_CURR'),
		SEM_RULEBASES('OWLPRIME'),
		SEM_ALIASES(
			SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'),
			SEM_ALIAS('dt', 'http://www.credit-suisse.com/dwh/mdm/data_transfer#')),
		null)`
	req, err := ParseCall(call)
	if err != nil {
		t.Fatal(err)
	}
	req.Select = []string{"source_id", "target_id", "target_name"}
	res, err := run(*req, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
	r := res.Row(0)
	if rdf.LocalName(r["source_id"].Value) != "partner_id" || r["target_name"].Value != "customer_id" {
		t.Errorf("row = %v", r)
	}
}

func TestParseCallErrors(t *testing.T) {
	bad := []string{
		`SEM_MATCH no parens`,
		`SEM_MATCH(no pattern, SEM_MODELS('m'))`,
		`SEM_MATCH({?s ?p ?o, SEM_MODELS('m'))`, // unbalanced braces
		`SEM_MATCH({?s ?p ?o})`,                 // no models
		`SEM_MATCH({?s ?p ?o}, SEM_MODELS('m'), SEM_ALIASES(SEM_ALIAS('only-one')))`,
	}
	for _, c := range bad {
		if _, err := ParseCall(c); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestParseCallWithoutWrapper(t *testing.T) {
	req, err := ParseCall(`{?s ?p ?o}, SEM_MODELS('A','B')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Models) != 2 || req.Models[0] != "A" || req.Models[1] != "B" {
		t.Errorf("models = %v", req.Models)
	}
}

func TestDistinctProjection(t *testing.T) {
	st := fixture()
	req := Request{
		Pattern:  `?x dt:isMappedTo ?y`,
		Models:   []string{"DWH_CURR"},
		Aliases:  PaperAliases(),
		Select:   []string{"?y"},
		Distinct: true,
	}
	res, err := run(req, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("rows = %d", res.Len())
	}
}

// TestOneCallOneQueryText: a call with several aliases (the paper's own
// Listing 1 has two) must render one SPARQL text however often it is
// rendered, and so occupy one results-cache entry. Aliases live in a
// map; rendered in map order, the same call had as many texts as the map
// had iteration orders, each a separate cache miss.
func TestOneCallOneQueryText(t *testing.T) {
	c := rescache.Enable(0, 0)
	defer rescache.Enable(0, 0)
	st := fixture()
	req := Request{
		Pattern:   `?x rdf:type dm:Attribute . ?x dm:hasName ?n`,
		Models:    []string{"DWH_CURR"},
		Rulebases: []string{"OWLPRIME"},
		Aliases: map[string]string{
			"dm":   rdf.DMNS,
			"inst": rdf.InstNS,
			"dt":   "http://www.credit-suisse.com/dwh/mdm/data_transfer#",
		},
	}
	first := req.QueryText()
	for i := 0; i < 100; i++ {
		if got := req.QueryText(); got != first {
			t.Fatalf("rendering %d differs:\n%s\nvs\n%s", i, got, first)
		}
		res, err := run(req, st)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("rows = %d, want 1", res.Len())
		}
	}
	if n := c.Len(); n != 1 {
		t.Errorf("results cache holds %d entries after 100 executions of one call, want 1", n)
	}
}
