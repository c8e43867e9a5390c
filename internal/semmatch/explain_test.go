package semmatch

import (
	"context"
	"testing"
)

// Golden plans for the paper's two listings. The rendering comes from
// the same Plan structure Run executes, so these tests pin down the
// planner's observable decisions: Listing 1 must start from the
// hasName pattern with the regex filter pushed immediately behind it,
// and Listing 2 must start from the constant-class rdf:type pattern.

func TestListing1Plan(t *testing.T) {
	st := fixture()
	req := Request{
		Pattern: `?object rdf:type ?c .
	?c rdfs:label ?class .
	?object dm:hasName ?term`,
		Models:    []string{"DWH_CURR"},
		Rulebases: []string{"OWLPRIME"},
		Aliases:   PaperAliases(),
		Filter:    `regex(?term, "customer", "i")`,
		Select:    []string{"class", "object"},
		GroupBy:   []string{"class", "object"},
	}
	got, err := req.Explain(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	want := `SELECT ?class ?object
  BGP (3 patterns, join order):
    1. ?object dm:hasName ?term  [est 1]
      FILTER REGEX(?term, "(?i)customer") (pushed down)
    2. ?object rdf:type ?c  [est 2]
    3. ?c rdfs:label ?class  [est 1]
GROUP BY ?class ?object
`
	if got != want {
		t.Errorf("Listing 1 plan drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestListing2Plan(t *testing.T) {
	st := fixture()
	req := Request{
		Pattern: `?source_id dt:isMappedTo ?target_id .
	?target_id rdf:type dm:Application1_View_Column .
	?target_id dm:hasName ?target_name`,
		Models:    []string{"DWH_CURR"},
		Rulebases: []string{"OWLPRIME"},
		Aliases:   PaperAliases(),
		Select:    []string{"source_id", "target_id", "target_name"},
	}
	got, err := req.Explain(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	want := `SELECT ?source_id ?target_id ?target_name
  BGP (3 patterns, join order):
    1. ?target_id rdf:type dm:Application1_View_Column  [est 1]
    2. ?source_id dt:isMappedTo ?target_id  [est 1]
    3. ?target_id dm:hasName ?target_name  [est 1]
`
	if got != want {
		t.Errorf("Listing 2 plan drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestExplainErrors(t *testing.T) {
	st := fixture()
	if _, err := (Request{Pattern: "?s ?p ?o"}).Explain(context.Background(), st); err == nil {
		t.Error("no models should error")
	}
	if _, err := (Request{Pattern: "?s ?p ?o", Models: []string{"nope"}}).Explain(context.Background(), st); err == nil {
		t.Error("missing model should error")
	}
}
