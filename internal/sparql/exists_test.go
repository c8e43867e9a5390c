package sparql

import (
	"testing"

	"mdw/internal/rdf"
)

func TestFilterNotExists(t *testing.T) {
	st, src := fixture()
	// Terminal mappings: targets with no outgoing isMappedTo edge.
	q := MustParse(`PREFIX dt: <` + rdf.DTNS + `>
		SELECT ?t WHERE {
			?s dt:isMappedTo ?t .
			FILTER NOT EXISTS { ?t dt:isMappedTo ?next }
		}`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || rdf.LocalName(res.Row(0)["t"].Value) != "customer_id" {
		t.Fatalf("rows = %v", res.Bindings())
	}
}

func TestFilterExists(t *testing.T) {
	st, src := fixture()
	// Items that both have a name and participate in a mapping.
	q := MustParse(`PREFIX dm: <` + rdf.DMNS + `> PREFIX dt: <` + rdf.DTNS + `>
		SELECT ?x WHERE {
			?x dm:hasName ?n .
			FILTER EXISTS { ?x dt:isMappedTo ?y }
		}`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	// client_information_id and partner_id map onward; customer_id does
	// not.
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Bindings())
	}
}

func TestNotExistsUsesOuterBindings(t *testing.T) {
	st, src := fixture()
	// NOT EXISTS with a constant that never matches keeps everything.
	q := MustParse(`PREFIX dm: <` + rdf.DMNS + `>
		SELECT ?x WHERE {
			?x dm:hasName ?n .
			FILTER NOT EXISTS { ?x dm:hasName "no_such_name" }
		}`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows = %d", res.Len())
	}
	// And with a matching constant it removes exactly that binding.
	q = MustParse(`PREFIX dm: <` + rdf.DMNS + `>
		SELECT ?x WHERE {
			?x dm:hasName ?n .
			FILTER NOT EXISTS { ?x dm:hasName "partner_id" }
		}`)
	res, err = run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Bindings())
	}
}

func TestExistsParseErrors(t *testing.T) {
	bad := []string{
		`SELECT ?x WHERE { ?x <p> ?y . FILTER NOT { ?x <p> ?z } }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER EXISTS ?z }`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}
