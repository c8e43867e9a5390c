package sparql

import (
	"testing"

	"mdw/internal/rdf"
)

func TestConstructBasic(t *testing.T) {
	st, src := fixture()
	// Rewrite the mapping chain as a flattened dt:feeds relation.
	q := MustParse(`PREFIX dt: <` + rdf.DTNS + `>
		CONSTRUCT { ?s dt:feeds ?t }
		WHERE { ?s dt:isMappedTo+ ?t }`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	// 3 transitive pairs: c→p, c→cu, p→cu.
	if len(res.Triples) != 3 {
		t.Fatalf("triples = %v", res.Triples)
	}
	for _, tr := range res.Triples {
		if tr.P.Value != rdf.MDWFeeds {
			t.Errorf("predicate = %s", tr.P)
		}
	}
}

func TestConstructMultiTemplate(t *testing.T) {
	st, src := fixture()
	q := MustParse(`PREFIX dm: <` + rdf.DMNS + `> PREFIX mdw: <` + rdf.MDWNS + `>
		CONSTRUCT {
			?x a mdw:Exported .
			?x mdw:exportName ?n .
		}
		WHERE { ?x dm:hasName ?n }`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) != 6 { // 3 instances × 2 template triples
		t.Fatalf("triples = %d: %v", len(res.Triples), res.Triples)
	}
}

func TestConstructConstantsAndDedup(t *testing.T) {
	st, src := fixture()
	q := MustParse(`PREFIX dm: <` + rdf.DMNS + `> PREFIX mdw: <` + rdf.MDWNS + `>
		CONSTRUCT { mdw:summary mdw:hasItem ?x }
		WHERE { ?x dm:hasName ?n }`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) != 3 {
		t.Fatalf("triples = %v", res.Triples)
	}
}

func TestConstructSkipsLiteralSubjects(t *testing.T) {
	st, src := fixture()
	// ?n binds to literals; using it as subject must silently skip.
	q := MustParse(`PREFIX dm: <` + rdf.DMNS + `> PREFIX mdw: <` + rdf.MDWNS + `>
		CONSTRUCT { ?n mdw:isNameOf ?x }
		WHERE { ?x dm:hasName ?n }`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) != 0 {
		t.Fatalf("triples = %v", res.Triples)
	}
}

func TestConstructVariablePredicate(t *testing.T) {
	st, src := fixture()
	// Copy every statement about customer_id (a poor man's DESCRIBE).
	q := MustParse(`PREFIX inst: <` + rdf.InstNS + `>
		CONSTRUCT { inst:customer_id ?p ?o }
		WHERE { inst:customer_id ?p ?o }`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) != 3 {
		t.Fatalf("triples = %v", res.Triples)
	}
}

func TestConstructParseErrors(t *testing.T) {
	bad := []string{
		`CONSTRUCT { } WHERE { ?s ?p ?o }`,
		`CONSTRUCT { ?s <p>* ?o } WHERE { ?s ?p ?o }`,
		`CONSTRUCT { FILTER (?x > 1) } WHERE { ?s ?p ?o }`,
		`CONSTRUCT ?x WHERE { ?s ?p ?o }`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
	}
}
