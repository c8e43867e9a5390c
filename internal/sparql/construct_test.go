package sparql

import (
	"fmt"
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

func TestConstructUnboundPredicate(t *testing.T) {
	st, src := fixture()
	// ?p is never bound, or bound only where the OPTIONAL matched (the
	// one column with a length): an instantiation with an unbound
	// predicate is skipped, never emitted with an empty IRI.
	for _, tc := range []struct {
		q    string
		want int
	}{
		{`PREFIX dm: <` + rdf.DMNS + `>
			CONSTRUCT { ?s ?p ?o } WHERE { ?s dm:hasName ?o }`, 0},
		{`PREFIX dm: <` + rdf.DMNS + `> PREFIX dt: <` + rdf.DTNS + `>
			CONSTRUCT { ?s ?p ?o } WHERE { ?s dm:hasName ?o OPTIONAL { ?s dt:isMappedTo ?m . ?s ?p ?m } }`, 2},
	} {
		q := MustParse(tc.q)
		got, err := run(q, src, st.Dict())
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.ExecNaive(src, st.Dict())
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Triples) != tc.want || fmt.Sprint(got.Triples) != fmt.Sprint(want.Triples) {
			t.Errorf("%s:\n got %v\nwant %d: %v", tc.q, got.Triples, tc.want, want.Triples)
		}
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
