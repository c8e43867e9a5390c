package sparql

import (
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

func TestVariablePredicate(t *testing.T) {
	st, src := fixture()
	q := MustParse(`PREFIX inst: <` + rdf.InstNS + `>
		SELECT ?p ?o WHERE { inst:customer_id ?p ?o }`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	// customer_id has: rdf:type, hasName, length = 3 statements.
	if res.Len() != 3 {
		t.Fatalf("rows = %d: %v", res.Len(), res.Bindings())
	}
}

func TestFullWildcardPattern(t *testing.T) {
	st, src := fixture()
	q := MustParse(`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Row(0)["n"].Value != "13" {
		t.Fatalf("n = %v, want 13 (fixture size)", res.Row(0)["n"])
	}
}

func TestAskWildcard(t *testing.T) {
	st, src := fixture()
	q := MustParse(`ASK { ?s ?p ?o }`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ask {
		t.Error("ASK over non-empty graph should be true")
	}
}

func TestVariablePredicateJoin(t *testing.T) {
	st, src := fixture()
	// Which predicates link two named nodes?
	q := MustParse(`PREFIX inst: <` + rdf.InstNS + `>
		SELECT ?p WHERE { inst:partner_id ?p inst:customer_id }`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Row(0)["p"].Value != rdf.MDWIsMappedTo {
		t.Fatalf("rows = %v", res.Bindings())
	}
}

func TestVariablePredicateBoundByJoin(t *testing.T) {
	st, src := fixture()
	// ?p is bound by the first pattern and reused as a predicate in the
	// second: find pairs connected by the SAME predicate.
	q := MustParse(`PREFIX inst: <` + rdf.InstNS + `>
		SELECT ?b WHERE {
			inst:client_information_id ?p inst:partner_id .
			inst:partner_id ?p ?b .
		}`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || rdf.LocalName(res.Row(0)["b"].Value) != "customer_id" {
		t.Fatalf("rows = %v", res.Bindings())
	}
}

func TestSharedSubjectPredicateVariable(t *testing.T) {
	st := fixtureStore(t, []rdf.Triple{
		rdf.T(rdf.IRI("http://t/x"), rdf.IRI("http://t/x"), rdf.IRI("http://t/y")),
		rdf.T(rdf.IRI("http://t/a"), rdf.IRI("http://t/b"), rdf.IRI("http://t/c")),
	})
	q := MustParse(`SELECT ?s WHERE { ?s ?s ?o }`)
	res, err := run(q, st.ViewOf("m"), st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || rdf.LocalName(res.Row(0)["s"].Value) != "x" {
		t.Fatalf("rows = %v", res.Bindings())
	}
}

func TestVariablePredicateRejectsPathOperators(t *testing.T) {
	for _, q := range []string{
		`SELECT ?s WHERE { ?s ?p* ?o }`,
		`SELECT ?s WHERE { ?s ?p/?q ?o }`,
		`SELECT ?s WHERE { ?s ?p|<http://x> ?o }`,
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
	}
}

// fixtureStore builds a one-model store for ad-hoc tests.
func fixtureStore(t *testing.T, ts []rdf.Triple) *store.Store {
	t.Helper()
	st := store.New()
	st.AddAll("m", ts)
	return st
}
