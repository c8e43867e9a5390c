package sparql

import (
	"testing"

	"mdw/internal/rdf"
)

// nested combinator coverage: OPTIONAL inside OPTIONAL, UNION inside
// OPTIONAL, and filters scoped to inner groups.

func TestOptionalInsideOptional(t *testing.T) {
	st := fixtureStore(t, []rdf.Triple{
		rdf.T(rdf.IRI("http://t/a"), rdf.IRI("http://t/p"), rdf.IRI("http://t/b")),
		rdf.T(rdf.IRI("http://t/b"), rdf.IRI("http://t/q"), rdf.IRI("http://t/c")),
		rdf.T(rdf.IRI("http://t/c"), rdf.IRI("http://t/r"), rdf.IRI("http://t/d")),
		rdf.T(rdf.IRI("http://t/x"), rdf.IRI("http://t/p"), rdf.IRI("http://t/y")),
	})
	q := MustParse(`SELECT ?s ?c ?d WHERE {
		?s <http://t/p> ?b .
		OPTIONAL {
			?b <http://t/q> ?c .
			OPTIONAL { ?c <http://t/r> ?d }
		}
	}`)
	res, err := run(q, st.ViewOf("m"), st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Bindings())
	}
	for _, r := range res.Bindings() {
		switch rdf.LocalName(r["s"].Value) {
		case "a":
			if rdf.LocalName(r["c"].Value) != "c" || rdf.LocalName(r["d"].Value) != "d" {
				t.Errorf("a row = %v", r)
			}
		case "x":
			if _, ok := r["c"]; ok {
				t.Errorf("x row should have no ?c: %v", r)
			}
		}
	}
}

func TestUnionInsideOptional(t *testing.T) {
	st := fixtureStore(t, []rdf.Triple{
		rdf.T(rdf.IRI("http://t/a"), rdf.IRI("http://t/p"), rdf.IRI("http://t/b")),
		rdf.T(rdf.IRI("http://t/b"), rdf.IRI("http://t/q1"), rdf.Literal("via q1")),
		rdf.T(rdf.IRI("http://t/b"), rdf.IRI("http://t/q2"), rdf.Literal("via q2")),
		rdf.T(rdf.IRI("http://t/z"), rdf.IRI("http://t/p"), rdf.IRI("http://t/w")),
	})
	q := MustParse(`SELECT ?s ?v WHERE {
		?s <http://t/p> ?b .
		OPTIONAL {
			{ ?b <http://t/q1> ?v } UNION { ?b <http://t/q2> ?v }
		}
	}`)
	res, err := run(q, st.ViewOf("m"), st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	// a matches both union branches (2 rows); z keeps one unbound row.
	if res.Len() != 3 {
		t.Fatalf("rows = %v", res.Bindings())
	}
}

func TestFilterScopedToInnerGroup(t *testing.T) {
	st := fixtureStore(t, []rdf.Triple{
		rdf.T(rdf.IRI("http://t/a"), rdf.IRI("http://t/len"), rdf.Integer(5)),
		rdf.T(rdf.IRI("http://t/b"), rdf.IRI("http://t/len"), rdf.Integer(50)),
	})
	// The filter inside OPTIONAL prunes the optional part only; the outer
	// solution survives.
	q := MustParse(`SELECT ?s ?l WHERE {
		?s <http://t/len> ?x .
		OPTIONAL { ?s <http://t/len> ?l . FILTER (?l > 10) }
	}`)
	res, err := run(q, st.ViewOf("m"), st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Bindings())
	}
	bound := 0
	for _, r := range res.Bindings() {
		if _, ok := r["l"]; ok {
			bound++
		}
	}
	if bound != 1 {
		t.Errorf("bound optional rows = %d, want 1", bound)
	}
}

func TestChainedUnions(t *testing.T) {
	st := fixtureStore(t, []rdf.Triple{
		rdf.T(rdf.IRI("http://t/a"), rdf.IRI("http://t/p1"), rdf.Literal("1")),
		rdf.T(rdf.IRI("http://t/b"), rdf.IRI("http://t/p2"), rdf.Literal("2")),
		rdf.T(rdf.IRI("http://t/c"), rdf.IRI("http://t/p3"), rdf.Literal("3")),
	})
	q := MustParse(`SELECT ?s WHERE {
		{ ?s <http://t/p1> ?v } UNION { ?s <http://t/p2> ?v } UNION { ?s <http://t/p3> ?v }
	}`)
	res, err := run(q, st.ViewOf("m"), st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows = %v", res.Bindings())
	}
}
