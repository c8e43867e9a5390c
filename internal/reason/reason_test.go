package reason

import (
	"fmt"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

func iri(s string) rdf.Term { return rdf.IRI("http://t/" + s) }

func contains(ts []rdf.Triple, want rdf.Triple) bool {
	for _, t := range ts {
		if t == want {
			return true
		}
	}
	return false
}

func TestSubClassTransitivity(t *testing.T) {
	ts, err := Entail([]rdf.Triple{
		rdf.T(iri("Individual"), rdf.SubClassOf, iri("Party")),
		rdf.T(iri("Party"), rdf.SubClassOf, iri("Customer")),
		rdf.T(iri("Customer"), rdf.SubClassOf, iri("Thing")),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []rdf.Triple{
		rdf.T(iri("Individual"), rdf.SubClassOf, iri("Customer")),
		rdf.T(iri("Individual"), rdf.SubClassOf, iri("Thing")),
		rdf.T(iri("Party"), rdf.SubClassOf, iri("Thing")),
	} {
		if !contains(ts, want) {
			t.Errorf("missing %v", want)
		}
	}
}

func TestTypeInheritance(t *testing.T) {
	// The Figure 5 scenario: customer_id is an Application1_View_Column,
	// which is (transitively) an Attribute; search must find it under
	// every ancestor class.
	ts, err := Entail([]rdf.Triple{
		rdf.T(iri("customer_id"), rdf.Type, iri("Application1_View_Column")),
		rdf.T(iri("Application1_View_Column"), rdf.SubClassOf, iri("View_Column")),
		rdf.T(iri("View_Column"), rdf.SubClassOf, iri("Attribute")),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range []string{"View_Column", "Attribute"} {
		want := rdf.T(iri("customer_id"), rdf.Type, iri(cls))
		if !contains(ts, want) {
			t.Errorf("customer_id should be inferred as %s", cls)
		}
	}
}

func TestTypeInheritanceOrderIndependence(t *testing.T) {
	// Schema arriving after facts must still trigger inheritance.
	ts, err := Entail([]rdf.Triple{
		rdf.T(iri("A"), rdf.SubClassOf, iri("B")),
		rdf.T(iri("x"), rdf.Type, iri("A")),
		rdf.T(iri("B"), rdf.SubClassOf, iri("C")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(ts, rdf.T(iri("x"), rdf.Type, iri("C"))) {
		t.Error("x should be a C regardless of triple order")
	}
}

func TestSubPropertyInheritance(t *testing.T) {
	ts, err := Entail([]rdf.Triple{
		rdf.T(iri("hasFirstName"), rdf.SubPropertyOf, iri("hasName")),
		rdf.T(iri("john"), iri("hasFirstName"), rdf.Literal("John")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(ts, rdf.T(iri("john"), iri("hasName"), rdf.Literal("John"))) {
		t.Error("statement should be inherited by super-property")
	}
}

func TestDomainAndRange(t *testing.T) {
	ts, err := Entail([]rdf.Triple{
		rdf.T(iri("hasFirstName"), rdf.Domain, iri("Individual")),
		rdf.T(iri("owns"), rdf.Range, iri("Account")),
		rdf.T(iri("john"), iri("hasFirstName"), rdf.Literal("John")),
		rdf.T(iri("john"), iri("owns"), iri("acct1")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(ts, rdf.T(iri("john"), rdf.Type, iri("Individual"))) {
		t.Error("domain rule failed")
	}
	if !contains(ts, rdf.T(iri("acct1"), rdf.Type, iri("Account"))) {
		t.Error("range rule failed")
	}
	// Range must not type literals.
	ts2, err := Entail([]rdf.Triple{
		rdf.T(iri("p"), rdf.Range, iri("C")),
		rdf.T(iri("x"), iri("p"), rdf.Literal("lit")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if contains(ts2, rdf.T(rdf.Literal("lit"), rdf.Type, iri("C"))) {
		t.Error("range rule typed a literal")
	}
}

func TestSymmetricProperty(t *testing.T) {
	// The paper's example: isRelatedTo is symmetric.
	ts, err := Entail([]rdf.Triple{
		rdf.T(rdf.IRI(rdf.MDWIsRelatedTo), rdf.Type, rdf.IRI(rdf.OWLSymmetricProperty)),
		rdf.T(iri("a"), rdf.IRI(rdf.MDWIsRelatedTo), iri("b")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(ts, rdf.T(iri("b"), rdf.IRI(rdf.MDWIsRelatedTo), iri("a"))) {
		t.Error("symmetric rule failed")
	}
}

func TestSymmetricDeclaredAfterFacts(t *testing.T) {
	ts, err := Entail([]rdf.Triple{
		rdf.T(iri("a"), iri("rel"), iri("b")),
		rdf.T(iri("rel"), rdf.Type, rdf.IRI(rdf.OWLSymmetricProperty)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(ts, rdf.T(iri("b"), iri("rel"), iri("a"))) {
		t.Error("symmetric rule must fire when the declaration arrives late")
	}
}

func TestTransitiveProperty(t *testing.T) {
	ts, err := Entail([]rdf.Triple{
		rdf.T(iri("feeds"), rdf.Type, rdf.IRI(rdf.OWLTransitiveProperty)),
		rdf.T(iri("a"), iri("feeds"), iri("b")),
		rdf.T(iri("b"), iri("feeds"), iri("c")),
		rdf.T(iri("c"), iri("feeds"), iri("d")),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []rdf.Triple{
		rdf.T(iri("a"), iri("feeds"), iri("c")),
		rdf.T(iri("a"), iri("feeds"), iri("d")),
		rdf.T(iri("b"), iri("feeds"), iri("d")),
	} {
		if !contains(ts, want) {
			t.Errorf("missing transitive edge %v", want)
		}
	}
}

func TestInverseOf(t *testing.T) {
	ts, err := Entail([]rdf.Triple{
		rdf.T(iri("feeds"), rdf.IRI(rdf.OWLInverseOf), iri("fedBy")),
		rdf.T(iri("a"), iri("feeds"), iri("b")),
		rdf.T(iri("c"), iri("fedBy"), iri("d")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(ts, rdf.T(iri("b"), iri("fedBy"), iri("a"))) {
		t.Error("forward inverse failed")
	}
	if !contains(ts, rdf.T(iri("d"), iri("feeds"), iri("c"))) {
		t.Error("backward inverse failed")
	}
}

func TestEquivalentClass(t *testing.T) {
	ts, err := Entail([]rdf.Triple{
		rdf.T(iri("Client"), rdf.IRI(rdf.OWLEquivalentClass), iri("Customer")),
		rdf.T(iri("x"), rdf.Type, iri("Client")),
		rdf.T(iri("y"), rdf.Type, iri("Customer")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(ts, rdf.T(iri("x"), rdf.Type, iri("Customer"))) {
		t.Error("equivalentClass →")
	}
	if !contains(ts, rdf.T(iri("y"), rdf.Type, iri("Client"))) {
		t.Error("equivalentClass ←")
	}
}

func TestSameAsClosure(t *testing.T) {
	ts, err := Entail([]rdf.Triple{
		rdf.T(iri("a"), rdf.IRI(rdf.OWLSameAs), iri("b")),
		rdf.T(iri("b"), rdf.IRI(rdf.OWLSameAs), iri("c")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(ts, rdf.T(iri("b"), rdf.IRI(rdf.OWLSameAs), iri("a"))) {
		t.Error("sameAs symmetry failed")
	}
	if !contains(ts, rdf.T(iri("a"), rdf.IRI(rdf.OWLSameAs), iri("c"))) {
		t.Error("sameAs transitivity failed")
	}
}

func TestDerivedTriplesSeparateFromBase(t *testing.T) {
	// Section III.B: derived triples exist only in the index model; the
	// base model must stay untouched.
	st := store.New()
	st.AddAll("DWH_CURR", []rdf.Triple{
		rdf.T(iri("x"), rdf.Type, iri("A")),
		rdf.T(iri("A"), rdf.SubClassOf, iri("B")),
	})
	baseLen := st.Len("DWH_CURR")
	idx, err := Materialize(st, "DWH_CURR")
	if err != nil {
		t.Fatal(err)
	}
	n := st.Len(idx)
	if idx != "DWH_CURR$OWLPRIME" {
		t.Errorf("index model name = %q", idx)
	}
	if n == 0 {
		t.Fatal("no derived triples")
	}
	if st.Len("DWH_CURR") != baseLen {
		t.Error("materialization mutated the base model")
	}
	if !st.Contains(idx, rdf.T(iri("x"), rdf.Type, iri("B"))) {
		t.Error("derived triple missing from index model")
	}
	if st.Contains(idx, rdf.T(iri("x"), rdf.Type, iri("A"))) {
		t.Error("base triple duplicated into index model")
	}
}

func TestMaterializeIdempotent(t *testing.T) {
	st := store.New()
	st.AddAll("m", []rdf.Triple{
		rdf.T(iri("x"), rdf.Type, iri("A")),
		rdf.T(iri("A"), rdf.SubClassOf, iri("B")),
	})
	idx, err := Materialize(st, "m")
	if err != nil {
		t.Fatal(err)
	}
	gen, n := st.Generation(idx), st.Len(idx)
	if _, err := Materialize(st, "m"); err != nil {
		t.Fatal(err)
	}
	if st.Generation(idx) != gen || st.Len(idx) != n {
		t.Errorf("materializing a current index replaced it: generation %d -> %d, %d -> %d triples",
			gen, st.Generation(idx), n, st.Len(idx))
	}
}

func TestMaterializeMissingModel(t *testing.T) {
	if _, err := Materialize(store.New(), "missing"); err == nil {
		t.Error("expected error for missing model")
	}
}

func TestNoSpuriousSchemaDerivations(t *testing.T) {
	// Even with a symmetric property declared, schema triples themselves
	// must not be flipped.
	ts, err := Entail([]rdf.Triple{
		rdf.T(rdf.SubClassOf, rdf.Type, rdf.IRI(rdf.OWLSymmetricProperty)), // adversarial
		rdf.T(iri("A"), rdf.SubClassOf, iri("B")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if contains(ts, rdf.T(iri("B"), rdf.SubClassOf, iri("A"))) {
		t.Error("schema predicate was flipped by the symmetric rule")
	}
}

func TestDiamondHierarchy(t *testing.T) {
	// Multiple inheritance: the paper notes "most instances are members
	// of several classes due to multiple inheritance in the meta-data
	// hierarchies".
	ts, err := Entail([]rdf.Triple{
		rdf.T(iri("x"), rdf.Type, iri("Bottom")),
		rdf.T(iri("Bottom"), rdf.SubClassOf, iri("Left")),
		rdf.T(iri("Bottom"), rdf.SubClassOf, iri("Right")),
		rdf.T(iri("Left"), rdf.SubClassOf, iri("Top")),
		rdf.T(iri("Right"), rdf.SubClassOf, iri("Top")),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range []string{"Left", "Right", "Top"} {
		if !contains(ts, rdf.T(iri("x"), rdf.Type, iri(cls))) {
			t.Errorf("x should be typed %s", cls)
		}
	}
	// Count x's types: exactly Bottom, Left, Right, Top.
	n := 0
	for _, tr := range ts {
		if tr.S == iri("x") && tr.P == rdf.Type {
			n++
		}
	}
	if n != 4 {
		t.Errorf("x has %d types, want 4", n)
	}
}

func TestChainScaling(t *testing.T) {
	// A deep subclass chain entails the full quadratic closure.
	const depth = 30
	var ts []rdf.Triple
	for i := 0; i < depth; i++ {
		ts = append(ts, rdf.T(iri(fmt.Sprintf("C%d", i)), rdf.SubClassOf, iri(fmt.Sprintf("C%d", i+1))))
	}
	out, err := Entail(ts)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, tr := range out {
		if tr.P == rdf.SubClassOf {
			n++
		}
	}
	want := depth * (depth + 1) / 2
	if n != want {
		t.Errorf("closure has %d subClassOf edges, want %d", n, want)
	}
}
