package dbpedia

import (
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

func TestBankingExtractShape(t *testing.T) {
	ts := Banking()
	if len(ts) == 0 {
		t.Fatal("empty extract")
	}
	redirects, disamb, labels := 0, 0, 0
	for _, tr := range ts {
		switch tr.P.Value {
		case Redirects:
			redirects++
		case Disambiguates:
			disamb++
		case rdf.RDFSLabel:
			labels++
		default:
			t.Errorf("unexpected predicate %s", tr.P)
		}
	}
	if redirects == 0 || disamb == 0 || labels == 0 {
		t.Errorf("redirects=%d disamb=%d labels=%d", redirects, disamb, labels)
	}
}

func TestSynonymClosure(t *testing.T) {
	th := FromTriples(Banking())
	// client redirects to customer; patron redirects to customer; so
	// client and patron are synonyms of each other too.
	syns := th.Synonyms("client")
	want := map[string]bool{"customer": false, "patron": false, "account holder": false}
	for _, s := range syns {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for w, found := range want {
		if !found {
			t.Errorf("missing synonym %q of client (got %v)", w, syns)
		}
	}
	// Symmetry.
	found := false
	for _, s := range th.Synonyms("customer") {
		if s == "client" {
			found = true
		}
	}
	if !found {
		t.Error("synonymy not symmetric")
	}
	// No self-loop.
	for _, s := range th.Synonyms("customer") {
		if s == "customer" {
			t.Error("term is its own synonym")
		}
	}
}

func TestHomonyms(t *testing.T) {
	th := FromTriples(Banking())
	homs := th.Homonyms("interest")
	if len(homs) != 2 {
		t.Errorf("Homonyms(interest) = %v", homs)
	}
	// Reverse direction also linked.
	if len(th.Homonyms("interest rate")) == 0 {
		t.Error("homonym reverse link missing")
	}
}

func TestExpand(t *testing.T) {
	th := FromTriples(Banking())
	exp := th.Expand("Customer")
	if exp[0] != "customer" {
		t.Errorf("Expand first element = %q", exp[0])
	}
	if len(exp) < 3 {
		t.Errorf("Expand = %v", exp)
	}
	// Unknown terms expand to themselves only.
	if got := th.Expand("zzz"); len(got) != 1 || got[0] != "zzz" {
		t.Errorf("Expand(zzz) = %v", got)
	}
}

func TestIntegrate(t *testing.T) {
	st := store.New()
	n := Integrate(st, "aux", Banking())
	if n == 0 {
		t.Fatal("nothing integrated")
	}
	// Derived synonym edges exist in the model.
	synEdges := st.CountPattern("aux", rdf.Term{}, rdf.IRI(rdf.MDWSynonymOf), rdf.Term{})
	if synEdges == 0 {
		t.Error("no synonymOf edges derived")
	}
	homEdges := st.CountPattern("aux", rdf.Term{}, rdf.IRI(rdf.MDWHomonymOf), rdf.Term{})
	if homEdges == 0 {
		t.Error("no homonymOf edges derived")
	}
	// Integration is idempotent in triple count terms.
	if again := Integrate(st, "aux", Banking()); again != 0 {
		t.Errorf("second Integrate added %d triples", again)
	}
}

// TestIntegrateWritesTwice: the extract and the derived edges reach the
// store as one write each, so a write-ahead log holds two records.
func TestIntegrateWritesTwice(t *testing.T) {
	st := store.New()
	var adds []store.Mutation
	st.SetCommitHook(func(m store.Mutation) {
		if m.Op == store.OpAdd {
			adds = append(adds, m)
		}
	})
	Integrate(st, "aux", Banking())
	if len(adds) != 2 {
		t.Fatalf("Integrate committed %d adds, want 2", len(adds))
	}
	syn, hom := st.Dict().Intern(rdf.IRI(rdf.MDWSynonymOf)), st.Dict().Intern(rdf.IRI(rdf.MDWHomonymOf))
	for _, tr := range adds[1].Triples {
		if tr.P != syn && tr.P != hom {
			t.Fatalf("the second add holds %v, not a synonym or homonym edge", tr)
		}
	}
	if n := st.CountPattern("aux", rdf.Term{}, rdf.IRI(rdf.MDWSynonymOf), rdf.Term{}) + st.CountPattern("aux", rdf.Term{}, rdf.IRI(rdf.MDWHomonymOf), rdf.Term{}); n != len(adds[1].Triples) {
		t.Errorf("the model holds %d edges, the second add %d", n, len(adds[1].Triples))
	}
}

func TestNormalization(t *testing.T) {
	th := FromTriples(Banking())
	a := th.Synonyms("ACCOUNT_holder")
	if len(a) == 0 {
		t.Error("case/underscore normalization failed")
	}
}
