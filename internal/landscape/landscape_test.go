package landscape

import (
	"strings"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/staging"
	"mdw/internal/store"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Small())
	b := Generate(Small())
	if len(a.Chains) != len(b.Chains) {
		t.Fatalf("chain counts differ: %d vs %d", len(a.Chains), len(b.Chains))
	}
	for i := range a.Chains {
		if strings.Join(a.Chains[i], "|") != strings.Join(b.Chains[i], "|") {
			t.Fatalf("chain %d differs", i)
		}
	}
	ax, _ := a.Exports[0].Encode()
	bx, _ := b.Exports[0].Encode()
	if ax != bx {
		t.Error("application export differs between runs with same seed")
	}
}

func TestGenerateSeedChangesOutput(t *testing.T) {
	cfg := Small()
	cfg.Seed = 99
	a := Generate(Small())
	b := Generate(cfg)
	ax, _ := a.Exports[0].Encode()
	bx, _ := b.Exports[0].Encode()
	if ax == bx {
		t.Error("different seeds produced identical exports")
	}
}

func TestChainsShape(t *testing.T) {
	l := Generate(Small())
	if len(l.Chains) == 0 {
		t.Fatal("no mapping chains generated")
	}
	for _, chain := range l.Chains {
		// Stages hops = Stages+1 nodes.
		if len(chain) != l.Config.Stages+1 {
			t.Fatalf("chain length = %d, want %d: %v", len(chain), l.Config.Stages+1, chain)
		}
		if !strings.Contains(chain[1], "/inbound/") {
			t.Errorf("second hop not in inbound area: %v", chain)
		}
		if !strings.Contains(chain[len(chain)-1], "/mart/") {
			t.Errorf("last hop not in mart: %v", chain)
		}
	}
	if len(l.MartColumns) != len(l.Chains) {
		t.Errorf("MartColumns = %d, Chains = %d", len(l.MartColumns), len(l.Chains))
	}
}

func TestOntologyExtendedPerApp(t *testing.T) {
	l := Generate(Small())
	if errs := l.Ontology.Validate(); len(errs) != 0 {
		t.Fatalf("generated ontology invalid: %v", errs)
	}
	// Per-application column classes exist and sit under Table_Column.
	found := false
	for _, iri := range l.Ontology.Classes() {
		if strings.Contains(iri, "App0_") && strings.HasSuffix(iri, "_Table_Column") {
			found = true
			supers := l.Ontology.Superclasses(iri)
			hasBase := false
			for _, s := range supers {
				if s == rdf.DMNS+"Table_Column" {
					hasBase = true
				}
			}
			if !hasBase {
				t.Errorf("%s not under Table_Column: %v", iri, supers)
			}
		}
	}
	if !found {
		t.Error("no per-application column class generated")
	}
}

func TestExportsLoadThroughPipeline(t *testing.T) {
	l := Generate(Small())
	st := store.New()
	stats, err := staging.Pipeline{Store: st, Model: "DWH_CURR"}.Run(l.Exports, l.Ontology.Triples())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded == 0 || stats.Derived == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// Every chain's isMappedTo edges must exist in the model.
	for _, chain := range l.Chains {
		for i := 0; i+1 < len(chain); i++ {
			from := pathIRI(chain[i])
			to := pathIRI(chain[i+1])
			if !st.Contains("DWH_CURR", rdf.T(from, rdf.IsMappedTo, to)) {
				t.Fatalf("missing mapping edge %s -> %s", from, to)
			}
		}
	}
	// Mart columns are typed with the DWH view-column class, and via the
	// index they are Attributes.
	mart := pathIRI(l.MartColumns[0])
	if !st.Contains("DWH_CURR", rdf.T(mart, rdf.Type, rdf.IRI(rdf.DMNS+"Dwh_View_Column"))) {
		t.Errorf("mart column lacks Dwh_View_Column type")
	}
	if !st.Contains("DWH_CURR$OWLPRIME", rdf.T(mart, rdf.Type, rdf.IRI(rdf.DMNS+"Attribute"))) {
		t.Errorf("mart column not inferred as Attribute")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	l := Generate(Small())
	for _, e := range l.Exports {
		doc, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := staging.Decode(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		d2, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if doc != d2 {
			t.Errorf("XML round trip not stable for %s", e.Source)
		}
	}
}

func TestFigure3Export(t *testing.T) {
	st := store.New()
	_, err := staging.Pipeline{Store: st, Model: "m"}.Run(
		[]*staging.Export{Figure3Export()},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	paths := Figure3Paths()
	for i := 0; i+1 < len(paths); i++ {
		from := pathIRI(paths[i])
		to := pathIRI(paths[i+1])
		if !st.Contains("m", rdf.T(from, rdf.IsMappedTo, to)) {
			t.Errorf("missing Figure 3 mapping %s -> %s", paths[i], paths[i+1])
		}
	}
	// customer_id is an Application1_View_Column, as in Figure 3.
	cust := pathIRI(paths[3])
	if !st.Contains("m", rdf.T(cust, rdf.Type, rdf.IRI(rdf.DMNS+"Application1_View_Column"))) {
		t.Error("customer_id not typed Application1_View_Column")
	}
}

func TestPaperScaleConfigSanity(t *testing.T) {
	cfg := PaperScale()
	if cfg.SourceApps < 10 || cfg.Stages < 3 {
		t.Error("paper-scale config implausibly small")
	}
}
