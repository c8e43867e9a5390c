package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mdw/internal/dbpedia"
	"mdw/internal/landscape"
	"mdw/internal/lineage"
	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/search"
	"mdw/internal/staging"
)

func buildWarehouse(t *testing.T) *Warehouse {
	t.Helper()
	w := New("")
	if _, err := w.LoadOntology(ontology.DWH()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.LoadExports([]*staging.Export{landscape.Figure3Export()}); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDefaultModelName(t *testing.T) {
	w := New("")
	if w.Model() != "DWH_CURR" {
		t.Errorf("model = %q", w.Model())
	}
	if New("other").Model() != "other" {
		t.Error("explicit model name ignored")
	}
}

func TestLoadAndStats(t *testing.T) {
	w := buildWarehouse(t)
	s := w.Stats()
	if s.Triples == 0 || s.Nodes == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if _, err := w.Reindex(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Derived == 0 {
		t.Error("no derived triples after reindex")
	}
}

func TestLoadOntologyRejectsInvalid(t *testing.T) {
	w := New("")
	o := ontology.New("bad")
	o.AddClass("http://x/A", "A", "http://x/B")
	o.AddClass("http://x/B", "B", "http://x/A")
	if _, err := w.LoadOntology(o); err == nil {
		t.Error("cyclic ontology accepted")
	}
}

func TestEndToEndSearch(t *testing.T) {
	w := buildWarehouse(t)
	res, err := w.Search("customer", search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances == 0 {
		t.Fatal("no search hits")
	}
}

func TestEndToEndLineage(t *testing.T) {
	w := buildWarehouse(t)
	paths := landscape.Figure3Paths()
	item := staging.InstanceIRI(strings.Split(paths[3], "/")...)
	g, err := w.Lineage(item, lineage.Backward, lineage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 4 {
		t.Errorf("lineage nodes = %d", len(g.Nodes))
	}
	srcs, err := w.LineageService().Sources(item, lineage.Options{})
	if err != nil || len(srcs) != 1 {
		t.Errorf("sources = %v, %v", srcs, err)
	}
	origin := staging.InstanceIRI(strings.Split(paths[0], "/")...)
	impact, err := w.LineageService().Impact(origin, lineage.Options{})
	if err != nil || len(impact) != 3 {
		t.Errorf("impact = %v, %v", impact, err)
	}
	if w.LineageService() == nil {
		t.Error("LineageService nil")
	}
}

func TestQueryWithAndWithoutIndex(t *testing.T) {
	w := buildWarehouse(t)
	q := `PREFIX dm: <` + rdf.DMNS + `> SELECT ?x WHERE { ?x a dm:Attribute }`
	ctx := context.Background()
	withIdx, err := w.Query(ctx, q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	factsOnly, err := w.Query(ctx, q, QueryOptions{FactsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if withIdx.Result.Len() == 0 {
		t.Error("indexed query found nothing")
	}
	if factsOnly.Result.Len() != 0 {
		t.Errorf("facts-only query saw %d inferred rows", factsOnly.Result.Len())
	}
	if _, err := w.Query(ctx, "NOT SPARQL", QueryOptions{}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("bad query: err = %v, want ErrBadQuery", err)
	}
	if _, err := w.Query(ctx, "NOT SPARQL", QueryOptions{FactsOnly: true}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("bad facts query: err = %v, want ErrBadQuery", err)
	}
}

func TestSemMatchListing(t *testing.T) {
	w := buildWarehouse(t)
	resp, err := w.SemMatch(context.Background(), `SEM_MATCH(
		{?object rdf:type dm:Application1_View_Column .
		 ?object dm:hasName ?term},
		SEM_MODELS('DWH_CURR'),
		SEM_RULEBASES('OWLPRIME'),
		SEM_ALIASES(SEM_ALIAS('dm', '`+rdf.DMNS+`')),
		null)`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res := resp.Result; res.Len() != 1 || res.Row(0)["term"].Value != "customer_id" {
		t.Errorf("%d rows, want 1 of term customer_id", res.Len())
	}
}

func TestSnapshotAndHistory(t *testing.T) {
	w := buildWarehouse(t)
	v1, err := w.Snapshot("2009-R1", time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	w.LoadTriples([]rdf.Triple{
		rdf.T(rdf.IRI(rdf.InstNS+"new_item"), rdf.Type, rdf.IRI(rdf.DMNS+"Table")),
	})
	v2, err := w.Snapshot("2009-R2", time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Triples != v1.Triples+1 {
		t.Errorf("v2 = %d triples, v1 = %d", v2.Triples, v1.Triples)
	}
	d, err := w.History().DiffVersions(1, 2)
	if err != nil || len(d.Added) != 1 {
		t.Errorf("diff = %+v, %v", d, err)
	}
	if w.Stats().Versions != 2 {
		t.Error("version count wrong")
	}
}

func TestIntegrateDBpediaEnablesSemanticSearch(t *testing.T) {
	w := buildWarehouse(t)
	if w.Thesaurus() != nil {
		t.Error("thesaurus should be nil before integration")
	}
	n := w.IntegrateDBpedia(dbpedia.Banking())
	if n == 0 {
		t.Fatal("nothing integrated")
	}
	if w.Thesaurus() == nil {
		t.Fatal("thesaurus missing after integration")
	}
	res, err := w.Search("client", search.Options{Semantic: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Expanded) < 2 {
		t.Errorf("expanded = %v", res.Expanded)
	}
}

func TestCensusAndValidate(t *testing.T) {
	w := buildWarehouse(t)
	cs := w.Census()
	if cs.Nodes[0] < 0 || cs.Total == 0 {
		t.Error("census empty")
	}
	// The curated fixture should produce no untyped instances.
	for _, issue := range w.Validate() {
		if issue.Code == "untyped-instance" {
			t.Errorf("unexpected issue: %v", issue)
		}
	}
}

func TestLoadInvalidatesIndex(t *testing.T) {
	w := buildWarehouse(t)
	if _, err := w.Reindex(); err != nil {
		t.Fatal(err)
	}
	// A new subclass plus instance loaded AFTER indexing must still be
	// visible to Query (the facade drops the stale index).
	w.LoadTriples([]rdf.Triple{
		rdf.T(rdf.IRI(rdf.DMNS+"Fresh"), rdf.SubClassOf, rdf.IRI(rdf.DMNS+"Attribute")),
		rdf.T(rdf.IRI(rdf.InstNS+"fresh1"), rdf.Type, rdf.IRI(rdf.DMNS+"Fresh")),
	})
	res, err := w.Query(context.Background(), `PREFIX dm: <`+rdf.DMNS+`> PREFIX inst: <`+rdf.InstNS+`>
		ASK { inst:fresh1 a dm:Attribute }`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Result.Ask {
		t.Error("stale index served after load")
	}
}

// Every service that reads the OWLPRIME view must see a load's inherited
// types on its own first call after the load — not only after a search or
// a query happened to bring the index up to date (SEM_MATCH, lineage and
// audit used to derive a missing index but keep answering from a stale
// one).
func TestLoadVisibleToEveryIndexedService(t *testing.T) {
	dm := func(s string) rdf.Term { return rdf.IRI(rdf.DMNS + s) }
	item := staging.InstanceIRI("application1", "dwhdb", "mart", "v_customer", "customer_id")
	app := staging.InstanceIRI("application1")
	roleMatch := `SEM_MATCH({?r rdf:type dm:Role}, SEM_MODELS('DWH_CURR'), SEM_RULEBASES('OWLPRIME'),
		SEM_ALIASES(SEM_ALIAS('dm', '` + rdf.DMNS + `')), null)`

	services := map[string]func(t *testing.T, w *Warehouse) bool{
		"semmatch": func(t *testing.T, w *Warehouse) bool {
			res, err := w.SemMatch(context.Background(), roleMatch, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < res.Result.Len(); i++ {
				if res.Result.Row(i)["r"] == rdf.IRI(rdf.InstNS+"auditor") {
					return true // typed Support, a Role only by inheritance
				}
			}
			return false
		},
		"lineage": func(t *testing.T, w *Warehouse) bool {
			g, err := w.Lineage(item, lineage.Backward, lineage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			n := g.Nodes[rdf.IRI(rdf.InstNS+"feed_col")]
			if n == nil {
				return false
			}
			for _, c := range n.Classes {
				if c == rdf.DMNS+"Attribute" {
					return true // typed Application1_View_Column only
				}
			}
			return false
		},
		"audit": func(t *testing.T, w *Warehouse) bool {
			rep, err := w.Audit(item, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range rep.Grants {
				if g.User == rdf.IRI(rdf.InstNS+"eve") {
					return true // found through auditor's inherited type Role
				}
			}
			return false
		},
	}
	for name, sees := range services {
		t.Run(name, func(t *testing.T) {
			w := buildWarehouse(t)
			if sees(t, w) {
				t.Fatal("the load's facts are visible before the load")
			}
			w.LoadTriples([]rdf.Triple{
				rdf.T(rdf.IRI(rdf.InstNS+"auditor"), rdf.Type, dm("Support")),
				rdf.T(rdf.IRI(rdf.InstNS+"auditor"), rdf.IRI(rdf.MDWPartOf), app),
				rdf.T(rdf.IRI(rdf.InstNS+"eve"), rdf.IRI(rdf.MDWHasRole), rdf.IRI(rdf.InstNS+"auditor")),
				rdf.T(rdf.IRI(rdf.InstNS+"feed_col"), rdf.Type, dm("Application1_View_Column")),
				rdf.T(rdf.IRI(rdf.InstNS+"feed_col"), rdf.IsMappedTo, item),
			})
			if !sees(t, w) {
				t.Error("first call after the load answered from the stale index")
			}
			if !w.Stats().IndexCurrent {
				t.Error("index not current after the call")
			}
		})
	}
}

func TestWarehouseCloneModel(t *testing.T) {
	w := buildWarehouse(t)
	n, err := w.CloneModel("", "SANDBOX")
	if err != nil {
		t.Fatal(err)
	}
	if n != w.Stats().Triples {
		t.Errorf("clone has %d triples, base has %d", n, w.Stats().Triples)
	}
	// Fresh generation: clone and source must never alias.
	if w.Store().Generation("SANDBOX") == w.Store().Generation(w.Model()) {
		t.Error("clone generation aliases the base model")
	}
	// Duplicate destination and unknown source are errors.
	if _, err := w.CloneModel("", "SANDBOX"); err == nil {
		t.Error("duplicate dst accepted")
	}
	if _, err := w.CloneModel("no-such-model", "OTHER"); err == nil {
		t.Error("unknown src accepted")
	}
	// Names with '$' belong to the warehouse: a clone into the meta model
	// would be dropped by the next Snapshot, one into the next release's
	// name would make that Snapshot fail.
	for _, dst := range []string{"MDW$META", "DWH_CURR$HIST0001", "SANDBOX$OWLPRIME"} {
		if _, err := w.CloneModel("", dst); !errors.Is(err, ErrBadQuery) {
			t.Errorf("clone into %s: err = %v, want ErrBadQuery", dst, err)
		}
		if w.Store().HasModel(dst) {
			t.Errorf("refused clone left a model %s behind", dst)
		}
	}
	if _, err := w.Snapshot("R1", time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Errorf("snapshot after the refused clones: %v", err)
	}
	// The clone diverges independently of the base.
	w.Store().Add("SANDBOX", rdf.T(rdf.IRI("http://x/s"), rdf.IRI(rdf.MDWHasName), rdf.Literal("only-in-clone")))
	if w.Store().Len("SANDBOX") != n+1 || w.Stats().Triples != n {
		t.Errorf("clone mutation leaked: clone=%d base=%d", w.Store().Len("SANDBOX"), w.Stats().Triples)
	}
}
