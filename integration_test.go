package mdw

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mdw/internal/core"
	"mdw/internal/durable"
	"mdw/internal/impact"
	"mdw/internal/landscape"
	"mdw/internal/lineage"
	"mdw/internal/metamodel"
	"mdw/internal/rdf"
	"mdw/internal/relstore"
	"mdw/internal/search"
	"mdw/internal/staging"
	"mdw/internal/store"
)

// buildSmall loads a small landscape into a fresh warehouse.
func buildSmall(t *testing.T) (*core.Warehouse, *landscape.Landscape) {
	t.Helper()
	l := landscape.Generate(landscape.Small())
	w := core.New("")
	if _, err := w.LoadOntology(l.Ontology); err != nil {
		t.Fatal(err)
	}
	if _, err := w.LoadExports(l.Exports); err != nil {
		t.Fatal(err)
	}
	w.LoadTriples(l.ExtraTriples())
	return w, l
}

// TestEveryChainIsTraceable verifies the generator's ground truth against
// the lineage service: every generated mapping chain must be recoverable
// by backward lineage from its mart column.
func TestEveryChainIsTraceable(t *testing.T) {
	w, l := buildSmall(t)
	svc := w.LineageService()
	for _, chain := range l.Chains {
		target := staging.InstanceIRI(strings.Split(chain[len(chain)-1], "/")...)
		g, err := svc.Trace(target, lineage.Backward, lineage.Options{})
		if err != nil {
			t.Fatalf("trace %v: %v", chain, err)
		}
		for _, hop := range chain {
			node := staging.InstanceIRI(strings.Split(hop, "/")...)
			if _, ok := g.Nodes[node]; !ok {
				t.Fatalf("chain hop %s missing from lineage of %s", hop, chain[len(chain)-1])
			}
		}
		// And the origin is reported as a source.
		srcs, err := svc.Sources(target, lineage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		origin := staging.InstanceIRI(strings.Split(chain[0], "/")...)
		found := false
		for _, s := range srcs {
			if s == origin {
				found = true
			}
		}
		if !found {
			t.Fatalf("origin %s not among sources %v", chain[0], srcs)
		}
	}
}

// TestSearchSupersetOfRelationalLike: the graph search (with inheritance
// and concepts) must find at least everything a flat LIKE over column
// names finds.
func TestSearchSupersetOfRelationalLike(t *testing.T) {
	w, l := buildSmall(t)
	c, err := relstore.NewTextbook()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadExports(l.Exports); err != nil {
		t.Fatal(err)
	}
	for _, term := range []string{"customer", "account", "risk", "balance"} {
		rows, err := c.SearchColumns(term)
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.Search(term, search.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Instances < len(rows) {
			t.Errorf("term %q: graph found %d, relational LIKE found %d", term, res.Instances, len(rows))
		}
	}
}

// TestCensusConsistency: the Table I census must account for every triple
// exactly once and every node exactly once.
func TestCensusConsistency(t *testing.T) {
	w, _ := buildSmall(t)
	cs := w.Census()
	if cs.Total != w.Store().Len(w.Model()) {
		t.Errorf("census total %d != model size %d", cs.Total, w.Store().Len(w.Model()))
	}
	cells := 0
	for _, n := range cs.Cells {
		cells += n
	}
	if cells != cs.Total {
		t.Errorf("cell sum %d != total %d", cells, cs.Total)
	}
	catSum := 0
	for _, n := range cs.Edges {
		catSum += n
	}
	if catSum != cs.Total {
		t.Errorf("category sum %d != total %d", catSum, cs.Total)
	}
}

// TestIndexedQueriesMatchOntologyClosure: for every mart column, the set
// of classes reported by the entailment index equals the ontology's
// superclass closure of its direct class.
func TestIndexedQueriesMatchOntologyClosure(t *testing.T) {
	w, l := buildSmall(t)
	if _, err := w.Reindex(); err != nil {
		t.Fatal(err)
	}
	st := w.Store()
	idxView := st.ViewOf(w.Model(), w.Model()+"$OWLPRIME")
	dict := st.Dict()
	typeID, _ := dict.Lookup(rdf.Type)

	for _, mc := range l.MartColumns[:5] {
		node := staging.InstanceIRI(strings.Split(mc, "/")...)
		id, ok := dict.Lookup(node)
		if !ok {
			t.Fatalf("mart column %s not in dictionary", mc)
		}
		got := map[string]bool{}
		for _, cls := range idxView.Objects(id, typeID) {
			iri := dict.Term(cls).Value
			if strings.HasPrefix(iri, rdf.DMNS) {
				got[iri] = true
			}
		}
		direct := rdf.DMNS + "Dwh_View_Column"
		want := map[string]bool{direct: true}
		for _, s := range l.Ontology.Superclasses(direct) {
			want[s] = true
		}
		for iri := range want {
			if !got[iri] {
				t.Errorf("%s: missing inferred class %s", mc, rdf.LocalName(iri))
			}
		}
		for iri := range got {
			if !want[iri] {
				t.Errorf("%s: unexpected class %s", mc, rdf.LocalName(iri))
			}
		}
	}
}

// TestWarehouseDumpPreservesBehaviour: the data directory is the
// warehouse's one on-disk form, and a close/reopen cycle through it must
// preserve search, lineage and release history exactly — for the server's
// read-write open and for the read-only open of the offline commands.
func TestWarehouseDumpPreservesBehaviour(t *testing.T) {
	opts := durable.Options{Dir: t.TempDir(), Fsync: durable.FsyncNone}
	w, mgr, err := core.OpenDurable("", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Seed(w, "", "small"); err != nil {
		t.Fatal(err)
	}
	l := landscape.Generate(landscape.Small())
	r1 := time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC)
	if _, err := w.Snapshot("R1", r1); err != nil {
		t.Fatal(err)
	}
	// Release 2 widens the column the first mapping chain starts from.
	origin := staging.InstanceIRI(strings.Split(l.Chains[0][0], "/")...)
	w.LoadTriples([]rdf.Triple{rdf.T(origin, rdf.IRI(rdf.MDWLength), rdf.Integer(64))})
	if _, err := w.Snapshot("R2", r1.AddDate(0, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	back, mgr2, err := core.OpenDurable("", opts)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := core.OpenReadOnly(opts.Dir, "")
	if err != nil {
		t.Fatal(err)
	}

	target := staging.InstanceIRI(strings.Split(l.MartColumns[0], "/")...)
	ga, err := w.Lineage(target, lineage.Backward, lineage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ia, err := w.ImpactOfRelease(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]*core.Warehouse{"reopened": back, "read-only": ro} {
		for _, term := range []string{"customer", "portfolio"} {
			a, err := w.Search(term, search.Options{Semantic: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Search(term, search.Options{Semantic: true})
			if err != nil {
				t.Fatal(err)
			}
			if a.Instances != got.Instances || len(a.Groups) != len(got.Groups) || len(a.Expanded) != len(got.Expanded) {
				t.Errorf("%s, term %q: %d/%d/%v vs %d/%d/%v", name, term,
					a.Instances, len(a.Groups), a.Expanded, got.Instances, len(got.Groups), got.Expanded)
			}
		}
		gb, err := b.Lineage(target, lineage.Backward, lineage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ga.Nodes) != len(gb.Nodes) || len(ga.Edges) != len(gb.Edges) {
			t.Errorf("%s: lineage differs after restore: %d/%d vs %d/%d", name,
				len(ga.Nodes), len(ga.Edges), len(gb.Nodes), len(gb.Edges))
		}
		vs := b.History().Versions()
		if len(vs) != 2 || vs[0].Tag != "R1" || vs[0].Number != 1 || !vs[0].At.Equal(r1) || vs[1].Tag != "R2" {
			t.Errorf("%s: versions = %+v", name, vs)
		}
		ib, err := b.ImpactOfRelease(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if impact.Format(ia) != impact.Format(ib) {
			t.Errorf("%s: impact of R1 -> R2 differs:\n%s\nwant:\n%s", name, impact.Format(ib), impact.Format(ia))
		}
		// New snapshots continue the numbering.
		v3, err := b.Snapshot("R3", r1.AddDate(0, 4, 0))
		if err != nil || v3.Number != 3 {
			t.Errorf("%s: third release = %+v, %v", name, v3, err)
		}
	}

	// What the read-only warehouse did stayed in memory: the directory
	// holds the reopened warehouse's R3 and no second one.
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := core.OpenReadOnly(opts.Dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if vs := again.History().Versions(); len(vs) != 3 {
		t.Errorf("directory holds %d releases after the read-only open snapshotted, want 3: %+v", len(vs), vs)
	}
}

// TestHistorizationAcrossLoads: releases capture graph evolution; diffs
// between consecutive versions are exactly the loaded deltas.
func TestHistorizationAcrossLoads(t *testing.T) {
	w, _ := buildSmall(t)
	base := time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := w.Snapshot("R1", base); err != nil {
		t.Fatal(err)
	}
	delta := []rdf.Triple{
		rdf.T(rdf.IRI(rdf.InstNS+"newapp"), rdf.Type, rdf.IRI(rdf.DMNS+"Application")),
		rdf.T(rdf.IRI(rdf.InstNS+"newapp"), rdf.HasName, rdf.Literal("newapp")),
	}
	if n := w.LoadTriples(delta); n != 2 {
		t.Fatalf("loaded %d", n)
	}
	if _, err := w.Snapshot("R2", base.AddDate(0, 2, 0)); err != nil {
		t.Fatal(err)
	}
	d, err := w.History().DiffVersions(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 2 || len(d.Removed) != 0 {
		t.Errorf("diff = +%d/-%d, want +2/-0", len(d.Added), len(d.Removed))
	}
	v, err := w.History().AsOf(base.AddDate(0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if v.Number != 1 {
		t.Errorf("AsOf mid-cycle = v%d", v.Number)
	}
}

// TestValidationOnGeneratedLandscape: the generator must produce a graph
// free of convention violations (every instance typed, every class
// labeled).
func TestValidationOnGeneratedLandscape(t *testing.T) {
	w, _ := buildSmall(t)
	issues := w.Validate()
	byCode := map[string][]metamodel.Issue{}
	for _, is := range issues {
		byCode[is.Code] = append(byCode[is.Code], is)
	}
	for _, code := range []string{"untyped-instance", "unlabeled-class", "literal-subject"} {
		if n := len(byCode[code]); n != 0 {
			t.Errorf("%s: %d issues, first: %v", code, n, byCode[code][0])
		}
	}
}

// TestViewIsolationAcrossModels: the paper's semantics — facts-only
// queries never see index triples, and models are fully isolated.
func TestViewIsolationAcrossModels(t *testing.T) {
	w, l := buildSmall(t)
	if _, err := w.Reindex(); err != nil {
		t.Fatal(err)
	}
	st := w.Store()
	base := st.Len(w.Model())
	idx := st.Len(w.Model() + "$OWLPRIME")
	if idx == 0 {
		t.Fatal("no index triples")
	}
	// No triple may live in both models.
	overlap := 0
	st.ForEach(w.Model()+"$OWLPRIME", rdf.Term{}, rdf.Term{}, rdf.Term{}, func(tr rdf.Triple) bool {
		if st.Contains(w.Model(), tr) {
			overlap++
		}
		return true
	})
	if overlap != 0 {
		t.Errorf("%d triples duplicated between base and index", overlap)
	}
	// The union view sees exactly base+idx.
	v := st.ViewOf(w.Model(), w.Model()+"$OWLPRIME")
	if v.Len() != base+idx {
		t.Errorf("view = %d, want %d", v.Len(), base+idx)
	}
	_ = l
}

// TestConcurrentSearches: the warehouse must serve parallel readers.
func TestConcurrentSearches(t *testing.T) {
	w, _ := buildSmall(t)
	if _, err := w.Reindex(); err != nil {
		t.Fatal(err)
	}
	terms := []string{"customer", "account", "risk", "trade", "portfolio", "fee"}
	errc := make(chan error, len(terms)*4)
	for i := 0; i < 4; i++ {
		for _, term := range terms {
			go func(term string) {
				_, err := w.Search(term, search.Options{})
				errc <- err
			}(term)
		}
	}
	// The searches run beside a load, as the portal's do (§III.A).
	loaded := make(chan int)
	go func() {
		n := 0
		for i := 0; i < 20; i++ {
			col := rdf.IRI(fmt.Sprintf("%sconcurrent_load_%d", rdf.InstNS, i))
			n += w.LoadTriples([]rdf.Triple{
				rdf.T(col, rdf.Type, rdf.IRI(rdf.DMNS+"Column")),
				rdf.T(col, rdf.HasName, rdf.Literal(fmt.Sprintf("customer_fee_%d", i))),
			})
		}
		loaded <- n
	}()
	for i := 0; i < len(terms)*4; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if n := <-loaded; n != 40 {
		t.Fatalf("loaded %d of 40 triples", n)
	}
	res, err := w.Search("customer_fee_", search.Options{})
	if err != nil || res.Instances != 20 {
		t.Errorf("after the load: %d of 20 loaded columns found (%v)", res.Instances, err)
	}
}

// TestPaperScalePipeline loads the full paper-scale landscape (~130k
// nodes) end to end and checks the published shape claims. Skipped in
// -short mode: it takes tens of seconds.
func TestPaperScalePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale load is slow; run without -short")
	}
	l := landscape.Generate(landscape.PaperScale())
	st := store.New()
	stats, err := staging.Pipeline{Store: st, Model: "DWH_CURR"}.Run(l.Exports, l.Ontology.Triples())
	if err != nil {
		t.Fatal(err)
	}
	st.AddAll("DWH_CURR", l.ExtraTriples())
	cs, _ := metamodel.TakeCensus(st.ViewOf("DWH_CURR"), st.Dict())

	// Section III.A: ~130,000 nodes per version.
	if cs.NodeTotal() < 110_000 || cs.NodeTotal() > 150_000 {
		t.Errorf("nodes = %d, want ~130k", cs.NodeTotal())
	}
	// Total edges (facts + derived index) on the order of a million.
	total := cs.Total + stats.Derived
	if total < 700_000 {
		t.Errorf("total edges = %d, want on the order of 1M", total)
	}
	// The services stay responsive at scale.
	svc := search.New(st, "DWH_CURR", nil)
	res, err := svc.Search("customer", search.Options{MaxHitsPerGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances == 0 {
		t.Error("paper-scale search found nothing")
	}
	lsvc := lineage.New(st, "DWH_CURR")
	target := staging.InstanceIRI(strings.Split(l.MartColumns[0], "/")...)
	g, err := lsvc.Trace(target, lineage.Backward, lineage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != l.Config.Stages+1 {
		t.Errorf("paper-scale lineage nodes = %d", len(g.Nodes))
	}
}
