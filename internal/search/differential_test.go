package search

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mdw/internal/dbpedia"
	"mdw/internal/landscape"
	"mdw/internal/rdf"
	"mdw/internal/staging"
	"mdw/internal/store"
)

// canon normalizes a result for comparison: hits are sorted by the full
// (Name, IRI, Matched) key so ties in the user-facing by-Name order
// cannot make two equal results compare unequal.
func canon(r *Result) *Result {
	for gi := range r.Groups {
		hits := r.Groups[gi].Hits
		sort.Slice(hits, func(i, j int) bool {
			a, b := hits[i], hits[j]
			if a.Name != b.Name {
				return a.Name < b.Name
			}
			if a.IRI.Value != b.IRI.Value {
				return a.IRI.Value < b.IRI.Value
			}
			return a.Matched < b.Matched
		})
	}
	return r
}

// TestOptionsFields pins the search options: the Figure 6 filters plus
// ForceScan, the oracle switch the parity tests below set. Candidates come
// from the text index and from nowhere else, so there is no option that
// selects a candidate path.
func TestOptionsFields(t *testing.T) {
	want := []string{"FilterClasses", "Area", "Layer", "Semantic", "MatchDescriptions", "Tag", "MaxHitsPerGroup", "ForceScan"}
	typ := reflect.TypeOf(Options{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fields of search.Options = %v, want %v", got, want)
	}
}

// TestIndexedScanParity is the differential test of the inverted-index
// search path: on a generated landscape, the indexed path and the
// retained literal-scan oracle must return identical results for a
// corpus of terms — exact, prefix, substring, synonym-expanded,
// description-matching — across the Figure 6 filter combinations.
func TestIndexedScanParity(t *testing.T) {
	l := landscape.Generate(landscape.Small())
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
		t.Fatal(err)
	}
	st.AddAll("m", l.ExtraTriples())
	th := dbpedia.FromTriples(dbpedia.Banking())
	svc := New(st, "m", th)

	terms := []string{
		"customer",    // exact word
		"CUSTOMER",    // case folding
		"cust",        // prefix
		"stome",       // infix substring
		"customer_id", // multi-token with separator
		"client",      // has synonyms in the thesaurus
		"interest",    // homonym hints
		"id",          // high-frequency token
		"e",           // single letter, huge candidate set
		"zz_nothing",  // no matches
	}
	opts := []Options{
		{},
		{Semantic: true},
		{MatchDescriptions: true},
		{Semantic: true, MatchDescriptions: true},
		{FilterClasses: []string{rdf.DMNS + "Attribute"}},
		{Area: "mart"},
		{Layer: "conceptual"},
		{Tag: "pii"},
	}
	for _, term := range terms {
		for i, opt := range opts {
			indexed, err := svc.Search(term, opt)
			if err != nil {
				t.Fatalf("indexed %q/%d: %v", term, i, err)
			}
			scanOpt := opt
			scanOpt.ForceScan = true
			scanned, err := svc.Search(term, scanOpt)
			if err != nil {
				t.Fatalf("scan %q/%d: %v", term, i, err)
			}
			if !reflect.DeepEqual(canon(indexed), canon(scanned)) {
				t.Errorf("term %q opts %+v: indexed and scan results differ\nindexed: %+v\nscan:    %+v",
					term, opt, indexed, scanned)
			}
		}
	}
}

// TestSearchSeesLaterWrites is the stale-entailment regression test: a
// triple added after the first search must be visible — including its
// *inherited* class groups, which only exist in the re-materialized
// OWLPRIME index — on the next search, on both matching paths.
func TestSearchSeesLaterWrites(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR", nil)

	for _, forceScan := range []bool{false, true} {
		opt := Options{ForceScan: forceScan}
		res, err := svc.Search("zz_late_column", opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Instances != 0 {
			t.Fatalf("forceScan=%v: phantom hit before the write", forceScan)
		}
	}

	// Write to the base model after the service has already built its
	// entailment index and full-text index.
	col := rdf.IRI(rdf.InstNS + "late/zz_late_column")
	st.Add("DWH_CURR", rdf.T(col, rdf.Type, rdf.IRI(rdf.DMNS+"Application1_View_Column")))
	st.Add("DWH_CURR", rdf.T(col, rdf.HasName, rdf.Literal("zz_late_column")))

	for _, forceScan := range []bool{false, true} {
		res, err := svc.Search("zz_late_column", Options{ForceScan: forceScan})
		if err != nil {
			t.Fatal(err)
		}
		if res.Instances != 1 {
			t.Fatalf("forceScan=%v: instances = %d after write, want 1", forceScan, res.Instances)
		}
		// The hit must group under its superclasses too — proof that the
		// entailment was re-materialized, not just the base re-scanned.
		if g := groupByLabel(res, "Attribute"); g == nil || g.Count != 1 {
			t.Errorf("forceScan=%v: inherited Attribute group missing: %v", forceScan, labels(res))
		}
	}

	// Removal is noticed as well.
	st.Remove("DWH_CURR", rdf.T(col, rdf.HasName, rdf.Literal("zz_late_column")))
	res, err := svc.Search("zz_late_column", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 0 {
		t.Errorf("instances = %d after removal, want 0", res.Instances)
	}
}

// TestLateDescriptionPredicateIndexed reproduces the frozen-field-map
// bug end to end: the full-text index is built while no rdfs:comment
// triple exists anywhere (so the predicate is not interned yet), then
// the first description is written. The extended index must find
// it — previously the indexed path silently returned 0 while the scan
// oracle found 1.
func TestLateDescriptionPredicateIndexed(t *testing.T) {
	st := store.New()
	col := rdf.IRI(rdf.InstNS + "late/c1")
	st.Add("DWH_CURR", rdf.T(col, rdf.Type, rdf.IRI(rdf.DMNS+"Column")))
	st.Add("DWH_CURR", rdf.T(col, rdf.HasName, rdf.Literal("tcd100")))
	svc := New(st, "DWH_CURR", nil)

	opt := Options{MatchDescriptions: true}
	if res, err := svc.Search("tcd100", opt); err != nil || res.Instances != 1 {
		t.Fatalf("prime search: %v, %+v", err, res)
	}

	st.Add("DWH_CURR", rdf.T(col, rdf.IRI(rdf.RDFSComment), rdf.Literal("customer segment marker")))

	indexed, err := svc.Search("segment", opt)
	if err != nil {
		t.Fatal(err)
	}
	if indexed.Instances != 1 {
		t.Errorf("indexed search missed the late description: %d instances, want 1", indexed.Instances)
	}
	scanOpt := opt
	scanOpt.ForceScan = true
	scanned, err := svc.Search("segment", scanOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canon(indexed), canon(scanned)) {
		t.Errorf("indexed and scan disagree on late description\nindexed: %+v\nscan:    %+v", indexed, scanned)
	}
}

// TestMultiNameHitAttributionDeterministic pins the tie-break for
// subjects carrying several matching name literals: the lowest object ID
// (the first-interned literal) supplies Hit.Name on BOTH paths, every
// run — triple-map iteration order must not leak into results.
func TestMultiNameHitAttributionDeterministic(t *testing.T) {
	st := store.New()
	col := rdf.IRI(rdf.InstNS + "dup/c1")
	st.Add("DWH_CURR", rdf.T(col, rdf.Type, rdf.IRI(rdf.DMNS+"Column")))
	st.Add("DWH_CURR", rdf.T(col, rdf.HasName, rdf.Literal("customer_beta")))
	st.Add("DWH_CURR", rdf.T(col, rdf.HasName, rdf.Literal("customer_alpha")))
	svc := New(st, "DWH_CURR", nil)

	for run := 0; run < 8; run++ {
		for _, forceScan := range []bool{false, true} {
			res, err := svc.Search("customer", Options{ForceScan: forceScan})
			if err != nil {
				t.Fatal(err)
			}
			g := groupByLabel(res, "Column")
			if g == nil || len(g.Hits) != 1 {
				t.Fatalf("forceScan=%v: unexpected result %+v", forceScan, res)
			}
			if g.Hits[0].Name != "customer_beta" {
				t.Errorf("forceScan=%v run %d: Hit.Name = %q, want first-interned \"customer_beta\"",
					forceScan, run, g.Hits[0].Name)
			}
		}
	}
}

// TestEnsureIndexTracksGenerations covers the exported index-building
// entry point the warehouse uses for build-on-load.
func TestEnsureIndexTracksGenerations(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR", nil)

	ix, err := EnsureIndex(st, "DWH_CURR", svc.tix)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Gen() != st.Generation("DWH_CURR") {
		t.Fatalf("index gen %d != model gen %d", ix.Gen(), st.Generation("DWH_CURR"))
	}
	st.Add("DWH_CURR", rdf.T(rdf.IRI(rdf.InstNS+"x"), rdf.HasName, rdf.Literal("xname")))
	ix2, err := EnsureIndex(st, "DWH_CURR", svc.tix)
	if err != nil {
		t.Fatal(err)
	}
	if ix2 == ix || ix2.Gen() != st.Generation("DWH_CURR") {
		t.Error("EnsureIndex did not refresh after a write")
	}
	if _, err := EnsureIndex(st, "no_such_model", svc.tix); err == nil {
		t.Error("EnsureIndex accepted a missing model")
	}
}

// TestManyModelsOneManager checks that one manager serves several models
// independently — the historized-release scenario.
func TestManyModelsOneManager(t *testing.T) {
	st := store.New()
	for i := 0; i < 3; i++ {
		model := fmt.Sprintf("rel%d", i)
		st.Add(model, rdf.T(rdf.IRI(rdf.InstNS+"c"), rdf.Type, rdf.IRI(rdf.DMNS+"Column")))
		st.Add(model, rdf.T(rdf.IRI(rdf.InstNS+"c"), rdf.HasName, rdf.Literal(fmt.Sprintf("col_v%d", i))))
	}
	shared := New(st, "rel0", nil).tix
	for i := 0; i < 3; i++ {
		model := fmt.Sprintf("rel%d", i)
		svc := New(st, model, nil).WithIndexManager(shared)
		res, err := svc.Search(fmt.Sprintf("col_v%d", i), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Instances != 1 {
			t.Errorf("model %s: instances = %d", model, res.Instances)
		}
	}
	if stats := shared.StatsAll(); len(stats) != 3 {
		t.Errorf("manager caches %d indexes, want 3", len(stats))
	}
}
