package search

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mdw/internal/dbpedia"
	"mdw/internal/landscape"
	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/staging"
	"mdw/internal/store"
)

// fixture loads the Figure 3 customer-identification snippet plus the
// DWH ontology into a store.
func fixture(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	_, err := staging.Pipeline{Store: st, Model: "DWH_CURR"}.Run(
		[]*staging.Export{landscape.Figure3Export()},
		ontology.DWH().Triples(),
	)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func groupByLabel(r *Result, label string) *Group {
	for i := range r.Groups {
		if r.Groups[i].Label == label {
			return &r.Groups[i]
		}
	}
	return nil
}

func TestSearchCustomerFigure6Shape(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR", nil)
	res, err := svc.Search("customer", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances == 0 {
		t.Fatal("no instances found")
	}
	// customer_id (an Application1_View_Column) must be grouped under its
	// own class AND its inherited classes — the multi-group behaviour of
	// Figure 6.
	for _, label := range []string{"Application1 View Column", "View Column", "Column", "Attribute"} {
		g := groupByLabel(res, label)
		if g == nil {
			t.Errorf("missing group %q (have %v)", label, labels(res))
			continue
		}
		if g.Count < 1 {
			t.Errorf("group %q count = %d", label, g.Count)
		}
	}
	// The concept node named "customer" should appear under Customer.
	if g := groupByLabel(res, "Customer"); g == nil {
		t.Errorf("missing Customer group: %v", labels(res))
	}
	// Groups are sorted by label.
	for i := 1; i < len(res.Groups); i++ {
		if res.Groups[i-1].Label > res.Groups[i].Label {
			t.Error("groups not sorted")
		}
	}
}

func labels(r *Result) []string {
	var out []string
	for _, g := range r.Groups {
		out = append(out, g.Label)
	}
	return out
}

func TestSearchFilterIntersection(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR", nil)
	// Listing 1 restricts to the intersection of Application1_Item and
	// Interface_Item; only customer_id (the Application1_View_Column)
	// satisfies both.
	res, err := svc.Search("customer", Options{
		FilterClasses: []string{rdf.DMNS + "Application1_Item", rdf.DMNS + "Interface_Item"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 1 {
		t.Fatalf("instances = %d, want 1 (only customer_id)", res.Instances)
	}
	g := groupByLabel(res, "Application1 View Column")
	if g == nil || g.Count != 1 || g.Hits[0].Name != "customer_id" {
		t.Errorf("groups = %+v", res.Groups)
	}
}

func TestSearchUnknownFilterClass(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR", nil)
	res, err := svc.Search("customer", Options{FilterClasses: []string{rdf.DMNS + "NoSuchClass"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 0 {
		t.Errorf("instances = %d, want 0", res.Instances)
	}
}

func TestSearchAreaFilter(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR", nil)
	// Restrict to the mart stage: source_customer_id (inbound) must not
	// appear; customer_id (mart view) must.
	res, err := svc.Search("customer", Options{Area: "mart"})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Groups {
		for _, h := range g.Hits {
			if h.Name == "source_customer_id" {
				t.Error("inbound column leaked through mart filter")
			}
		}
	}
	found := false
	for _, g := range res.Groups {
		for _, h := range g.Hits {
			if h.Name == "customer_id" {
				found = true
			}
		}
	}
	if !found {
		t.Error("mart column missing under mart filter")
	}
}

func TestSearchLayerFilter(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR", nil)
	// Business users search the conceptual layer; only the mart schema is
	// conceptual in the fixture.
	res, err := svc.Search("customer", Options{Layer: "conceptual"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances == 0 {
		t.Fatal("no conceptual-layer hits")
	}
	for _, g := range res.Groups {
		for _, h := range g.Hits {
			if h.Name == "source_customer_id" {
				t.Error("physical-layer column leaked through conceptual filter")
			}
		}
	}
}

func TestSemanticExpansion(t *testing.T) {
	st := fixture(t)
	th := dbpedia.FromTriples(dbpedia.Banking())

	plain := New(st, "DWH_CURR", nil)
	semantic := New(st, "DWH_CURR", th)

	// "client" matches client_information_id literally; with synonyms it
	// must additionally match customer-named items.
	p, err := plain.Search("client", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := semantic.Search("client", Options{Semantic: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Instances <= p.Instances {
		t.Errorf("semantic search found %d, plain %d — expansion had no effect", s.Instances, p.Instances)
	}
	if len(s.Expanded) < 2 {
		t.Errorf("Expanded = %v", s.Expanded)
	}
	// The matched term is recorded per hit.
	foundViaSynonym := false
	for _, g := range s.Groups {
		for _, h := range g.Hits {
			if h.Matched != "client" {
				foundViaSynonym = true
			}
		}
	}
	if !foundViaSynonym {
		t.Error("no hit recorded a synonym match")
	}
}

func TestSemanticWithoutThesaurusFallsBack(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR", nil)
	res, err := svc.Search("client", Options{Semantic: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Expanded) != 1 {
		t.Errorf("Expanded = %v", res.Expanded)
	}
}

func TestMatchDescriptions(t *testing.T) {
	st := store.New()
	exp := &staging.Export{
		Applications: []staging.ApplicationDoc{{
			Name: "legacy",
			Databases: []staging.DatabaseDoc{{
				Name: "db",
				Schemas: []staging.SchemaDoc{{
					Name: "s",
					Tables: []staging.TableDoc{{
						Name: "TCD100",
						Columns: []staging.ColumnDoc{{
							Name:        "tcd100_col7",
							Description: "customer segment marker",
						}},
					}},
				}},
			}},
		}},
	}
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(
		[]*staging.Export{exp}, ontology.DWH().Triples()); err != nil {
		t.Fatal(err)
	}
	svc := New(st, "m", nil)

	plain, err := svc.Search("customer", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Instances != 0 {
		t.Errorf("plain search matched cryptic column by name: %d", plain.Instances)
	}
	desc, err := svc.Search("customer", Options{MatchDescriptions: true})
	if err != nil {
		t.Fatal(err)
	}
	if desc.Instances != 1 {
		t.Fatalf("description search instances = %d, want 1", desc.Instances)
	}
	// The hit reports the column's real (cryptic) name.
	for _, g := range desc.Groups {
		for _, h := range g.Hits {
			if h.Name != "tcd100_col7" {
				t.Errorf("hit name = %q", h.Name)
			}
		}
	}
}

func TestMaxHitsPerGroupCapsListsNotCounts(t *testing.T) {
	l := landscape.Generate(landscape.Small())
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
		t.Fatal(err)
	}
	svc := New(st, "m", nil)
	res, err := svc.Search("customer", Options{MaxHitsPerGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Groups {
		if len(g.Hits) > 1 {
			t.Errorf("group %s lists %d hits, cap 1", g.Label, len(g.Hits))
		}
		if g.Count < len(g.Hits) {
			t.Errorf("group %s count %d < hits %d", g.Label, g.Count, len(g.Hits))
		}
	}
}

func TestEmptyTermRejected(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR", nil)
	if _, err := svc.Search("  ", Options{}); err == nil {
		t.Error("empty term should error")
	}
}

func TestMissingModelRejected(t *testing.T) {
	svc := New(store.New(), "nope", nil)
	if _, err := svc.Search("x", Options{}); err == nil {
		t.Error("missing model should error")
	}
}

func TestFormatResult(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR", nil)
	res, err := svc.Search("customer", Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResult(res)
	if !strings.Contains(out, `Search Results for "customer"`) {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "Attribute") {
		t.Errorf("groups missing:\n%s", out)
	}
}

func TestRegexMetaCharactersAreQuoted(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR", nil)
	// A term with regex metacharacters must not crash or over-match.
	res, err := svc.Search("cust.*id", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 0 {
		t.Errorf("metacharacter term matched %d instances", res.Instances)
	}
}

func TestHomonymHints(t *testing.T) {
	st := fixture(t)
	th := dbpedia.FromTriples(dbpedia.Banking())
	svc := New(st, "DWH_CURR", th)
	res, err := svc.Search("interest", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Homonyms) != 2 {
		t.Fatalf("Homonyms = %v", res.Homonyms)
	}
	out := FormatResult(res)
	if !strings.Contains(out, "ambiguous") {
		t.Errorf("format missing homonym note:\n%s", out)
	}
	// Unambiguous terms carry no hint.
	res, err = svc.Search("customer", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Homonyms) != 0 {
		t.Errorf("customer homonyms = %v", res.Homonyms)
	}
}

func TestGovernanceTagFilter(t *testing.T) {
	l := landscape.Generate(landscape.Small())
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
		t.Fatal(err)
	}
	svc := New(st, "m", nil)
	all, err := svc.Search("customer", Options{})
	if err != nil {
		t.Fatal(err)
	}
	pii, err := svc.Search("customer", Options{Tag: "pii"})
	if err != nil {
		t.Fatal(err)
	}
	if pii.Instances == 0 {
		t.Fatal("no pii-tagged customer items (generator tags them)")
	}
	if pii.Instances > all.Instances {
		t.Errorf("tag filter increased hits: %d > %d", pii.Instances, all.Instances)
	}
	// A tag nobody uses filters everything out.
	none, err := svc.Search("customer", Options{Tag: "no_such_tag"})
	if err != nil {
		t.Fatal(err)
	}
	if none.Instances != 0 {
		t.Errorf("unknown tag matched %d items", none.Instances)
	}
}

// TestOrderUnderTiesIsDeterministic loads the same triples into several
// stores in shuffled order — what two server processes that staged their
// exports differently hold — with forty instances sharing one name and
// two classes sharing one label. The capped hit lists and the group
// order must agree everywhere: ties are broken on IRI, not on whatever
// order a map or an unstable sort happened to produce.
func TestOrderUnderTiesIsDeterministic(t *testing.T) {
	inst := func(s string) rdf.Term { return rdf.IRI(rdf.InstNS + s) }
	dm := func(s string) rdf.Term { return rdf.IRI(rdf.DMNS + s) }
	var triples []rdf.Triple
	for _, cls := range []string{"Tie_A", "Tie_B"} {
		triples = append(triples, rdf.T(dm(cls), rdf.Label, rdf.Literal("Tied Label")))
	}
	for i := 0; i < 40; i++ {
		col := inst(fmt.Sprintf("app/db/schema/table%02d/customer_id", i))
		triples = append(triples,
			rdf.T(col, rdf.HasName, rdf.Literal("customer_id")),
			rdf.T(col, rdf.Type, dm("Tie_A")),
			rdf.T(col, rdf.Type, dm("Tie_B")))
	}

	render := func(r *Result) string {
		var b strings.Builder
		for _, g := range r.Groups {
			fmt.Fprintf(&b, "%s %s %d:", g.Label, g.Class.Value, g.Count)
			for _, h := range g.Hits {
				b.WriteString(" " + h.IRI.Value)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	var want string
	for process := 0; process < 6; process++ {
		shuffled := append([]rdf.Triple(nil), triples...)
		rand.New(rand.NewSource(int64(process))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		st := store.New()
		st.AddAll("m", shuffled)
		svc := New(st, "m", nil)
		for _, opt := range []Options{{MaxHitsPerGroup: 3}, {MaxHitsPerGroup: 3, ForceScan: true}} {
			for run := 0; run < 5; run++ {
				res, err := svc.Search("customer", opt)
				if err != nil {
					t.Fatal(err)
				}
				got := render(res)
				if want == "" {
					if len(res.Groups) != 2 || len(res.Groups[0].Hits) != 3 {
						t.Fatalf("fixture does not produce two capped groups:\n%s", got)
					}
					want = got
				}
				if got != want {
					t.Fatalf("process %d (%+v) run %d answers\n%s\nwant\n%s", process, opt, run, got, want)
				}
			}
		}
	}
}
