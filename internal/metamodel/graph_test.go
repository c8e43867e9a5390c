package metamodel

import (
	"reflect"
	"strings"
	"testing"

	"mdw/internal/landscape"
	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/staging"
	"mdw/internal/store"
)

// figure3Graph opens the entailed Figure 3 graph, plus a tag on the mart
// column, a column without dm:hasName and a class without rdfs:label.
func figure3Graph(t *testing.T) *Graph {
	t.Helper()
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(
		[]*staging.Export{landscape.Figure3Export()}, ontology.DWH().Triples()); err != nil {
		t.Fatal(err)
	}
	st.AddAll("m", []rdf.Triple{
		rdf.T(staging.InstanceIRI("application1", "dwhdb", "mart", "v_customer", "customer_id"),
			rdf.IRI(rdf.MDWTaggedWith), rdf.Literal("pii")),
		rdf.T(inst("nameless"), rdf.Type, dm("Unlabeled")),
		rdf.T(dm("Unlabeled"), rdf.SubClassOf, dm("Column")),
	})
	k, err := Open(st, "m")
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestGraphVocabulary(t *testing.T) {
	k := figure3Graph(t)
	id := func(path ...string) store.ID {
		t.Helper()
		n, ok := k.Dict.Lookup(staging.InstanceIRI(path...))
		if !ok {
			t.Fatalf("no node %v", path)
		}
		return n
	}
	mustID := func(term rdf.Term) store.ID {
		t.Helper()
		n, ok := k.Dict.Lookup(term)
		if !ok {
			t.Fatalf("no node %s", term)
		}
		return n
	}
	container := func(n store.ID, classes ...store.ID) string {
		c, ok := k.ContainerOf(n, classes...)
		if !ok {
			return "none"
		}
		return k.Name(c)
	}
	martCol := id("application1", "dwhdb", "mart", "v_customer", "customer_id")
	feedCol := id("application1", "dwhdb", "inbound", "customer_feed", "source_customer_id")
	srcCol := id("pb_frontend", "pbdb", "clients", "client_info", "client_information_id")
	app1 := id("application1")
	nameless := mustID(inst("nameless"))

	tests := []struct {
		name      string
		got, want any
	}{
		{"Name from dm:hasName", k.Name(martCol), "customer_id"},
		{"Name falls back to the local name", k.Name(nameless), "nameless"},
		{"Label from rdfs:label", k.Label(k.Application), "Application"},
		{"Label falls back to the local name", k.Label(mustID(dm("Unlabeled"))), "Unlabeled"},
		{"Classes are sorted dm: classes, inherited included", k.Classes(nameless),
			[]string{rdf.DMNS + "Attribute", rdf.DMNS + "Column", rdf.DMNS + "Item", rdf.DMNS + "Unlabeled"}},
		{"IsA through the hierarchy", k.IsA(nameless, mustID(dm("Column")), mustID(dm("Item"))), true},
		{"IsA needs every class", k.IsA(nameless, mustID(dm("Column")), k.Application), false},
		{"instances of a class", len(k.Subjects(k.Type, k.Application)), 2},

		{"container at relation level: view", container(martCol, k.Table, k.View, k.SourceFile), "v_customer"},
		{"container at relation level: file", container(feedCol, k.Table, k.View, k.SourceFile), "customer_feed"},
		{"container at schema level", container(martCol, k.Schema), "mart"},
		{"container at application level", container(srcCol, k.Application), "pb_frontend"},
		{"an application contains itself", container(app1, k.Application), "application1"},
		{"no container of the class", container(martCol, k.Report), "none"},
		{"no class given", container(martCol), "none"},

		{"Under a named schema", k.Under(martCol, "MART"), true},
		{"Under its own name", k.Under(martCol, "customer_id"), true},
		{"Under another schema", k.Under(martCol, "inbound"), false},
		{"OnLayer through the schema", k.OnLayer(martCol, "Conceptual"), true},
		{"OnLayer mismatch", k.OnLayer(feedCol, "conceptual"), false},
		{"Tagged", k.Tagged(martCol, "PII"), true},
		{"not Tagged", k.Tagged(feedCol, "pii"), false},
	}
	for _, tc := range tests {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	for _, c := range k.Classes(martCol) {
		if !strings.HasPrefix(c, rdf.DMNS) {
			t.Errorf("Classes returned %s, not a dm: class", c)
		}
	}
	if ids, ok := k.ClassIDs([]string{rdf.DMNS + "Column", rdf.DMNS + "NoSuchClass"}); ok || ids != nil {
		t.Errorf("ClassIDs with an unknown class = %v, %v", ids, ok)
	}
}

// TestGraphMissingVocabulary: a dictionary that has never seen dm:partOf,
// dt:isMappedTo, dm:Role and most of the rest. Every unresolved term is
// store.Wildcard, and no probe may read that as "any".
func TestGraphMissingVocabulary(t *testing.T) {
	st := store.New()
	st.AddAll("m", []rdf.Triple{
		rdf.T(inst("app"), rdf.Type, dm("Application")),
		rdf.T(inst("app"), rdf.HasName, rdf.Literal("App")),
		rdf.T(inst("col"), rdf.Type, dm("Column")),
		rdf.T(inst("col"), dm("knows"), inst("app")),
	})
	k, err := Open(st, "m")
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]store.ID{
		"dm:partOf": k.PartOf, "dt:isMappedTo": k.IsMappedTo, "dm:Role": k.Role, "rdfs:label": k.LabelID,
	} {
		if v != store.Wildcard {
			t.Fatalf("%s resolved to %d in a dictionary without it", name, v)
		}
	}
	app, _ := k.Dict.Lookup(inst("app"))
	col, _ := k.Dict.Lookup(inst("col"))
	tests := []struct {
		name      string
		got, want any
	}{
		{"Objects of a missing predicate", k.Objects(col, k.PartOf), []store.ID(nil)},
		{"Subjects of a missing predicate", k.Subjects(k.IsMappedTo, app), []store.ID(nil)},
		{"Subjects of a missing class", k.Subjects(k.Type, k.Role), []store.ID(nil)},
		{"Has with a missing predicate", k.Has(col, k.PartOf, app), false},
		{"IsA a missing class", k.IsA(app, k.Role), false},
		{"Name without a name literal", k.Name(col), "col"},
		{"Label without rdfs:label", k.Label(app), "app"},
		{"Under its own name, no containment", k.Under(app, "app"), true},
		{"Under, nothing to walk", k.Under(col, "app"), false},
		{"OnLayer", k.OnLayer(col, "physical"), false},
		{"Tagged", k.Tagged(col, "pii"), false},
	}
	for _, tc := range tests {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	if c, ok := k.ContainerOf(app, k.Application); !ok || c != app {
		t.Errorf("ContainerOf(app, Application) = %d, %v; want the application itself", c, ok)
	}
	if c, ok := k.ContainerOf(col, k.Application, k.Schema); ok {
		t.Errorf("ContainerOf(col) = %d without any dm:partOf", c)
	}
}
