package staging

import (
	"strconv"
	"strings"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

func sampleExport() *Export {
	return &Export{
		Source: "unit-test",
		Applications: []ApplicationDoc{{
			Name:  "App One",
			Owner: "alice",
			Area:  "payments",
			Databases: []DatabaseDoc{{
				Name: "db1",
				Schemas: []SchemaDoc{{
					Name:  "s1",
					Layer: "physical",
					Tables: []TableDoc{{
						Name: "t1",
						Columns: []ColumnDoc{
							{Name: "customer_id", DataType: "VARCHAR", Length: 10, Description: "customer key"},
							{Name: "amount", DataType: "DECIMAL"},
						},
					}},
					Views: []TableDoc{{
						Name:    "v1",
						Columns: []ColumnDoc{{Name: "balance"}},
					}},
					Files: []TableDoc{{
						Name:    "f1",
						Columns: []ColumnDoc{{Name: "feed_col"}},
					}},
				}},
			}},
		}},
		Interfaces: []InterfaceDoc{{Name: "itf1", From: "App One", To: "dwh"}},
		Mappings: []MappingDoc{{
			From: "App One/db1/s1/t1/customer_id",
			To:   "dwh/db/s/t/c",
			Rule: "x > 0",
		}},
		Users: []UserDoc{{
			Name:  "alice",
			Roles: []RoleDoc{{Name: "business_owner", App: "App One"}, {Name: "weird_role", App: "App One"}},
		}},
		Concepts: []ConceptDoc{{
			Name:       "customer",
			Class:      "Customer",
			Implements: []string{"App One/db1/s1/t1/customer_id"},
		}},
	}
}

func TestSlugAndInstanceIRI(t *testing.T) {
	if Slug("App One") != "app_one" {
		t.Errorf("Slug = %q", Slug("App One"))
	}
	if Slug(" Trim<Me># ") != "trimme" {
		t.Errorf("Slug = %q", Slug(" Trim<Me># "))
	}
	iri := InstanceIRI("App One", "db1", "T1")
	if iri.Value != rdf.InstNS+"app_one/db1/t1" {
		t.Errorf("InstanceIRI = %s", iri)
	}
}

func TestTransform(t *testing.T) {
	ts, err := Transform(sampleExport())
	if err != nil {
		t.Fatal(err)
	}
	has := func(want rdf.Triple) bool {
		for _, tr := range ts {
			if tr == want {
				return true
			}
		}
		return false
	}
	app := InstanceIRI("App One")
	col := InstanceIRI("App One", "db1", "s1", "t1", "customer_id")
	checks := []rdf.Triple{
		rdf.T(app, rdf.Type, rdf.IRI(rdf.DMNS+"Application")),
		rdf.T(app, rdf.HasName, rdf.Literal("App One")),
		rdf.T(app, rdf.IRI(rdf.MDWOwnedBy), InstanceIRI("users", "alice")),
		rdf.T(col, rdf.Type, rdf.IRI(rdf.DMNS+"Table_Column")),
		rdf.T(col, rdf.IRI(rdf.MDWDataType), rdf.Literal("VARCHAR")),
		rdf.T(col, rdf.IRI(rdf.MDWLength), rdf.Integer(10)),
		rdf.T(col, rdf.IRI(rdf.RDFSComment), rdf.Literal("customer key")),
		rdf.T(InstanceIRI("App One", "db1", "s1", "v1", "balance"), rdf.Type, rdf.IRI(rdf.DMNS+"View_Column")),
		rdf.T(InstanceIRI("App One", "db1", "s1", "f1", "feed_col"), rdf.Type, rdf.IRI(rdf.DMNS+"Source_File_Column")),
		rdf.T(col, rdf.IsMappedTo, InstanceIRI("dwh", "db", "s", "t", "c")),
		rdf.T(app, rdf.IRI(rdf.MDWFeeds), InstanceIRI("dwh")),
		rdf.T(InstanceIRI("users", "alice"), rdf.Type, rdf.IRI(rdf.DMNS+"User")),
		rdf.T(InstanceIRI("roles", "business_owner", "App One"), rdf.Type, rdf.IRI(rdf.DMNS+"Business_Owner")),
		rdf.T(InstanceIRI("roles", "weird_role", "App One"), rdf.Type, rdf.IRI(rdf.DMNS+"Role")),
		rdf.T(col, rdf.IRI(rdf.MDWImplements), InstanceIRI("concepts", "customer")),
		rdf.T(InstanceIRI("concepts", "customer"), rdf.Type, rdf.IRI(rdf.DMNS+"Customer")),
	}
	for _, want := range checks {
		if !has(want) {
			t.Errorf("missing triple %v", want)
		}
	}
	// The mapping is reified with its rule.
	foundRule := false
	for _, tr := range ts {
		if tr.P.Value == rdf.MDWRuleCond && tr.O.Value == "x > 0" {
			foundRule = true
		}
	}
	if !foundRule {
		t.Error("mapping rule not reified")
	}
}

func TestTransformErrors(t *testing.T) {
	bad := &Export{Interfaces: []InterfaceDoc{{Name: "x", From: "", To: "b"}}}
	if _, err := Transform(bad); err == nil {
		t.Error("interface without from should fail")
	}
	bad = &Export{Mappings: []MappingDoc{{From: "a/b", To: ""}}}
	if _, err := Transform(bad); err == nil {
		t.Error("mapping without to should fail")
	}
}

func TestXMLEncodeDecode(t *testing.T) {
	e := sampleExport()
	doc, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc, `<metadata source="unit-test">`) {
		t.Errorf("doc:\n%s", doc)
	}
	back, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Applications) != 1 || back.Applications[0].Name != "App One" {
		t.Errorf("decoded = %+v", back)
	}
	if len(back.Mappings) != 1 || back.Mappings[0].Rule != "x > 0" {
		t.Errorf("mappings = %+v", back.Mappings)
	}
	if _, err := Decode(strings.NewReader("not xml")); err == nil {
		t.Error("invalid XML accepted")
	}
}

func TestStagingTableAndBulkLoad(t *testing.T) {
	st := store.New()
	tbl := NewTable(st)
	if err := tbl.InsertExport(sampleExport()); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() == 0 {
		t.Fatal("nothing staged")
	}
	staged := tbl.Len()
	// Insert the same export again: staging keeps duplicates, the load
	// deduplicates.
	if err := tbl.InsertExport(sampleExport()); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2*staged {
		t.Errorf("staged = %d, want %d", tbl.Len(), 2*staged)
	}
	stats, err := tbl.BulkLoad("m", true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != staged {
		t.Errorf("loaded = %d, want %d (deduplicated)", stats.Loaded, staged)
	}
	if stats.IndexMod != "m$OWLPRIME" {
		t.Errorf("index model = %q", stats.IndexMod)
	}
	if tbl.Len() != 0 {
		t.Error("staging table not cleared after load")
	}
}

func TestPipelineRun(t *testing.T) {
	st := store.New()
	stats, err := Pipeline{Store: st, Model: "m"}.Run([]*Export{sampleExport()}, []rdf.Triple{
		rdf.T(rdf.IRI(rdf.DMNS+"Table_Column"), rdf.SubClassOf, rdf.IRI(rdf.DMNS+"Column")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Derived == 0 {
		t.Error("ontology produced no entailments")
	}
	// The inheritance is queryable through the index model.
	col := InstanceIRI("App One", "db1", "s1", "t1", "customer_id")
	if !st.Contains("m$OWLPRIME", rdf.T(col, rdf.Type, rdf.IRI(rdf.DMNS+"Column"))) {
		t.Error("derived type missing")
	}
}

// TestBulkLoadConcurrentInsertNoLoss is the regression test for the
// snapshot-then-Clear data-loss bug: BulkLoad used to clear the whole
// staging table after loading only the snapshot it took up front, so
// triples inserted while the load ran were silently discarded. Run with
// -race. A final BulkLoad drains leftovers; every inserted triple must
// end up in the model.
func TestBulkLoadConcurrentInsertNoLoss(t *testing.T) {
	const total = 2000
	st := store.New()
	tbl := NewTable(st)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			tbl.InsertTriples([]rdf.Triple{rdf.T(
				rdf.IRI(rdf.DMNS+"item_"+strconv.Itoa(i)),
				rdf.Type,
				rdf.IRI(rdf.DMNS+"Attribute"),
			)})
		}
	}()

	for {
		if _, err := tbl.BulkLoad("m", false); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	// Drain anything staged after the last in-loop load.
	if _, err := tbl.BulkLoad("m", false); err != nil {
		t.Fatal(err)
	}

	if got := st.Len("m"); got != total {
		t.Fatalf("model has %d triples, want %d: concurrent inserts were dropped", got, total)
	}
	if n := tbl.Len(); n != 0 {
		t.Fatalf("staging table still holds %d triples after draining", n)
	}
}
