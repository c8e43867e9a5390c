package core

import (
	"os"
	"path/filepath"
	"testing"

	"mdw/internal/dbpedia"
	"mdw/internal/landscape"
	"mdw/internal/lineage"
	"mdw/internal/ntriples"
	"mdw/internal/rdf"
	"mdw/internal/search"
	"mdw/internal/staging"
)

// writeDataDir lays out a directory in the `mdw generate` format.
func writeDataDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	l := landscape.Generate(landscape.Small())
	for _, e := range l.Exports {
		doc, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, staging.Slug(e.Source)+".xml"), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "ontology.ttl"), []byte(l.Ontology.Turtle()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "dbpedia.nt"), []byte(ntriples.Marshal(dbpedia.Banking())), 0o644); err != nil {
		t.Fatal(err)
	}
	if extra := l.ExtraTriples(); len(extra) > 0 {
		if err := os.WriteFile(filepath.Join(dir, "auxiliary.nt"), []byte(ntriples.Marshal(extra)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// seedFrom seeds a fresh warehouse from a data directory.
func seedFrom(dir string) (*Warehouse, error) {
	w := New("")
	return w, Seed(w, dir, "")
}

func TestLoadDir(t *testing.T) {
	dir := writeDataDir(t)
	w, err := seedFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().Triples < 1000 {
		t.Errorf("triples = %d", w.Stats().Triples)
	}
	if w.Ontology() == nil {
		t.Error("ontology not loaded")
	}
	if w.Thesaurus() == nil {
		t.Error("thesaurus not integrated")
	}
	// Full behaviour: search and lineage on the loaded warehouse.
	res, err := w.Search("customer", search.Options{Semantic: true})
	if err != nil || res.Instances == 0 {
		t.Errorf("search = %v, %v", res, err)
	}
	if _, err := w.Lineage(rdf.IRI("http://nowhere/x"), lineage.Backward, lineage.Options{}); err == nil {
		t.Error("unknown item lineage should error")
	}
	// Accessors exercised.
	if w.Store() == nil {
		t.Error("Store() nil")
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := seedFrom("/no/such/dir"); err == nil {
		t.Error("missing dir should error")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.xml"), []byte("<not-xml"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := seedFrom(dir); err == nil {
		t.Error("broken XML should error")
	}
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "broken.ttl"), []byte("not turtle ."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := seedFrom(dir2); err == nil {
		t.Error("broken Turtle should error")
	}
	dir3 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir3, "broken.nt"), []byte("junk line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := seedFrom(dir3); err == nil {
		t.Error("broken N-Triples should error")
	}
	dir4 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir4, "dbpedia.nt"), []byte("junk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := seedFrom(dir4); err == nil {
		t.Error("broken dbpedia.nt should error")
	}
}

func TestAuditThroughFacade(t *testing.T) {
	w := buildWarehouse(t)
	item := staging.InstanceIRI("application1", "dwhdb", "mart", "v_customer", "customer_id")
	rep, err := w.Audit(item, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Users()) == 0 {
		t.Error("no users in audit")
	}
}
