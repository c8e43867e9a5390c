package core

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mdw/internal/dbpedia"
	"mdw/internal/landscape"
	"mdw/internal/lineage"
	"mdw/internal/ntriples"
	"mdw/internal/rdf"
	"mdw/internal/search"
	"mdw/internal/staging"
	"mdw/internal/store"
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

// A directory loads whole or not at all: a malformed file first or last
// in read order leaves the model empty, and the error names the file
// (and, for N-Triples, the 1-based line).
func TestLoadDirAllOrNothing(t *testing.T) {
	bad := []struct{ ext, doc, want string }{
		{".xml", "<metadata><application name=\"a\">", "XML syntax error"},
		{".xml", `<metadata><interface name="i"/></metadata>`, "missing from/to"},
		{".ttl", "not turtle .", ""},
		{".nt", "<http://a/s> <http://a/p> <http://a/o> .\n\njunk line\n", "line 3"},
	}
	for _, b := range bad {
		for _, name := range []string{"0-bad" + b.ext, "zz-bad" + b.ext} {
			dir := writeDataDir(t)
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, []byte(b.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := seedFrom(dir)
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), b.want) {
				t.Errorf("%s: error %v, want one naming the file and %q", name, err, b.want)
			}
			if names := w.Store().ModelNames(); len(names) != 1 || w.Store().Len(w.Model()) != 0 {
				t.Errorf("%s: a failed load left models %v, %d base triples", name, names, w.Store().Len(w.Model()))
			}
		}
	}
}

// Seeding from a directory in the `mdw generate` layout and seeding the
// same landscape directly give the same base and entailed triples, and
// the ID staging table loads exactly what staging.Transform returns.
func TestSeedPathsAgree(t *testing.T) {
	fromDir, err := seedFrom(writeDataDir(t))
	if err != nil {
		t.Fatal(err)
	}
	direct := New("")
	if err := Seed(direct, "", "small"); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{DefaultModel, DefaultModel + "$OWLPRIME"} {
		got, want := fromDir.Store().Triples(m), direct.Store().Triples(m)
		if !slices.Equal(got, want) {
			t.Errorf("%s: directory seed has %d triples, direct seed %d", m, len(got), len(want))
		}
	}
	for _, e := range landscape.Generate(landscape.Small()).Exports {
		ts, err := staging.Transform(e)
		if err != nil {
			t.Fatal(err)
		}
		oracle := store.New()
		oracle.AddAll("m", ts)
		st := store.New()
		tbl := staging.NewTable(st)
		if err := tbl.InsertExport(e); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.BulkLoad("m", false); err != nil {
			t.Fatal(err)
		}
		if got, want := st.Triples("m"), oracle.Triples("m"); !slices.Equal(got, want) {
			t.Errorf("export %s: the ID table loaded %d triples, Transform gives %d", e.Source, len(got), len(want))
		}
	}
}

// seedBytesPerTriple bounds what LoadDirInto allocates per base triple
// it loads at small scale. Staging IDs instead of rdf.Triples, and
// reading the files one at a time, brought it from about 2 465 B to
// about 1 390 B.
const seedBytesPerTriple = 1530

func TestSeedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what a load allocates")
	}
	dir := writeDataDir(t)
	var before, after runtime.MemStats
	w := New("")
	runtime.ReadMemStats(&before)
	if err := LoadDirInto(w, dir); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	n := w.Store().Len(w.Model())
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(n); per > seedBytesPerTriple {
		t.Errorf("LoadDirInto allocated %.0f B per loaded triple (%d triples), bound %d", per, n, seedBytesPerTriple)
	} else {
		t.Logf("LoadDirInto allocated %.0f B per loaded triple (%d triples)", per, n)
	}
}
