package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdw/internal/core"
	"mdw/internal/durable"
	"mdw/internal/impact"
	"mdw/internal/rdf"
	"mdw/internal/staging"
)

// capture runs fn with stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args should error")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown command should error")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
}

func TestSearchCommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"search", "customer"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, `Search Results for "customer"`) || !contains(out, "Attribute") {
		t.Errorf("output:\n%s", out)
	}
	if err := run([]string{"search"}); err == nil {
		t.Error("missing term should error")
	}
}

func TestSearchCommandFlags(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"search", "-class", "Application1_Item,Interface_Item", "-semantic", "customer"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "1 matching instances") {
		t.Errorf("output:\n%s", out)
	}
}

func TestLineageCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"lineage", "application1/dwhdb/mart/v_customer/customer_id"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "backward lineage of customer_id") || !contains(out, "partner_id -> customer_id") {
		t.Errorf("output:\n%s", out)
	}
	// Roll-up and direction flags.
	out, err = capture(t, func() error {
		return run([]string{"lineage", "-level", "application",
			"application1/dwhdb/mart/v_customer/customer_id"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "pb_frontend -> application1") {
		t.Errorf("app-level output:\n%s", out)
	}
	out, err = capture(t, func() error {
		return run([]string{"lineage", "-dir", "forward",
			"pb_frontend/pbdb/clients/client_info/client_information_id"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "forward lineage") {
		t.Errorf("forward output:\n%s", out)
	}
	if err := run([]string{"lineage", "-dir", "sideways", "x"}); err == nil {
		t.Error("bad direction should error")
	}
	if err := run([]string{"lineage", "-level", "galaxy", "x"}); err == nil {
		t.Error("bad level should error")
	}
	if err := run([]string{"lineage"}); err == nil {
		t.Error("missing item should error")
	}
}

func TestQueryCommand(t *testing.T) {
	q := `PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#>
		SELECT ?name WHERE { ?x a dm:Attribute . ?x dm:hasName ?name } ORDER BY ?name`
	out, err := capture(t, func() error { return run([]string{"query", q}) })
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "customer_id") || !contains(out, "rows)") {
		t.Errorf("output:\n%s", out)
	}
	// Facts-only sees nothing inferred.
	out, err = capture(t, func() error { return run([]string{"query", "-facts-only", q}) })
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "(0 rows)") {
		t.Errorf("facts-only output:\n%s", out)
	}
	if err := run([]string{"query", "NOT SPARQL"}); err == nil {
		t.Error("bad query should error")
	}
}

func TestSemMatchCommand(t *testing.T) {
	call := `SEM_MATCH(
		{?source_id dt:isMappedTo ?target_id .
		 ?target_id rdf:type dm:Application1_View_Column .
		 ?target_id dm:hasName ?target_name},
		SEM_MODELS('DWH_CURR'),
		SEM_RULEBASES('OWLPRIME'),
		SEM_ALIASES(
			SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'),
			SEM_ALIAS('dt', 'http://www.credit-suisse.com/dwh/mdm/data_transfer#')),
		null)`
	out, err := capture(t, func() error { return run([]string{"semmatch", call}) })
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "customer_id") {
		t.Errorf("output:\n%s", out)
	}
}

func TestStatsCommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"stats", "-validate"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"triples", "nodes", "Facts", "validation:"} {
		if !contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestGenerateAndDataRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	out, err := capture(t, func() error {
		return run([]string{"generate", "-scale", "small", "-out", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "ontology.ttl") || !contains(out, "mapping chains") {
		t.Errorf("generate output:\n%s", out)
	}
	// The generated directory is loadable by every command.
	out, err = capture(t, func() error {
		return run([]string{"search", "-data", dir, "-desc", "customer"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "matching instances") {
		t.Errorf("search -data output:\n%s", out)
	}
	if err := run([]string{"generate", "-scale", "bogus", "-out", dir}); err == nil {
		t.Error("bad scale should error")
	}
}

func TestReportCommands(t *testing.T) {
	for _, artifact := range []string{"table1", "subjects", "figure6", "figure7"} {
		out, err := capture(t, func() error { return run([]string{"report", artifact}) })
		if err != nil {
			t.Fatalf("report %s: %v", artifact, err)
		}
		if len(out) < 40 {
			t.Errorf("report %s output suspiciously short:\n%s", artifact, out)
		}
	}
	if err := run([]string{"report"}); err == nil {
		t.Error("missing artifact should error")
	}
	if err := run([]string{"report", "bogus"}); err == nil {
		t.Error("unknown artifact should error")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

func TestImpactCommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"impact"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "impact of release R1 -> R2") || !contains(out, "application1") {
		t.Errorf("output:\n%s", out)
	}
	if err := run([]string{"impact", "-from", "1", "-to", "9"}); err == nil {
		t.Error("missing release should error")
	}
}

// TestImpactCommandDataDir: `impact -data-dir` reads the releases a
// durable warehouse historized — the report equals the one the warehouse
// that wrote the directory computes — and leaves the directory as it was.
func TestImpactCommandDataDir(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{Dir: dir, Fsync: durable.FsyncNone}
	w, mgr, err := core.OpenDurable("", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Seed(w, "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Snapshot("R1", time.Date(2009, 1, 15, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	src := staging.InstanceIRI("pb_frontend", "pbdb", "clients", "client_info", "client_information_id")
	w.LoadTriples([]rdf.Triple{rdf.T(src, rdf.IRI(rdf.MDWLength), rdf.Integer(64))})
	if _, err := w.Snapshot("R2", time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	an, err := w.ImpactOfRelease(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := impact.Format(an)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)

	out, err := capture(t, func() error { return run([]string{"impact", "-data-dir", dir, "-from", "1", "-to", "2"}) })
	if err != nil {
		t.Fatal(err)
	}
	if out != want || !contains(out, "application1") {
		t.Errorf("impact -data-dir printed:\n%s\nthe writing warehouse computes:\n%s", out, want)
	}
	if after := dirListing(t, dir); after != before {
		t.Errorf("impact -data-dir changed the directory:\n%s\nwas:\n%s", after, before)
	}

	// A directory without releases fails in the historian, not in recovery.
	empty := t.TempDir()
	if err := run([]string{"impact", "-data-dir", empty}); err == nil || !contains(err.Error(), "no version 1") {
		t.Errorf("impact on a directory without releases: %v, want the historian's no version 1", err)
	}
	if err := run([]string{"impact", "-data-dir", filepath.Join(empty, "missing")}); err == nil {
		t.Error("impact on a missing directory did not fail")
	}
}

// dirListing renders the names and sizes of the files in dir.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d\n", e.Name(), info.Size())
	}
	return b.String()
}

func TestAuditCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"audit", "application1/dwhdb/mart/v_customer/customer_id"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "access audit for customer_id") || !contains(out, "carol") {
		t.Errorf("output:\n%s", out)
	}
	if err := run([]string{"audit"}); err == nil {
		t.Error("missing item should error")
	}
}

func TestLearnSchemaCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"learn-schema", "-min-instances", "1", "-migrate"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "CREATE TABLE") || !contains(out, "migrated") {
		t.Errorf("output:\n%s", out)
	}
}

func TestQueryExplain(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"query", "-explain", "SELECT ?x WHERE { ?x ?p ?o }"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "BGP") {
		t.Errorf("output:\n%s", out)
	}
	if err := run([]string{"query", "-explain", "BAD"}); err == nil {
		t.Error("bad query should error in explain")
	}
}

func TestCloneCommand(t *testing.T) {
	if err := run([]string{"clone"}); err == nil {
		t.Error("clone without DST did not fail")
	}
	out, err := capture(t, func() error { return run([]string{"clone", "SANDBOX"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cloned DWH_CURR -> SANDBOX") || !strings.Contains(out, "copy-on-write") {
		t.Errorf("clone output = %q", out)
	}
	if err := run([]string{"clone", "MDW$META"}); err == nil || !contains(err.Error(), "reserved") {
		t.Errorf("clone into a reserved name: %v, want the reserved-name error", err)
	}
}
