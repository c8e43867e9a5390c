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

// TestUsageNamesEveryCommand: the help text lists every subcommand the
// surface catalogue records for mdw, and nothing run does not dispatch.
func TestUsageNamesEveryCommand(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "surface.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	usage(&b)
	listed := map[string]bool{}
	_, cmds, _ := strings.Cut(b.String(), "commands:\n")
	for _, line := range strings.Split(cmds, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			listed[f[0]] = true
		}
	}
	for _, line := range strings.Split(string(golden), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "cmd" || f[1] != "mdw" {
			continue
		}
		if !listed[f[2]] {
			t.Errorf("usage does not list the catalogued subcommand %q", f[2])
		}
		delete(listed, f[2])
	}
	for c := range listed {
		t.Errorf("usage lists %q, which the catalogue does not record", c)
	}
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

// TestSearchCommandFilters: the Figure 6 filters narrow the 8 items that
// match "customer" in Figure 3 to those under a container named mart and
// to the physical layer (-tag is checked on a generated landscape, which
// carries governance tags, in TestGenerateAndDataRoundTrip).
func TestSearchCommandFilters(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"customer"}, "8 matching instances"},
		{[]string{"-area", "mart", "customer"}, "2 matching instances"},
		{[]string{"-layer", "physical", "customer"}, "2 matching instances"},
	} {
		out, err := capture(t, func() error { return run(append([]string{"search"}, c.args...)) })
		if err != nil {
			t.Fatal(err)
		}
		if !contains(out, c.want) {
			t.Errorf("search %v: want %q in\n%s", c.args, c.want, out)
		}
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
	// §V rule conditions: only the mappings whose rule mentions "partner"
	// are followed, so the trace stops one hop back.
	out, err = capture(t, func() error {
		return run([]string{"lineage", "-rule", "partner", "application1/dwhdb/mart/v_customer/customer_id"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "(2 nodes, 1 edges)") || !contains(out, "partner_id -> customer_id") || contains(out, "source_customer_id") {
		t.Errorf("-rule partner output:\n%s", out)
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
	// The generated directory is loadable by every command that takes
	// -data. Descriptions add hits; -tag pii keeps the tagged half.
	item := "app0_payments/db0/schema0/t0_2/customer_id"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"search", "customer"}, "4 matching instances"},
		{[]string{"search", "-desc", "customer"}, "12 matching instances"},
		{[]string{"search", "-tag", "pii", "customer"}, "2 matching instances"},
		{[]string{"lineage", "-dir", "forward", item}, "forward lineage of customer_id"},
		{[]string{"audit", item}, "user0"},
		{[]string{"query", "SELECT ?s WHERE { ?s ?p ?o } LIMIT 3"}, "(3 rows)"},
		{[]string{"explain", "SELECT ?s WHERE { ?s ?p ?o }"}, "BGP"},
		{[]string{"semmatch", "SEM_MATCH({?s rdf:type ?c}, SEM_MODELS('DWH_CURR'), SEM_RULEBASES('OWLPRIME'), null)"}, "rows)"},
		{[]string{"stats"}, "2550 base"},
		{[]string{"learn-schema"}, "CREATE TABLE"},
		{[]string{"metrics"}, "mdw_lineage_trace_seconds_count"},
		{[]string{"top"}, "SELECT ?class ?object"},
		{[]string{"clone", "SANDBOX"}, "(2550 triples, copy-on-write)"},
	} {
		args := append([]string{c.args[0], "-data", dir}, c.args[1:]...)
		out, err := capture(t, func() error { return run(args) })
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !contains(out, c.want) {
			t.Errorf("%v: want %q in\n%s", args, c.want, out)
		}
	}
	if err := run([]string{"generate", "-scale", "bogus", "-out", dir}); err == nil {
		t.Error("bad scale should error")
	}
}

func TestReportCommands(t *testing.T) {
	for _, artifact := range reportNames() {
		out, err := capture(t, func() error { return run([]string{"report", artifact, "-scale", "small"}) })
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
	// A wrong name is answered with every artifact there is.
	err := run([]string{"report", "bogus"})
	if err == nil || !contains(err.Error(), `"bogus"`) {
		t.Fatalf("unknown artifact: %v", err)
	}
	for _, name := range []string{"table1", "subjects", "scale", "figure6", "figure7", "growth"} {
		if !contains(err.Error(), name) {
			t.Errorf("the unknown-artifact error does not list %q: %v", name, err)
		}
	}
	if len(reports) != 6 {
		t.Errorf("cmdReport handles %d artifacts; the error check above names 6", len(reports))
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
	if !contains(out, "access audit for customer_id") || !contains(out, "carol") || !contains(out, "via lineage") {
		t.Errorf("output:\n%s", out)
	}
	// Direct access only: alice reaches the mart column through its
	// source application, so she drops out.
	out, err = capture(t, func() error {
		return run([]string{"audit", "-lineage=false", "application1/dwhdb/mart/v_customer/customer_id"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "carol") || contains(out, "alice") || contains(out, "via lineage") {
		t.Errorf("-lineage=false output:\n%s", out)
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
