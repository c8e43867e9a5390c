package impact

import (
	"testing"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/staging"
)

// TestAnalyzeStartsAtMostOneTrace: the forward traversals of an analysis
// run on the analysis's own graph. Each changed item used to start a root
// "lineage.trace" trace, enough at a paper-scale release to flush the
// tracer's ring of recent traces.
func TestAnalyzeStartsAtMostOneTrace(t *testing.T) {
	st, h := fixture(t)
	// Release 3 changes two items of the customer identification chain.
	for _, path := range [][]string{
		{"pb_frontend", "pbdb", "clients", "client_info", "client_information_id"},
		{"application1", "dwhdb", "mart", "v_customer", "customer_id"},
	} {
		st.Add("m", rdf.T(staging.InstanceIRI(path...), rdf.IRI(rdf.MDWLength), rdf.Integer(128)))
	}
	if _, err := h.Snapshot("R3", day(90)); err != nil {
		t.Fatal(err)
	}
	before := obs.DefaultTracer().Started()
	an, err := New(st, h).Analyze(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Changed) != 2 || len(an.Downstream) == 0 {
		t.Fatalf("changed = %v, downstream = %v: the analysis did not trace two items", an.Changed, an.Downstream)
	}
	if started := obs.DefaultTracer().Started() - before; started > 1 {
		t.Errorf("Analyze started %d traces, want at most 1", started)
	}
}
