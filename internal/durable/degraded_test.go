package durable

import (
	"testing"

	"mdw/internal/obs"
	"mdw/internal/rdf"
)

// TestWALDegradedMode breaks the active segment's file under FsyncAlways
// and commits: the fsync fails, the manager turns degraded for good, the
// log stops taking records, the in-memory store keeps reading and
// writing, and mdw_wal_errors_total counts the failure once.
func TestWALDegradedMode(t *testing.T) {
	errs := obs.Default().Counter("mdw_wal_errors_total")
	before := errs.Value()
	mgr, st, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	iri := func(n string) rdf.Term { return rdf.IRI("http://example.com/" + n) }
	st.Add("m", rdf.T(iri("a"), iri("p"), iri("b")))
	if err := mgr.Err(); err != nil {
		t.Fatalf("healthy manager reports %v", err)
	}

	if err := mgr.w.f.Close(); err != nil {
		t.Fatal(err)
	}
	st.Add("m", rdf.T(iri("b"), iri("p"), iri("c")))
	if mgr.Err() == nil {
		t.Fatal("a commit whose fsync failed left the manager healthy")
	}
	lsn := mgr.LastLSN()
	st.Add("m", rdf.T(iri("c"), iri("p"), iri("d")))
	st.Remove("m", rdf.T(iri("a"), iri("p"), iri("b")))
	if got := mgr.LastLSN(); got != lsn {
		t.Errorf("LastLSN moved from %d to %d in degraded mode", lsn, got)
	}
	if n := st.Len("m"); n != 2 {
		t.Errorf("in-memory model holds %d triples after the degraded writes, want 2", n)
	}
	if !st.Contains("m", rdf.T(iri("c"), iri("p"), iri("d"))) {
		t.Error("a write made in degraded mode is not readable")
	}
	if d := errs.Value() - before; d != 1 {
		t.Errorf("mdw_wal_errors_total moved by %d, want 1", d)
	}
	// The failure was reported once, by Err; Close does not repeat it.
	if err := mgr.Close(); err != nil {
		t.Errorf("Close in degraded mode: %v", err)
	}
}
