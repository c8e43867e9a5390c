package durable

import (
	"fmt"
	"os"
	"testing"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/store"
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

// TestWALScratchBounded: records the size of a release's entailment
// extension (≈ 3 MB at paper scale) are encoded into one reused scratch
// buffer, and a 110 000-triple model installed from scratch — a record
// above 10 MB — is encoded whole but does not leave the buffer that large.
func TestWALScratchBounded(t *testing.T) {
	dir := t.TempDir()
	mgr, st, err := Open(Options{Dir: dir, Fsync: FsyncNone, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	triples := func(from, n int) []rdf.Triple {
		ts := make([]rdf.Triple, n)
		for i := range ts {
			ts[i] = rdf.T(rdf.IRI(fmt.Sprintf("http://example.com/s%d", from+i)), rdf.IRI(rdf.RDFType), rdf.IRI("http://example.com/C"))
		}
		return ts
	}
	st.AddAll("m", triples(0, 30_000))
	if c := cap(mgr.buf); c < 3<<20 || c > maxScratch {
		t.Fatalf("a 30 000-triple record left a %d-byte buffer, want 3 MiB to %d bytes", c, maxScratch)
	}
	first := mgr.buf[:1]
	st.AddAll("m", triples(30_000, 30_000))
	if &mgr.buf[:1][0] != &first[0] {
		t.Error("a second 3 MB record regrew the WAL scratch buffer")
	}

	size := func() int64 {
		t.Helper()
		if err := mgr.Sync(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(mgr.w.path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := size()
	m := store.NewModel("m$OWLPRIME")
	ts := triples(0, 110_000)
	ids := make([]store.ETriple, len(ts))
	for i, tr := range ts {
		ids[i] = st.Dict().Encode(tr)
	}
	m.AddAll(ids)
	st.InstallModel(m)
	if n := size() - before; mgr.LastLSN() != 3 || n <= 10<<20 {
		t.Fatalf("the install logged record %d in %d bytes, want record 3 above 10 MiB", mgr.LastLSN(), n)
	}
	if c := cap(mgr.buf); c > maxScratch {
		t.Errorf("the WAL scratch buffer keeps %d bytes after the install, bound %d", c, maxScratch)
	}
}
