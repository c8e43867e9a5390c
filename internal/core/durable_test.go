package core_test

import (
	"context"
	"testing"
	"time"

	"mdw/internal/core"
	"mdw/internal/durable"
	"mdw/internal/landscape"
	"mdw/internal/staging"
)

// TestOpenDurableFullLifecycle drives a warehouse through load, query,
// release snapshot, and search across a close/reopen cycle — the
// operational story of `mdwd -data-dir`.
func TestOpenDurableFullLifecycle(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{Dir: dir, Fsync: durable.FsyncNone}

	w, mgr, err := core.OpenDurable("", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.LoadExports([]*staging.Export{landscape.Figure3Export()}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Snapshot("release-1", time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	res, err := w.Query(context.Background(), `SELECT ?s WHERE { ?s ?p ?o } LIMIT 1`, core.QueryOptions{})
	if err != nil || res.Result.Len() == 0 {
		t.Fatalf("query before close: %v", err)
	}
	before := w.Stats()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	w2, mgr2, err := core.OpenDurable("", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	after := w2.Stats()
	if after.Triples != before.Triples || after.Derived != before.Derived {
		t.Errorf("recovered %d+%d triples, want %d+%d", after.Triples, after.Derived, before.Triples, before.Derived)
	}
	if !after.IndexCurrent {
		t.Error("entailment index not current after recovery")
	}
	if after.Versions != 1 {
		t.Errorf("recovered %d release versions, want 1 (snapshot metadata lost)", after.Versions)
	}
	vs := w2.History().Versions()
	if len(vs) != 1 || vs[0].Tag != "release-1" {
		t.Errorf("recovered versions %+v, want the release-1 snapshot", vs)
	}
	res, err = w2.Query(context.Background(), `SELECT ?s WHERE { ?s ?p ?o } LIMIT 1`, core.QueryOptions{})
	if err != nil || res.Result.Len() == 0 {
		t.Fatalf("query after reopen: %v", err)
	}
}
