package durable_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"mdw/internal/durable"
	"mdw/internal/rdf"
	"mdw/internal/store"
)

// listing renders a directory's file names and sizes, so a test can tell
// that a call wrote nothing.
func listing(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d\n", e.Name(), fi.Size())
	}
	return b.String()
}

// seedFixture is what a seed writes: a bulk base model, its entailment
// index, and a second model.
func seedFixture(t *testing.T, st *store.Store) {
	t.Helper()
	bulk(st, "m", 2000)
	st.Add("m", rdf.T(iri("x"), iri("p"), iri("y")))
	materialize(t, st, "m")
	bulk(st, "other", 300)
}

// TestSeedWritesOneBase: a seed reaches the directory as one base
// checkpoint at LSN 0 and no WAL record; the directory recovers to the
// seeded store exactly, and the first load after it checkpoints as a
// delta on that base.
func TestSeedWritesOneBase(t *testing.T) {
	dir := t.TempDir()
	mgr, st := openTest(t, dir, nil)
	if err := mgr.Seed(func() error { seedFixture(t, st); return nil }); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(st)
	if mgr.LastLSN() != 0 {
		t.Errorf("the seed logged %d WAL records", mgr.LastLSN())
	}
	if got := filesWith(t, dir, "snap-"); !slices.Equal(got, []string{"snap-0000000000000000.snap"}) {
		t.Errorf("base checkpoints after the seed: %v, want the one at LSN 0", got)
	}
	if n := countFiles(t, dir, "delta-"); n != 0 {
		t.Errorf("%d delta checkpoints after the seed", n)
	}
	if recs := walRecords(t, dir); len(recs) != 0 {
		t.Errorf("the WAL holds %d records after the seed", len(recs))
	}
	ro, _, err := durable.RecoverReadOnly(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(ro) != want {
		t.Fatal("the seeded directory does not recover the seeded store")
	}

	// Writes after the seed are logged again, and checkpoint as a delta.
	bulk(st, "load", 200)
	checkpoint(t, mgr, durable.CheckpointDelta)
	after := fingerprint(st)
	mgr.Close()

	mgr2, st2 := openTest(t, dir, nil)
	defer mgr2.Close()
	if fingerprint(st2) != after {
		t.Fatal("the seeded directory did not recover the seeded store and the load after it")
	}
	if rec := mgr2.Recovery(); rec.SnapshotLSN != 0 || rec.DeltaCheckpoints != 1 {
		t.Errorf("recovery read the base at LSN %d and %d deltas, want LSN 0 and 1", rec.SnapshotLSN, rec.DeltaCheckpoints)
	}
}

// TestSeedErrorLeavesDirectoryEmpty: a seed that fails after some of its
// writes leaves a directory that recovers empty and can be seeded again;
// and the manager logs nothing more, since the store is ahead of it.
func TestSeedErrorLeavesDirectoryEmpty(t *testing.T) {
	dir := t.TempDir()
	mgr, st := openTest(t, dir, nil)
	crash := errors.New("crash mid-seed")
	err := mgr.Seed(func() error {
		bulk(st, "m", 500)
		materialize(t, st, "m")
		return crash
	})
	if !errors.Is(err, crash) {
		t.Fatalf("Seed returned %v, want the seed's error", err)
	}
	st.Add("m", rdf.T(iri("after"), iri("p"), iri("q")))
	if mgr.LastLSN() != 0 {
		t.Errorf("a write after the failed seed was logged at LSN %d", mgr.LastLSN())
	}
	mgr.Close()
	if n := countFiles(t, dir, "snap-") + countFiles(t, dir, "delta-"); n != 0 {
		t.Errorf("the failed seed left %d checkpoint files", n)
	}

	mgr2, st2 := openTest(t, dir, nil)
	defer mgr2.Close()
	if names := st2.ModelNames(); len(names) != 0 {
		t.Fatalf("the directory of a failed seed recovered models %v", names)
	}
	if err := mgr2.Seed(func() error { seedFixture(t, st2); return nil }); err != nil {
		t.Fatalf("seeding again: %v", err)
	}
}

// TestCheckpointNeverWritesHalfASeed: a checkpoint asked for while the
// seed runs waits for it, and after the seed failed it writes nothing:
// the store in memory holds half a seed that must not reach the
// directory.
func TestCheckpointNeverWritesHalfASeed(t *testing.T) {
	dir := t.TempDir()
	mgr, st := openTest(t, dir, nil)
	defer mgr.Close()
	var cpErr error
	done := make(chan struct{})
	crash := errors.New("crash mid-seed")
	err := mgr.Seed(func() error {
		bulk(st, "m", 500)
		go func() {
			_, cpErr = mgr.Checkpoint()
			close(done)
		}()
		select {
		case <-done:
			t.Error("a checkpoint ran while the seed did")
		case <-time.After(50 * time.Millisecond):
		}
		return crash
	})
	if !errors.Is(err, crash) {
		t.Fatalf("Seed returned %v, want the seed's error", err)
	}
	<-done
	if cpErr == nil {
		t.Error("a checkpoint after the failed seed succeeded")
	}
	if _, err := mgr.Checkpoint(); err == nil {
		t.Error("a checkpoint after the failed seed succeeded")
	}
	if n := countFiles(t, dir, "snap-") + countFiles(t, dir, "delta-"); n != 0 {
		t.Errorf("%d checkpoint files hold the failed seed", n)
	}
}

// TestSeedTempFileFromCrashIsRemoved: a crash while the seed's base was
// being written leaves a partial temp file and nothing else; Open removes
// it and the directory recovers empty, ready to be seeded.
func TestSeedTempFileFromCrashIsRemoved(t *testing.T) {
	src := t.TempDir()
	mgr, st := openTest(t, src, nil)
	if err := mgr.Seed(func() error { seedFixture(t, st); return nil }); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	whole, err := os.ReadFile(filepath.Join(src, "snap-0000000000000000.snap"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tmp := filepath.Join(dir, ".snap-tmp-123456")
	if err := os.WriteFile(tmp, whole[:len(whole)/2], 0o600); err != nil {
		t.Fatal(err)
	}

	mgr2, st2 := openTest(t, dir, nil)
	defer mgr2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("the temp file of the crashed seed is still there (%v)", err)
	}
	if names := st2.ModelNames(); len(names) != 0 {
		t.Fatalf("a directory holding only a temp file recovered models %v", names)
	}
	if err := mgr2.Seed(func() error { seedFixture(t, st2); return nil }); err != nil {
		t.Fatalf("seeding after the crash: %v", err)
	}
}

// TestSeedRefusesUsedDirectory: Seed runs only on a directory with no
// checkpoint and no WAL record; on any other it returns an error without
// calling fn or writing a byte, and the manager keeps logging.
func TestSeedRefusesUsedDirectory(t *testing.T) {
	for _, tc := range []struct {
		name string
		use  func(*durable.Manager, *store.Store)
	}{
		{"wal record", func(_ *durable.Manager, st *store.Store) { st.Add("m", rdf.T(iri("a"), iri("p"), iri("b"))) }},
		{"checkpoint", func(mgr *durable.Manager, st *store.Store) {
			if err := mgr.Seed(func() error { bulk(st, "m", 10); return nil }); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			mgr, st := openTest(t, dir, nil)
			tc.use(mgr, st)
			mgr.Close()

			mgr2, st2 := openTest(t, dir, nil)
			defer mgr2.Close()
			if err := mgr2.Sync(); err != nil {
				t.Fatal(err)
			}
			before, lsn := listing(t, dir), mgr2.LastLSN()
			called := false
			if err := mgr2.Seed(func() error { called = true; return nil }); err == nil {
				t.Fatal("Seed accepted a directory in use")
			}
			if called {
				t.Error("Seed ran fn on a directory in use")
			}
			if got := listing(t, dir); got != before {
				t.Errorf("the refused Seed changed the directory:\n%s\nwant\n%s", got, before)
			}
			st2.Add("m", rdf.T(iri("c"), iri("p"), iri("d")))
			if mgr2.LastLSN() != lsn+1 {
				t.Errorf("after the refused Seed a write moved LastLSN from %d to %d, want it logged", lsn, mgr2.LastLSN())
			}
		})
	}
}

// TestSeedKilledAtReadyHasNoTornTail: a seeded directory whose server is
// killed before its first write recovers without a torn WAL tail. The
// manager is abandoned, as kill -9 leaves it — never closed, its buffers
// never flushed — so the WAL's segment holds only what its creation wrote.
func TestSeedKilledAtReadyHasNoTornTail(t *testing.T) {
	dir := t.TempDir()
	mgr, st := openTest(t, dir, nil)
	if err := mgr.Seed(func() error { seedFixture(t, st); return nil }); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(st)
	mgr2, st2 := openTest(t, dir, nil)
	defer mgr2.Close()
	if torn := mgr2.Recovery().TornTail; torn != "" {
		t.Errorf("a seeded directory killed at ready recovers with a torn tail: %s", torn)
	}
	if fingerprint(st2) != want {
		t.Error("the seeded directory does not recover the seeded store")
	}
}
