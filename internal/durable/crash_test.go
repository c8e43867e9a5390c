package durable_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdw/internal/durable"
	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/store"
)

// copyDir clones a data directory so a destructive experiment can run on
// a throwaway copy.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestTruncateAtEveryByte is the crash harness: it tears, at EVERY byte
// offset, each kind of file a crash can leave half-written — the WAL's
// last segment, and the newest delta checkpoint with the WAL behind it
// not yet truncated — and recovers.
func TestTruncateAtEveryByte(t *testing.T) {
	t.Run("wal", tearWAL)
	t.Run("newest-delta", tearNewestDelta)
}

// tearWAL records a WAL of known mutations, notes the store fingerprint
// after every commit (the oracle), then simulates a crash at every byte
// offset of the log by truncating a copy and recovering. Each recovery
// must either succeed with a state exactly matching some committed
// prefix, and the prefix length must grow monotonically with the
// truncation point — a torn final record never surfaces partial effects.
func tearWAL(t *testing.T) {
	dir := t.TempDir()
	mgr, st := openTest(t, dir, nil)

	oracle := []string{fingerprint(st)} // oracle[i] = state after i commits
	commit := func(f func()) {
		f()
		oracle = append(oracle, fingerprint(st))
	}
	commit(func() { st.Add("m", rdf.T(iri("a"), iri("p"), iri("b"))) })
	commit(func() {
		st.AddAll("m", []rdf.Triple{
			rdf.T(iri("b"), iri("p"), iri("c")),
			rdf.T(iri("b"), iri("p"), rdf.Literal("x")),
		})
	})
	commit(func() { st.Add("m2", rdf.T(rdf.Blank("n"), iri("p"), rdf.LangLiteral("hi", "en"))) })
	commit(func() { st.Remove("m", rdf.T(iri("a"), iri("p"), iri("b"))) })
	commit(func() {
		if err := st.CloneModel("m", "m_clone"); err != nil {
			t.Fatal(err)
		}
	})
	commit(func() { st.DropModel("m_clone") })
	// An index installed whole and then extended: a crash anywhere inside
	// either record must leave the previous index, never a partial one.
	materialize := func() {
		if _, err := reason.Materialize(st, "m"); err != nil {
			t.Fatal(err)
		}
	}
	commit(func() {
		st.AddAll("m", []rdf.Triple{
			rdf.T(iri("Sub"), rdf.SubClassOf, iri("Super")),
			rdf.T(iri("a"), rdf.Type, iri("Sub")),
		})
	})
	commit(materialize)
	commit(func() {
		st.AddAll("m", []rdf.Triple{
			rdf.T(iri("c"), rdf.Type, iri("Sub")),
			rdf.T(iri("a"), rdf.Type, iri("Super")),
		})
	})
	commit(materialize)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	segs := walFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("expected a single WAL segment, got %v", segs)
	}
	walPath := filepath.Join(dir, segs[0])
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	tornTails := obs.Default().Counter("mdw_recovery_torn_tails_total")
	prevPrefix := -1
	for n := 0; n <= len(full); n++ {
		crash := copyDir(t, dir)
		if err := os.WriteFile(filepath.Join(crash, segs[0]), full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		torn0 := tornTails.Value()
		rst, stats, err := durable.Recover(crash, nil)
		if n < 16 && err == nil && stats.LastLSN > 0 {
			t.Fatalf("truncate@%d: header missing but records recovered", n)
		}
		if err != nil {
			// A truncated *header* is the only acceptable failure; once the
			// header is intact every prefix must recover.
			if n >= 16 {
				t.Fatalf("truncate@%d: recovery failed: %v", n, err)
			}
			continue
		}
		if moved, torn := tornTails.Value()-torn0, stats.TornTail != ""; moved != 0 && !torn || torn && moved != 1 {
			t.Fatalf("truncate@%d: torn tail %q, mdw_recovery_torn_tails_total moved by %d", n, stats.TornTail, moved)
		}
		// States can repeat across the history (e.g. clone then drop), so
		// the recovered LSN identifies which prefix the state must equal.
		prefix := int(stats.LastLSN)
		if prefix >= len(oracle) {
			t.Fatalf("truncate@%d: recovered LSN %d beyond the %d committed records", n, stats.LastLSN, len(oracle)-1)
		}
		if got := fingerprint(rst); got != oracle[prefix] {
			t.Fatalf("truncate@%d: recovered state does not match committed prefix %d:\n--- want ---\n%s--- got ---\n%s", n, prefix, oracle[prefix], got)
		}
		if prefix < prevPrefix {
			t.Fatalf("truncate@%d: recovered prefix %d < previous %d (lost a committed record)", n, prefix, prevPrefix)
		}
		prevPrefix = prefix
	}
	if prevPrefix != len(oracle)-1 {
		t.Errorf("full-length recovery reached prefix %d, want %d", prevPrefix, len(oracle)-1)
	}
}

// TestTornTailTruncatedOnce verifies a torn tail is reported, physically
// truncated, and that a second recovery of the same directory is clean.
func TestTornTailTruncatedOnce(t *testing.T) {
	dir := t.TempDir()
	mgr, st := openTest(t, dir, nil)
	st.Add("m", rdf.T(iri("a"), iri("p"), iri("b")))
	st.Add("m", rdf.T(iri("c"), iri("p"), iri("d")))
	mgr.Close()

	segs := walFiles(t, dir)
	walPath := filepath.Join(dir, segs[0])
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last 3 bytes: the final record is torn mid-payload.
	if err := os.Truncate(walPath, int64(len(full)-3)); err != nil {
		t.Fatal(err)
	}

	rst, stats, err := durable.Recover(dir, nil)
	if err != nil {
		t.Fatalf("recovery with torn tail failed: %v", err)
	}
	if stats.TornTail == "" {
		t.Error("torn tail not reported")
	}
	if stats.LastLSN != 1 || rst.Len("m") != 1 {
		t.Errorf("LastLSN=%d Len=%d, want 1/1", stats.LastLSN, rst.Len("m"))
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() >= int64(len(full)-3) {
		t.Errorf("torn tail not truncated: size %d", fi.Size())
	}

	_, stats2, err := durable.Recover(dir, nil)
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	if stats2.TornTail != "" {
		t.Error("second recovery still reports a torn tail")
	}
}

// TestCrashAfterRotationLeavesEmptySegment reproduces a kill -9 right
// after a checkpoint rotated the WAL: the fresh segment's header still
// sat in the write buffer, so the file on disk is zero bytes. Recovery
// must treat that as a torn creation, not corruption.
func TestCrashAfterRotationLeavesEmptySegment(t *testing.T) {
	dir := t.TempDir()
	mgr, st := openTest(t, dir, nil)
	st.Add("m", rdf.T(iri("a"), iri("p"), iri("b")))
	if _, err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	segs := walFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 active segment after checkpoint, got %v", segs)
	}
	hdr, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the unflushed header: empty the file, and also try a
	// half-written header.
	for _, keep := range []int{0, 7} {
		if err := os.WriteFile(filepath.Join(dir, segs[0]), hdr[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		rst, stats, err := durable.Recover(dir, nil)
		if err != nil {
			t.Fatalf("header truncated to %d bytes: recovery failed: %v", keep, err)
		}
		if stats.TornTail == "" {
			t.Errorf("header truncated to %d bytes: torn tail not reported", keep)
		}
		if rst.Len("m") != 1 {
			t.Errorf("header truncated to %d bytes: lost the checkpointed triple", keep)
		}
		// The stub must be gone so the next Open can recreate it cleanly.
		if _, err := os.Stat(filepath.Join(dir, segs[0])); !os.IsNotExist(err) {
			t.Errorf("header truncated to %d bytes: torn segment stub not removed", keep)
		}
	}
}

// TestMidLogCorruptionIsFatal flips one payload byte of a non-final
// record: valid frames follow, so this is damage, not a crash tail, and
// recovery must refuse rather than silently drop committed records.
func TestMidLogCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	mgr, st := openTest(t, dir, nil)
	st.Add("m", rdf.T(iri("a"), iri("p"), iri("b")))
	st.Add("m", rdf.T(iri("c"), iri("p"), iri("d")))
	mgr.Close()

	segs := walFiles(t, dir)
	walPath := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[16+8+4] ^= 0xff // first payload byte of record 1
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := durable.Recover(dir, nil); err == nil {
		t.Fatal("mid-log corruption not detected")
	} else if !strings.Contains(err.Error(), "corruption") {
		t.Errorf("error does not name corruption: %v", err)
	}
}

// TestWALGapIsFatal deletes the oldest segment while no snapshot covers
// it: the LSN discontinuity must be a hard error.
func TestWALGapIsFatal(t *testing.T) {
	dir := t.TempDir()
	mgr, st := openTest(t, dir, func(o *durable.Options) { o.SegmentBytes = 128 })
	for i := 0; i < 20; i++ {
		st.Add("m", rdf.T(iri(fmt.Sprintf("s%d", i)), iri("p"), iri("o")))
	}
	mgr.Close()

	segs := walFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %v", segs)
	}
	if err := os.Remove(filepath.Join(dir, segs[0])); err != nil {
		t.Fatal(err)
	}
	if _, _, err := durable.Recover(dir, nil); err == nil {
		t.Fatal("WAL gap not detected")
	} else if !strings.Contains(err.Error(), "gap") {
		t.Errorf("error does not name the gap: %v", err)
	}
}

// TestSnapshotRoundTripProperty generates random stores, captures them,
// writes and re-reads a snapshot, and requires term-exact equality of the
// reloaded store — triples, generations, and bases alike.
func TestSnapshotRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 25; round++ {
		src := store.New()
		nModels := 1 + rng.Intn(4)
		for mi := 0; mi < nModels; mi++ {
			model := fmt.Sprintf("model_%d", mi)
			n := rng.Intn(200)
			for i := 0; i < n; i++ {
				s := iri(fmt.Sprintf("s%d", rng.Intn(40)))
				p := iri(fmt.Sprintf("p%d", rng.Intn(8)))
				var o rdf.Term
				switch rng.Intn(4) {
				case 0:
					o = iri(fmt.Sprintf("o%d", rng.Intn(40)))
				case 1:
					o = rdf.Literal(fmt.Sprintf("lit %d \n\"", rng.Intn(1000)))
				case 2:
					o = rdf.TypedLiteral(fmt.Sprintf("%d", rng.Intn(1000)), rdf.XSDInteger)
				default:
					o = rdf.Blank(fmt.Sprintf("b%d", rng.Intn(10)))
				}
				src.Add(model, rdf.T(s, p, o))
			}
			// Random extra mutations so generations aren't just the add count.
			for i := 0; i < rng.Intn(5); i++ {
				ts := src.Triples(model)
				if len(ts) > 0 {
					src.Remove(model, ts[rng.Intn(len(ts))])
				}
			}
		}
		states, terms := src.CaptureState(nil)
		dir := t.TempDir()
		lsn := uint64(rng.Intn(1000) + 1)
		path, size, err := durable.WriteSnapshot(dir, lsn, states, terms)
		if err != nil {
			t.Fatalf("round %d: WriteSnapshot: %v", round, err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != size {
			t.Fatalf("round %d: reported size %d, on disk %v", round, size, fi)
		}
		snap, err := durable.ReadSnapshot(path)
		if err != nil {
			t.Fatalf("round %d: ReadSnapshot: %v", round, err)
		}
		if snap.LSN != lsn {
			t.Fatalf("round %d: LSN %d != %d", round, snap.LSN, lsn)
		}
		dst := store.New()
		if err := durable.LoadSnapshot(dst, snap); err != nil {
			t.Fatalf("round %d: LoadSnapshot: %v", round, err)
		}
		if got, want := fingerprint(dst), fingerprint(src); got != want {
			t.Fatalf("round %d: snapshot round trip diverged:\n--- want ---\n%s--- got ---\n%s", round, want, got)
		}
	}
}
