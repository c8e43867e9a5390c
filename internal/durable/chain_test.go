package durable_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mdw/internal/durable"
	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/store"
)

// bulk loads n filler triples into the named model: enough base that the
// few-hundred-byte deltas of these tests stay far below the compaction
// bound.
func bulk(st *store.Store, model string, n int) {
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.T(iri(fmt.Sprintf("%s/s%d", model, i)), iri("filler"), rdf.Literal(fmt.Sprintf("%s value %d", model, i)))
	}
	st.AddAll(model, ts)
}

func materialize(t testing.TB, st *store.Store, model string) {
	t.Helper()
	if _, err := reason.Materialize(st, model); err != nil {
		t.Fatal(err)
	}
}

func checkpoint(t testing.TB, mgr *durable.Manager, want string) durable.CheckpointStats {
	t.Helper()
	cp, err := mgr.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if cp.Kind != want {
		t.Fatalf("checkpoint at LSN %d is a %s of %d bytes, want a %s", cp.LSN, cp.Kind, cp.Bytes, want)
	}
	return cp
}

// sameDictionary fails the test unless the recovered dictionary assigns
// every term of the live one the same ID.
func sameDictionary(t testing.TB, when string, live, got *store.Store) {
	t.Helper()
	n := live.Dict().Len()
	if got.Dict().Len() != n {
		t.Fatalf("%s: recovered dictionary has %d terms, the live one %d", when, got.Dict().Len(), n)
	}
	for id := store.ID(1); int(id) <= n; id++ {
		if a, b := live.Dict().Term(id), got.Dict().Term(id); a != b {
			t.Fatalf("%s: ID %d is %v, was %v before the crash", when, id, b, a)
		}
	}
}

// everyChange takes the store through one of every change a delta
// checkpoint describes: a model that only grew, an index extended with
// both added and removed triples, a model removed from (which its feed
// cannot describe, so it is written whole), a new model, a clone and a
// dropped model. round keeps the triples of successive calls apart.
func everyChange(t testing.TB, st *store.Store, round int) {
	t.Helper()
	r := func(s string) rdf.Term { return iri(fmt.Sprintf("%s%d", s, round)) }
	st.AddAll("m", []rdf.Triple{
		rdf.T(r("inst"), rdf.Type, iri("Sub")),
		rdf.T(r("inst"), iri("p"), rdf.LangLiteral("grüezi", "de-CH")),
		// Derived by the last round's extension, asserted now: the next one
		// takes it out of the index.
		rdf.T(iri(fmt.Sprintf("inst%d", round-1)), rdf.Type, iri("Super")),
	})
	materialize(t, st, "m")
	st.Add("side", rdf.T(r("x"), iri("p"), rdf.TypedLiteral("42", rdf.XSDInteger)))
	if !st.Remove("side", rdf.T(iri("side/s0"), iri("filler"), rdf.Literal("side value 0"))) && round == 1 {
		t.Fatal("Remove returned false")
	}
	st.Add(fmt.Sprintf("new%d", round), rdf.T(rdf.Blank("b"), iri("p"), rdf.Literal("")))
	if err := st.CloneModel("side", fmt.Sprintf("clone%d", round)); err != nil {
		t.Fatal(err)
	}
	st.DropModel(fmt.Sprintf("clone%d", round-1))
}

// chainFixture opens a directory and leaves in it a base and one delta,
// every kind of entry in the delta, with the vocabulary the reasoner
// interns on its own already in the base: from there on the dictionary
// grows only by logged additions, in log order, so a recovery that
// replays the WAL assigns the IDs the live store did.
func chainFixture(t testing.TB, mod func(*durable.Options)) (string, *durable.Manager, *store.Store) {
	t.Helper()
	dir := t.TempDir()
	opts := durable.Options{Dir: dir, Fsync: durable.FsyncNone}
	if mod != nil {
		mod(&opts)
	}
	mgr, st, err := durable.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	bulk(st, "m", 300)
	bulk(st, "side", 100)
	st.AddAll("m", []rdf.Triple{
		rdf.T(iri("Sub"), rdf.SubClassOf, iri("Super")),
		rdf.T(iri("inst0"), rdf.Type, iri("Sub")),
	})
	materialize(t, st, "m")
	if err := st.CloneModel("side", "clone0"); err != nil {
		t.Fatal(err)
	}
	checkpoint(t, mgr, durable.CheckpointBase)
	everyChange(t, st, 1)
	cp := checkpoint(t, mgr, durable.CheckpointDelta)
	if n := st.Len("side") + st.Len("new1") + st.Len("clone1"); cp.Written <= n || cp.Written >= cp.Triples/2 {
		t.Fatalf("delta wrote %d triples of %d covered; want the three whole models (%d) plus a few", cp.Written, cp.Triples, n)
	}
	return dir, mgr, st
}

func TestDeltaCheckpointAndReopen(t *testing.T) {
	dir, mgr, st := chainFixture(t, nil)
	if none := checkpoint(t, mgr, durable.CheckpointNone); none.Bytes != 0 || none.Triples == 0 {
		t.Errorf("checkpoint of an unchanged store: %+v", none)
	}
	if b, d := countFiles(t, dir, "snap-"), countFiles(t, dir, "delta-"); b != 1 || d != 1 {
		t.Fatalf("directory holds %d bases and %d deltas, want 1 and 1", b, d)
	}
	st.Add("side", rdf.T(iri("post"), iri("p"), iri("checkpoint")))
	want := fingerprint(st)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, st2 := openTest(t, dir, nil)
	defer mgr2.Close()
	if got := fingerprint(st2); got != want {
		t.Errorf("state after base+delta+tail recovery diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	sameDictionary(t, "base+delta+tail", st, st2)
	if rec := mgr2.Recovery(); rec.DeltaCheckpoints != 1 || rec.ReplayedRecords != 1 || rec.SkippedSnapshots != 0 {
		t.Errorf("recovered with %d deltas, %d records replayed, %d files skipped; want 1, 1, 0", rec.DeltaCheckpoints, rec.ReplayedRecords, rec.SkippedSnapshots)
	}
	if !st2.Current("m", "m$OWLPRIME") {
		t.Error("entailment index not current after recovery")
	}
	// The recovered manager carries the chain on: the next checkpoint is a
	// delta on the one it recovered from, and holds only the tail.
	st2.Add("m", rdf.T(iri("post2"), iri("p"), iri("checkpoint")))
	if cp := checkpoint(t, mgr2, durable.CheckpointDelta); cp.Written != 2 {
		t.Errorf("first delta after recovery wrote %d triples, want the 2 added since the last", cp.Written)
	}
}

// tearNewestDelta is the part of the crash harness that covers delta
// checkpoints: it stops a checkpoint between the rename that publishes the
// delta and the WAL truncation behind it — the directory then holds the
// new file and still every WAL record it covers — and tears the new file
// at every byte. Whatever is left of it, recovery must come back to the
// acknowledged state, generations and dictionary IDs included: from the
// file when it is whole, from the chain before it and the WAL when not.
func tearNewestDelta(t *testing.T) {
	dir, mgr, st := chainFixture(t, nil)
	defer mgr.Close()
	everyChange(t, st, 2)
	if err := mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	before := copyDir(t, dir)
	cp := checkpoint(t, mgr, durable.CheckpointDelta)
	want := fingerprint(st)
	full, err := os.ReadFile(cp.Path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= len(full); n++ {
		crash := copyDir(t, before)
		if err := os.WriteFile(filepath.Join(crash, filepath.Base(cp.Path)), full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		rst, stats, err := durable.Recover(crash, nil)
		if err != nil {
			t.Fatalf("delta torn at byte %d of %d: recovery failed: %v", n, len(full), err)
		}
		when := fmt.Sprintf("delta torn at byte %d of %d", n, len(full))
		if got := fingerprint(rst); got != want {
			t.Fatalf("%s: recovered state diverged:\n--- want ---\n%s--- got ---\n%s", when, want, got)
		}
		sameDictionary(t, when, st, rst)
		if whole := n == len(full); whole != (stats.DeltaCheckpoints == 2) || whole != (stats.ReplayedRecords == 0) || whole == (stats.SkippedSnapshots == 1) {
			t.Fatalf("%s: %d deltas applied, %d skipped, %d records replayed", when, stats.DeltaCheckpoints, stats.SkippedSnapshots, stats.ReplayedRecords)
		}
	}
}

// A damaged delta in the middle of the chain ends the chain there: the
// deltas before it count, those after it cannot, and the WAL — kept back
// to the base because an older checkpoint is to be retained — carries on.
// The owner then clears the unusable files away, so the chain it extends
// is the one a later recovery walks.
func TestCorruptMiddleDeltaFallsBackToChainAndWAL(t *testing.T) {
	keep := func(o *durable.Options) { o.KeepSnapshots = 1 }
	dir, mgr, st := chainFixture(t, keep)
	var paths []string
	for round := 2; round <= 3; round++ {
		everyChange(t, st, round)
		paths = append(paths, checkpoint(t, mgr, durable.CheckpointDelta).Path)
	}
	st.Add("m", rdf.T(iri("tail"), iri("p"), iri("o")))
	want := fingerprint(st)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	badSnapshots := obs.Default().Counter("mdw_recovery_bad_snapshots_total")
	bad0 := badSnapshots.Value()
	mgr2, st2, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncNone, KeepSnapshots: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("recovery with a damaged middle delta failed: %v", err)
	}
	if d := badSnapshots.Value() - bad0; d != 1 {
		t.Errorf("mdw_recovery_bad_snapshots_total moved by %d for one damaged delta, want 1", d)
	}
	if got := fingerprint(st2); got != want {
		t.Fatalf("state diverged after falling back to the chain before the damaged delta:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if rec := mgr2.Recovery(); rec.DeltaCheckpoints != 1 || rec.SkippedSnapshots != 1 || rec.ReplayedRecords == 0 {
		t.Errorf("recovered with %d deltas, %d files skipped, %d records replayed; want 1, 1 and the WAL since the first delta", rec.DeltaCheckpoints, rec.SkippedSnapshots, rec.ReplayedRecords)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s is still there after the owner recovered past it", filepath.Base(p))
		}
	}
	st2.Add("m", rdf.T(iri("tail2"), iri("p"), iri("o")))
	checkpoint(t, mgr2, durable.CheckpointDelta)
	want = fingerprint(st2)
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}
	rst, stats, err := durable.Recover(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(rst); got != want || stats.DeltaCheckpoints != 2 || stats.SkippedSnapshots != 0 {
		t.Errorf("after the repaired chain was extended: %d deltas applied, %d files skipped, state equal: %v", stats.DeltaCheckpoints, stats.SkippedSnapshots, got == want)
	}
}

// Checkpoints run beside loads and derivations: each pins its own
// snapshot and reads the feed up to it, whatever lands meanwhile, so the
// chain they leave and the WAL tail behind it add up to the final state.
func TestCheckpointsBesideWriters(t *testing.T) {
	dir, mgr, st := chainFixture(t, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 60; i++ {
			bulk(st, "m", 300+5*(i+1)) // five new triples each time
			st.Add("m", rdf.T(iri(fmt.Sprintf("beside%d", i)), rdf.Type, iri("Sub")))
			if i%4 == 0 {
				if _, err := reason.Materialize(st, "m"); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	kinds := map[string]int{}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		cp, err := mgr.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		kinds[cp.Kind]++
	}
	if kinds[durable.CheckpointDelta] == 0 {
		t.Errorf("checkpoints beside the writer: %v, want deltas among them", kinds)
	}
	st.Add("m", rdf.T(iri("tail"), iri("p"), iri("o")))
	want := fingerprint(st)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	rst, stats, err := durable.Recover(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(rst); got != want || stats.SkippedSnapshots != 0 {
		t.Errorf("recovered over %d deltas with %d files skipped; state equal: %v", stats.DeltaCheckpoints, stats.SkippedSnapshots, got == want)
	}
}

// untilCompaction loads and checkpoints until a checkpoint rewrites the
// base, and returns the directory as it stood before that checkpoint
// (WAL synced) and the checkpoint's stats.
func untilCompaction(t *testing.T, dir string, mgr *durable.Manager, st *store.Store) (string, durable.CheckpointStats) {
	t.Helper()
	bases := filesWith(t, dir, "snap-")
	newest := bases[len(bases)-1]
	base, err := os.Stat(filepath.Join(dir, newest))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		bulk(st, fmt.Sprintf("load%d@%s", i, newest), 40)
		if err := mgr.Sync(); err != nil {
			t.Fatal(err)
		}
		var chain int64
		for _, name := range filesWith(t, dir, "delta-") {
			if name[len("delta-"):] < newest[len("snap-"):] {
				continue // of an older base's chain
			}
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			chain += fi.Size()
		}
		before := copyDir(t, dir)
		cp, err := mgr.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		// The threshold, from the outside: a base exactly when the chain
		// had outgrown half the base it extends.
		if compacted := cp.Kind == durable.CheckpointBase; compacted != (chain > base.Size()/2) {
			t.Fatalf("checkpoint %d is a %s with a chain of %d bytes on a base of %d", i, cp.Kind, chain, base.Size())
		} else if compacted {
			return before, cp
		}
		if i > 200 {
			t.Fatal("no compaction in 200 checkpoints")
		}
	}
}

func filesWith(t testing.TB, dir, prefix string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, prefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = filepath.Base(names[i])
	}
	return names
}

func onlyFile(t testing.TB, dir, prefix string) string {
	t.Helper()
	names := filesWith(t, dir, prefix)
	if len(names) != 1 {
		t.Fatalf("files %s* in %s: %v, want one", prefix, dir, names)
	}
	return names[0]
}

// The chain is folded into a new base once it outgrows half the old one,
// and only then; the old base and its chain go once the new base is
// durable, not before: a crash that leaves both recovers from the new
// base, and one that leaves the new base torn recovers from the old files
// and the WAL.
func TestCompactionRewritesBaseAndPrunesChain(t *testing.T) {
	dir, mgr, st := chainFixture(t, nil)
	defer mgr.Close()
	before, cp := untilCompaction(t, dir, mgr, st)
	want := fingerprint(st)
	if cp.Written != cp.Triples {
		t.Errorf("compaction wrote %d of %d triples", cp.Written, cp.Triples)
	}
	if b, d := filesWith(t, dir, "snap-"), filesWith(t, dir, "delta-"); len(b) != 1 || len(d) != 0 || b[0] != filepath.Base(cp.Path) {
		t.Errorf("after compaction the directory holds bases %v and deltas %v, want only %s", b, d, filepath.Base(cp.Path))
	}
	rst, stats, err := durable.Recover(copyDir(t, dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(rst); got != want || stats.DeltaCheckpoints != 0 || stats.ReplayedRecords != 0 {
		t.Errorf("recovery from the compacted base: %d deltas, %d records replayed, state equal: %v", stats.DeltaCheckpoints, stats.ReplayedRecords, got == want)
	}

	// The crash window: new base renamed into place, nothing pruned yet.
	full, err := os.ReadFile(cp.Path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{len(full), len(full) / 2, 0} {
		crash := copyDir(t, before)
		if err := os.WriteFile(filepath.Join(crash, filepath.Base(cp.Path)), full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		rst, stats, err := durable.Recover(crash, nil)
		if err != nil {
			t.Fatalf("new base cut to %d bytes beside the old chain: %v", n, err)
		}
		if got := fingerprint(rst); got != want {
			t.Errorf("new base cut to %d bytes beside the old chain: state diverged", n)
		}
		sameDictionary(t, fmt.Sprintf("new base cut to %d bytes", n), st, rst)
		if whole := n == len(full); whole != (stats.DeltaCheckpoints == 0) || whole != (stats.SkippedSnapshots == 0) {
			t.Errorf("new base cut to %d bytes: recovered from %s with %d deltas, %d files skipped", n, filepath.Base(stats.SnapshotPath), stats.DeltaCheckpoints, stats.SkippedSnapshots)
		}
	}
}

// FuzzDelta asserts DecodeDelta never panics, and that whatever it
// accepts either applies to the state a base describes or is refused
// whole: a recovery given the base and the fuzzed file beside it never
// fails and never lands between the two states.
func FuzzDelta(f *testing.F) {
	dir, mgr, st := chainFixture(f, nil)
	want := fingerprint(st)
	if err := mgr.Close(); err != nil {
		f.Fatal(err)
	}
	base := onlyFile(f, dir, "snap-")
	rst, _, err := durable.Recover(withFiles(f, dir, base), nil)
	if err != nil {
		f.Fatal(err)
	}
	wantBase := fingerprint(rst)
	deltaFile := onlyFile(f, dir, "delta-")
	real, err := os.ReadFile(filepath.Join(dir, deltaFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	bad := append([]byte(nil), real...)
	bad[len(bad)/3] ^= 0x01
	f.Add(bad)
	f.Add([]byte("MDWDELT1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := durable.DecodeDelta(data)
		if err == nil && d.LSN <= d.PrevLSN {
			t.Fatalf("accepted a delta at LSN %d extending LSN %d", d.LSN, d.PrevLSN)
		}
		crash := withFiles(t, dir, base)
		if err := os.WriteFile(filepath.Join(crash, deltaFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rst, stats, rerr := durable.Recover(crash, nil)
		if rerr != nil {
			t.Fatalf("recovery beside a fuzzed delta failed: %v", rerr)
		}
		switch got := fingerprint(rst); {
		case stats.DeltaCheckpoints == 0 && got != wantBase:
			t.Fatalf("delta refused, but the state is not the base's:\n%s", got)
		case stats.DeltaCheckpoints == 1 && err != nil:
			t.Fatalf("recovery applied a delta DecodeDelta refuses: %v", err)
		case stats.DeltaCheckpoints == 1 && string(data) == string(real) && got != want:
			t.Fatalf("the real delta applied to a different state:\n%s", got)
		}
	})
}

// withFiles returns a fresh directory holding copies of the named files
// of dir.
func withFiles(tb testing.TB, dir string, names ...string) string {
	tb.Helper()
	dst := tb.TempDir()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return dst
}
