package durable_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdw/internal/durable"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/store"
)

// fingerprint renders the complete observable state of a store — model
// names, generations, bases, and every triple in canonical order — as
// one string, so two stores can be compared for exact equality.
func fingerprint(st *store.Store) string {
	var b strings.Builder
	names := st.ModelNames()
	snap := st.Snapshot(names...)
	for _, name := range names {
		in := snap.Cut(name)
		fmt.Fprintf(&b, "@model %s gen=%d basis=%d n=%d\n", in.Name, in.Gen, in.Basis, in.Triples)
	}
	for _, name := range names {
		for _, t := range st.Triples(name) {
			b.WriteString(name)
			b.WriteByte('|')
			b.WriteString(t.NTriple())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func openTest(t *testing.T, dir string, mod func(*durable.Options)) (*durable.Manager, *store.Store) {
	t.Helper()
	opts := durable.Options{Dir: dir, Fsync: durable.FsyncNone, Logf: t.Logf}
	if mod != nil {
		mod(&opts)
	}
	mgr, st, err := durable.Open(opts)
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	return mgr, st
}

func iri(n string) rdf.Term { return rdf.IRI("http://example.com/" + n) }

// scriptedMutations drives every logged mutation kind through the store.
func scriptedMutations(t *testing.T, st *store.Store) {
	t.Helper()
	if !st.Add("m1", rdf.T(iri("a"), iri("p"), iri("b"))) {
		t.Fatal("Add returned false")
	}
	st.AddAll("m1", []rdf.Triple{
		rdf.T(iri("b"), iri("p"), iri("c")),
		rdf.T(iri("c"), iri("p"), rdf.Literal("lit with \"quotes\" and\nnewline")),
		rdf.T(iri("c"), iri("q"), rdf.LangLiteral("grüezi", "de-CH")),
		rdf.T(iri("c"), iri("q"), rdf.TypedLiteral("42", rdf.XSDInteger)),
		rdf.T(iri("a"), iri("p"), iri("b")), // duplicate: must not be logged
	})
	st.Add("m2", rdf.T(rdf.Blank("bn1"), iri("p"), rdf.Literal("")))
	if !st.Remove("m1", rdf.T(iri("b"), iri("p"), iri("c"))) {
		t.Fatal("Remove returned false")
	}
	if err := st.CloneModel("m1", "m1_clone"); err != nil {
		t.Fatalf("CloneModel: %v", err)
	}
	st.Add("m3", rdf.T(iri("x"), iri("p"), iri("y")))
	if !st.DropModel("m3") {
		t.Fatal("DropModel returned false")
	}
	// A from-scratch index through the real reasoner path: one OpInstall.
	st.AddAll("m1", []rdf.Triple{
		rdf.T(iri("Sub"), rdf.IRI(rdf.RDFSSubClassOf), iri("Super")),
		rdf.T(iri("inst"), rdf.Type, iri("Sub")),
	})
	if _, err := reason.Materialize(st, "m1"); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	// And an extension of it, one OpExtend: a new fact to derive from and
	// the assertion of a triple the index had derived.
	st.AddAll("m1", []rdf.Triple{
		rdf.T(iri("inst2"), rdf.Type, iri("Sub")),
		rdf.T(iri("inst"), rdf.Type, iri("Super")),
	})
	if _, err := reason.Materialize(st, "m1"); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
}

// walPayloads slices every intact record frame's payload out of the data
// directory's WAL segments, in log order.
func walPayloads(tb testing.TB, dir string) [][]byte {
	tb.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		tb.Fatal(err)
	}
	var payloads [][]byte
	for _, seg := range segs { // Glob sorts, and the names sort by LSN
		data, err := os.ReadFile(seg)
		if err != nil {
			tb.Fatal(err)
		}
		for off := 16; off+8 <= len(data); {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			if off+8+n > len(data) {
				break
			}
			payloads = append(payloads, data[off+8:off+8+n])
			off += 8 + n
		}
	}
	return payloads
}

// walRecords decodes walPayloads.
func walRecords(tb testing.TB, dir string) []*durable.Record {
	tb.Helper()
	var recs []*durable.Record
	for _, p := range walPayloads(tb, dir) {
		rec, err := durable.DecodePayload(p)
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// An extension must come back as the model, generation and basis it
// produced, whether recovery starts from the WAL alone or from a snapshot
// taken before the extension; and a crash between the load and the
// extension must leave a store whose next Materialize is again an
// extension — the replayed OpAdds rebuild the change feed — with the same
// result.
func TestExtensionRecordReplay(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			dir := t.TempDir()
			mgr, st := openTest(t, dir, nil)
			defer mgr.Close()
			ctx := context.Background()
			st.AddAll("m", []rdf.Triple{
				rdf.T(iri("Sub"), rdf.SubClassOf, iri("Mid")),
				rdf.T(iri("a"), rdf.Type, iri("Sub")),
			})
			idx, err := reason.MaterializeCtx(ctx, st, "m")
			if err != nil {
				t.Fatal(err)
			}
			if checkpoint {
				if _, err := mgr.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			st.AddAll("m", []rdf.Triple{
				rdf.T(iri("Mid"), rdf.SubClassOf, iri("Top")), // schema after the facts it applies to
				rdf.T(iri("b"), rdf.Type, iri("Sub")),
				rdf.T(iri("a"), rdf.Type, iri("Mid")), // derived before, asserted now
			})
			if err := mgr.Sync(); err != nil {
				t.Fatal(err)
			}
			before := copyDir(t, dir)
			prevGen := st.Generation(idx)
			if _, err := reason.MaterializeCtx(ctx, st, "m"); err != nil {
				t.Fatal(err)
			}
			if err := mgr.Sync(); err != nil {
				t.Fatal(err)
			}
			after := copyDir(t, dir)
			want := fingerprint(st)

			recs := walRecords(t, after)
			last := recs[len(recs)-1]
			if last.Op != store.OpExtend || last.Model != idx || last.PrevGen != prevGen ||
				last.Gen != st.Generation(idx) || last.Basis != st.Generation("m") ||
				len(last.Triples) != 4 || len(last.Removed) != 1 {
				t.Fatalf("last WAL record is not the extension: %+v", last)
			}

			// Crash after the record.
			rst, _, err := durable.Recover(after, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(rst); got != want {
				t.Errorf("state after replaying the extension diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
			}
			if !rst.Current("m", idx) {
				t.Error("index not current after replaying the extension")
			}

			// Crash before it.
			rst, _, err = durable.Recover(before, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if rst.Current("m", idx) {
				t.Fatal("index current although the crash preceded the extension")
			}
			var ops []store.Op
			rst.SetCommitHook(func(m store.Mutation) { ops = append(ops, m.Op) })
			if _, err := reason.MaterializeCtx(ctx, rst, "m"); err != nil {
				t.Fatal(err)
			}
			if len(ops) != 1 || ops[0] != store.OpExtend {
				t.Errorf("Materialize after recovery published %v, want one extension", ops)
			}
			if got, want := rst.Triples(idx), st.Triples(idx); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("index extended after recovery:\n%v\nindex extended before the crash:\n%v", got, want)
			}
		})
	}
}

// testdata/datadir-pr14 was written by the commit before OpExtend
// existed: a snapshot, then a WAL tail with a load, a full OpInstall of
// the index, and one more load. It must recover to the state that commit
// recorded, and the stale index must then extend.
func TestOldFormatDataDirRecovers(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "datadir-pr14"))
	rst, stats, err := durable.Recover(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotLSN != 2 || stats.ReplayedRecords != 3 {
		t.Errorf("recovered from snapshot LSN %d with %d records replayed, want 2 and 3", stats.SnapshotLSN, stats.ReplayedRecords)
	}
	const want = `@model m1 gen=5 basis=0 n=4
@model m1$OWLPRIME gen=3 basis=4 n=2
m1|<http://example.com/Sub> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://example.com/Super> .
m1|<http://example.com/inst> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.com/Sub> .
m1|<http://example.com/inst2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.com/Sub> .
m1|<http://example.com/inst3> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.com/Sub> .
m1$OWLPRIME|<http://example.com/inst> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.com/Super> .
m1$OWLPRIME|<http://example.com/inst2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.com/Super> .
`
	if got := fingerprint(rst); got != want {
		t.Fatalf("old-format directory recovered to:\n%s\nwant:\n%s", got, want)
	}
	var ext store.Mutation
	rst.SetCommitHook(func(m store.Mutation) { ext = m })
	idx, err := reason.Materialize(rst, "m1")
	if err != nil {
		t.Fatal(err)
	}
	if ext.Op != store.OpExtend || len(ext.Triples) != 1 || rst.Len(idx) != 3 || !rst.Current("m1", idx) {
		t.Errorf("Materialize on the recovered store: %v of %d triples, index now %d triples", ext.Op, len(ext.Triples), rst.Len(idx))
	}
}

func TestLogAndReopenRestoresExactState(t *testing.T) {
	dir := t.TempDir()
	mgr, st := openTest(t, dir, nil)
	scriptedMutations(t, st)
	want := fingerprint(st)
	if err := mgr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	mgr2, st2 := openTest(t, dir, nil)
	defer mgr2.Close()
	if got := fingerprint(st2); got != want {
		t.Errorf("state after WAL-only recovery diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	rec := mgr2.Recovery()
	if rec.SnapshotPath != "" {
		t.Errorf("unexpected snapshot used: %q", rec.SnapshotPath)
	}
	if rec.ReplayedRecords == 0 {
		t.Error("no records replayed")
	}
	// The index model must still be current w.r.t. its base after
	// recovery — otherwise every restart would re-run entailment.
	idx := reason.IndexModelName("m1", reason.RulebaseOWLPrime)
	if !st2.Current("m1", idx) {
		t.Error("entailment index not current after recovery")
	}
}

func TestCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	mgr, st := openTest(t, dir, nil)
	scriptedMutations(t, st)
	cp, err := mgr.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if cp.Bytes <= 0 || cp.Models == 0 || cp.Triples == 0 {
		t.Errorf("implausible checkpoint stats: %+v", cp)
	}
	if cp.LSN != mgr.LastLSN() {
		t.Errorf("checkpoint LSN %d != last LSN %d (no concurrent writers)", cp.LSN, mgr.LastLSN())
	}
	// Post-checkpoint writes land in the WAL tail.
	st.Add("m1", rdf.T(iri("post"), iri("p"), iri("checkpoint")))
	want := fingerprint(st)
	if err := mgr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	mgr2, st2 := openTest(t, dir, nil)
	defer mgr2.Close()
	if got := fingerprint(st2); got != want {
		t.Errorf("state after snapshot+tail recovery diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	rec := mgr2.Recovery()
	if rec.SnapshotPath == "" {
		t.Error("recovery did not use the snapshot")
	}
	if rec.SnapshotLSN != cp.LSN {
		t.Errorf("recovered from snapshot LSN %d, want %d", rec.SnapshotLSN, cp.LSN)
	}
	if rec.ReplayedRecords != 1 {
		t.Errorf("replayed %d records, want exactly the 1 post-checkpoint add", rec.ReplayedRecords)
	}
}

func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records.
	mgr, st := openTest(t, dir, func(o *durable.Options) { o.SegmentBytes = 256 })
	for i := 0; i < 50; i++ {
		st.Add("m", rdf.T(iri(fmt.Sprintf("s%d", i)), iri("p"), iri(fmt.Sprintf("o%d", i))))
	}
	before := countFiles(t, dir, "wal-")
	if before < 3 {
		t.Fatalf("expected several segments before checkpoint, got %d", before)
	}
	cp, err := mgr.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if cp.SegmentsRemoved == 0 {
		t.Error("checkpoint removed no segments")
	}
	after := countFiles(t, dir, "wal-")
	if after != 1 {
		t.Errorf("%d segments left after checkpoint, want 1 (the fresh active one)", after)
	}
	want := fingerprint(st)
	mgr.Close()
	mgr2, st2 := openTest(t, dir, nil)
	defer mgr2.Close()
	if got := fingerprint(st2); got != want {
		t.Error("state diverged after checkpoint truncation + reopen")
	}
}

// Retention counts bases, each with its chain: with one older base kept,
// the third base written takes the first and every delta of its chain
// away, and leaves the second's chain alone.
func TestSnapshotRetention(t *testing.T) {
	dir, mgr, st := chainFixture(t, func(o *durable.Options) { o.KeepSnapshots = 1 })
	defer mgr.Close()
	untilCompaction(t, dir, mgr, st)
	if b, d := filesWith(t, dir, "snap-"), filesWith(t, dir, "delta-"); len(b) != 2 || len(d) == 0 || d[0] > "delta-"+b[1][len("snap-"):] {
		t.Fatalf("after the first compaction: bases %v, deltas %v; want both bases and the first one's chain", b, d)
	}
	untilCompaction(t, dir, mgr, st)
	bases, deltas := filesWith(t, dir, "snap-"), filesWith(t, dir, "delta-")
	if len(bases) != 2 {
		t.Fatalf("%d bases retained, want 2 (newest + 1 kept): %v", len(bases), bases)
	}
	// Names carry the LSN as fixed-width hex: comparing the part after the
	// prefix compares LSNs.
	lsn := func(name, prefix string) string { return name[len(prefix):] }
	if len(deltas) == 0 {
		t.Fatal("the kept base's chain is gone")
	}
	for _, d := range deltas {
		if lsn(d, "delta-") <= lsn(bases[0], "snap-") || lsn(d, "delta-") >= lsn(bases[1], "snap-") {
			t.Errorf("%s retained beside bases %v: not of the kept base's chain", d, bases)
		}
	}
}

// TestRecoveryPrefersNewestValidSnapshot damages the newest base and
// expects recovery to fall back to the one before it, that one's whole
// chain and a longer WAL replay — never to fail outright, and never to
// apply a delta chained to the base it could not read.
func TestRecoveryPrefersNewestValidSnapshot(t *testing.T) {
	dir, mgr, st := chainFixture(t, func(o *durable.Options) { o.KeepSnapshots = 1 })
	_, cp2 := untilCompaction(t, dir, mgr, st)
	oldChain := len(filesWith(t, dir, "delta-"))
	everyChange(t, st, 2)
	checkpoint(t, mgr, durable.CheckpointDelta)
	st.Add("m", rdf.T(iri("c"), iri("p"), iri("d")))
	want := fingerprint(st)
	mgr.Close()

	// Flip a byte in the newest base's body.
	data, err := os.ReadFile(cp2.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(cp2.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	mgr2, st2 := openTest(t, dir, nil)
	defer mgr2.Close()
	rec := mgr2.Recovery()
	if rec.SkippedSnapshots != 2 || rec.DeltaCheckpoints != oldChain || rec.SnapshotLSN >= cp2.LSN {
		t.Errorf("skipped %d files and applied %d deltas on the base at LSN %d; want the damaged base and its delta skipped, and the %d deltas of the base before",
			rec.SkippedSnapshots, rec.DeltaCheckpoints, rec.SnapshotLSN, oldChain)
	}
	if got := fingerprint(st2); got != want {
		t.Error("state diverged after falling back to older snapshot")
	}
}

// TestRecoverReadOnlyLeavesTornTailAlone: a reader that does not own the
// directory sees the committed prefix and writes nothing — neither to a
// record torn mid-payload nor to the still-headerless segment of a
// manager that has the directory open. The owner's Recover trims later.
func TestRecoverReadOnlyLeavesTornTailAlone(t *testing.T) {
	dir := t.TempDir()
	mgr, st := openTest(t, dir, nil)
	st.Add("m", rdf.T(iri("a"), iri("p"), iri("b")))
	st.Add("m", rdf.T(iri("c"), iri("p"), iri("d")))
	mgr.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	torn := fi.Size() - 3
	if err := os.Truncate(segs[0], torn); err != nil {
		t.Fatal(err)
	}

	rst, stats, err := durable.RecoverReadOnly(dir, nil)
	if err != nil {
		t.Fatalf("read-only recovery with torn tail failed: %v", err)
	}
	if stats.TornTail == "" || stats.LastLSN != 1 || rst.Len("m") != 1 {
		t.Errorf("TornTail=%q LastLSN=%d Len=%d, want a report and 1/1", stats.TornTail, stats.LastLSN, rst.Len("m"))
	}
	if fi, err := os.Stat(segs[0]); err != nil || fi.Size() != torn {
		t.Errorf("read-only recovery changed the torn segment: %v, %v", fi, err)
	}

	// The owner reopens (trimming the tail, starting a new segment whose
	// header is still in its buffer); a reader must leave that stub be.
	mgr2, st2 := openTest(t, dir, nil)
	defer mgr2.Close()
	if _, _, err := durable.RecoverReadOnly(dir, nil); err != nil {
		t.Fatalf("read-only recovery beside a live manager: %v", err)
	}
	st2.Add("m", rdf.T(iri("e"), iri("p"), iri("f")))
	if err := mgr2.Sync(); err != nil {
		t.Fatal(err)
	}
	rst, _, err = durable.RecoverReadOnly(dir, nil)
	if err != nil || rst.Len("m") != 2 {
		t.Errorf("after the owner's next commit a reader sees %d triples (%v), want 2", rst.Len("m"), err)
	}
}

func TestFreshDirIsEmptyStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	mgr, st := openTest(t, dir, nil)
	defer mgr.Close()
	if names := st.ModelNames(); len(names) != 0 {
		t.Errorf("fresh store has models %v", names)
	}
	if mgr.LastLSN() != 0 {
		t.Errorf("fresh LastLSN = %d", mgr.LastLSN())
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []durable.FsyncPolicy{durable.FsyncAlways, durable.FsyncInterval, durable.FsyncNone} {
		t.Run(string(pol), func(t *testing.T) {
			dir := t.TempDir()
			mgr, st := openTest(t, dir, func(o *durable.Options) {
				o.Fsync = pol
				o.FsyncInterval = time.Millisecond
			})
			st.Add("m", rdf.T(iri("a"), iri("p"), iri("b")))
			want := fingerprint(st)
			if err := mgr.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			mgr.Close()
			mgr2, st2 := openTest(t, dir, nil)
			defer mgr2.Close()
			if fingerprint(st2) != want {
				t.Error("state diverged")
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	if _, err := durable.ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
	if p, err := durable.ParseFsyncPolicy("Always"); err != nil || p != durable.FsyncAlways {
		t.Errorf("Always: %v %v", p, err)
	}
}

func countFiles(t *testing.T, dir, prefix string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			n++
		}
	}
	return n
}

// TestCloneReplayParity: OpClone records the clone's freshly salted
// generation, and replay reinstates exactly that generation — even after
// source and clone diverged, the first clone was dropped, and a second
// clone took a higher salt. The fingerprint comparison covers gens and
// bases, so any aliasing or salt reuse after recovery shows up here.
func TestCloneReplayParity(t *testing.T) {
	dir := t.TempDir()
	mgr, st := openTest(t, dir, nil)
	st.AddAll("src", []rdf.Triple{
		rdf.T(iri("a"), iri("p"), iri("b")),
		rdf.T(iri("b"), iri("p"), iri("c")),
	})
	if err := st.CloneModel("src", "work"); err != nil {
		t.Fatalf("CloneModel: %v", err)
	}
	// Diverge both sides of the copy-on-write pair.
	st.Add("src", rdf.T(iri("a"), iri("q"), iri("z")))
	if !st.Remove("work", rdf.T(iri("a"), iri("p"), iri("b"))) {
		t.Fatal("Remove on clone returned false")
	}
	// Drop the clone and clone again: the second clone must take a
	// higher salt even though the first is gone, and replay has to
	// land on the same generation sequence.
	if !st.DropModel("work") {
		t.Fatal("DropModel returned false")
	}
	if err := st.CloneModel("src", "work2"); err != nil {
		t.Fatalf("second CloneModel: %v", err)
	}
	st.Add("work2", rdf.T(iri("w2"), iri("p"), iri("only")))
	if st.Generation("work2") == st.Generation("src") {
		t.Fatal("clone generation aliases its source before recovery")
	}
	want := fingerprint(st)
	if err := mgr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// WAL-only replay.
	mgr2, st2 := openTest(t, dir, nil)
	if got := fingerprint(st2); got != want {
		t.Errorf("clone state diverged after WAL replay:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	// Snapshot-covering-clone path: checkpoint, reopen, compare again.
	if _, err := mgr2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := mgr2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	mgr3, st3 := openTest(t, dir, nil)
	defer mgr3.Close()
	if mgr3.Recovery().SnapshotPath == "" {
		t.Error("third open did not recover from the snapshot")
	}
	if got := fingerprint(st3); got != want {
		t.Errorf("clone state diverged after snapshot recovery:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	// Fresh clones after recovery keep allocating unique generations.
	if err := st3.CloneModel("src", "work3"); err != nil {
		t.Fatalf("post-recovery CloneModel: %v", err)
	}
	gens := map[uint64]bool{}
	for _, m := range []string{"src", "work2", "work3"} {
		g := st3.Generation(m)
		if gens[g] {
			t.Errorf("generation %d reused across models after recovery", g)
		}
		gens[g] = true
	}
}
