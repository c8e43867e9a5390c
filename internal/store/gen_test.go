package store

import (
	"testing"

	"mdw/internal/rdf"
)

func TestGenerationCounting(t *testing.T) {
	st := New()
	if g := st.Generation("m"); g != 0 {
		t.Fatalf("generation of missing model = %d, want 0", g)
	}
	st.Add("m", rdf.T(iri("s"), iri("p"), iri("o")))
	g1 := st.Generation("m")
	if g1 == 0 {
		t.Fatal("generation stayed 0 after first add")
	}
	// A duplicate add is a no-op and must not advance the generation.
	st.Add("m", rdf.T(iri("s"), iri("p"), iri("o")))
	if g := st.Generation("m"); g != g1 {
		t.Errorf("duplicate add advanced generation %d -> %d", g1, g)
	}
	st.Add("m", rdf.T(iri("s2"), iri("p"), iri("o")))
	g2 := st.Generation("m")
	if g2 <= g1 {
		t.Errorf("add did not advance generation (%d -> %d)", g1, g2)
	}
	st.Remove("m", rdf.T(iri("s2"), iri("p"), iri("o")))
	if g := st.Generation("m"); g <= g2 {
		t.Errorf("remove did not advance generation (%d -> %d)", g2, g)
	}
	// Removing an absent triple is a no-op.
	g3 := st.Generation("m")
	st.Remove("m", rdf.T(iri("s2"), iri("p"), iri("o")))
	if g := st.Generation("m"); g != g3 {
		t.Errorf("no-op remove advanced generation %d -> %d", g3, g)
	}
}

func TestCurrentAndBasis(t *testing.T) {
	st := New()
	st.Add("base", rdf.T(iri("s"), iri("p"), iri("o")))
	if st.Current("base", "base$IDX") {
		t.Fatal("missing derived model reported current")
	}
	// Derive via the snapshot/install protocol the reasoner uses.
	snap := st.SnapshotModel("base")
	derived := NewModel("base$IDX")
	snap.ForEach(Wildcard, Wildcard, Wildcard, func(e ETriple) bool {
		derived.Add(e)
		return true
	})
	derived.SetBasis(snap.Basis())
	st.InstallModel(derived)
	if !st.Current("base", "base$IDX") {
		t.Fatal("freshly installed derived model not current")
	}
	// Any write to the base invalidates the derivation.
	st.Add("base", rdf.T(iri("s2"), iri("p"), iri("o")))
	if st.Current("base", "base$IDX") {
		t.Error("derived model still current after base write")
	}
	if st.Current("no_base", "base$IDX") {
		t.Error("current with a missing base")
	}
}

func TestSnapshotModelIsDetached(t *testing.T) {
	st := New()
	st.Add("m", rdf.T(iri("s"), iri("p"), iri("o")))
	snap := st.SnapshotModel("m")
	if snap == nil || snap.Len() != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap.Basis() != st.Generation("m") {
		t.Errorf("snapshot basis %d != model gen %d", snap.Basis(), st.Generation("m"))
	}
	// The snapshot's own generation is fresh: it must never alias the
	// source's, no matter how either side mutates from here.
	if snap.Gen() == st.Generation("m") {
		t.Errorf("snapshot kept the source generation %d", snap.Gen())
	}
	// Later store writes do not leak into the snapshot, and snapshot
	// writes do not leak back.
	st.Add("m", rdf.T(iri("s2"), iri("p"), iri("o")))
	if snap.Len() != 1 {
		t.Error("store write visible in snapshot")
	}
	snap.Add(ETriple{S: 91, P: 92, O: 93})
	if st.Len("m") != 2 {
		t.Error("snapshot write visible in store")
	}
	if st.SnapshotModel("missing") != nil {
		t.Error("snapshot of missing model is not nil")
	}
}

func TestReadViewInfos(t *testing.T) {
	st := New()
	st.Add("a", rdf.T(iri("s"), iri("p"), iri("o")))
	st.Add("a", rdf.T(iri("s2"), iri("p"), iri("o")))
	snap := st.Snapshot("a", "missing")
	infos := []Cut{snap.Cut("a"), snap.Cut("missing")}
	if n := snap.Len(); n != 2 {
		t.Errorf("view over a+missing has %d triples, want 2", n)
	}
	if !infos[0].Exists || infos[0].Gen != st.Generation("a") || infos[0].Triples != 2 {
		t.Errorf("info[a] = %+v", infos[0])
	}
	if infos[1].Exists || infos[1].Gen != 0 || infos[1].Name != "missing" {
		t.Errorf("info[missing] = %+v", infos[1])
	}
}
