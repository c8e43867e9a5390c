package store

import (
	"fmt"
	"testing"

	"mdw/internal/rdf"
)

func tr(i int) rdf.Triple {
	return rdf.T(rdf.IRI(fmt.Sprintf("http://t/s%d", i)), rdf.IRI("http://t/p"), rdf.IRI(fmt.Sprintf("http://t/o%d", i)))
}

// derive plays the derivation: it publishes a derived model holding one
// marker triple per delta triple, and returns the delta it was handed.
func derive(t *testing.T, s *Store) *Delta {
	t.Helper()
	d := s.SnapshotDelta("base", "base$X")
	if d == nil {
		t.Fatal("SnapshotDelta: no base model")
	}
	var added []ETriple
	for _, a := range d.Added {
		m := ETriple{S: a.O, P: a.P, O: a.S}
		if d.Derived.Add(m) {
			added = append(added, m)
		}
	}
	d.Derived.SetBasis(d.Base.Gen())
	s.InstallExtension(d.Derived, d.PrevGen, added, nil)
	if !s.Current("base", "base$X") {
		t.Fatal("derived model not current after InstallExtension")
	}
	return d
}

func TestSnapshotDeltaHandsOutWhatWasAddedSinceTheBasis(t *testing.T) {
	s := New()
	var ops []Mutation
	s.SetCommitHook(func(m Mutation) {
		if m.Model == "base$X" {
			ops = append(ops, m)
		}
	})
	s.AddAll("base", []rdf.Triple{tr(1), tr(2), tr(3)})

	// Nothing to extend: the delta is the whole model, published whole.
	if d := derive(t, s); len(d.Added) != 3 || d.PrevGen != 0 || d.Derived.Len() != 3 {
		t.Fatalf("first derivation: %d delta triples, prevGen %d", len(d.Added), d.PrevGen)
	}
	if len(ops) != 1 || ops[0].Op != OpInstall {
		t.Fatalf("first derivation logged %v, want one install", ops)
	}

	// Additions (one of them a duplicate) arrive across two calls; the
	// derived model is cloned, not rebuilt, and logged as its difference.
	s.Add("base", tr(4))
	s.AddAll("base", []rdf.Triple{tr(2), tr(5)})
	prev := s.Generation("base$X")
	d := derive(t, s)
	if len(d.Added) != 2 || d.PrevGen != prev || d.Derived.Len() != 5 {
		t.Fatalf("extension: %d delta triples (want 2), prevGen %d (want %d), %d derived", len(d.Added), d.PrevGen, prev, d.Derived.Len())
	}
	if last := ops[len(ops)-1]; last.Op != OpExtend || last.PrevGen != prev || len(last.Triples) != 2 || last.Gen != s.Generation("base$X") {
		t.Fatalf("extension logged %+v", last)
	}
	if s.Len("base$X") != 5 {
		t.Fatalf("installed derived model has %d triples, want 5", s.Len("base$X"))
	}

	// A removal is not an addition: the next answer is "everything".
	s.Add("base", tr(6))
	s.Remove("base", tr(1))
	s.Add("base", tr(7))
	if d := derive(t, s); len(d.Added) != 6 || d.PrevGen != 0 {
		t.Fatalf("after Remove: %d delta triples (want all 6), prevGen %d", len(d.Added), d.PrevGen)
	}
	if last := ops[len(ops)-1]; last.Op != OpInstall {
		t.Fatalf("after Remove: logged %v, want install", last.Op)
	}

	// The log restarted at that derivation.
	s.Add("base", tr(8))
	if d := derive(t, s); len(d.Added) != 1 {
		t.Fatalf("after the rebuild: %d delta triples, want 1", len(d.Added))
	}
}

func TestSnapshotDeltaFallsBackWhenTheLogCannotAnswer(t *testing.T) {
	s := New()
	s.AddAll("base", []rdf.Triple{tr(1), tr(2)})
	derive(t, s)

	// A write behind the store's back leaves the log short of the model.
	s.Model("base").Add(s.dict.Encode(tr(3)))
	s.Add("base", tr(4))
	if d := derive(t, s); len(d.Added) != 4 || d.PrevGen != 0 {
		t.Fatalf("after an unlogged write: %d delta triples (want all 4), prevGen %d", len(d.Added), d.PrevGen)
	}

	// Dropping and reloading the base: the derived model's basis means
	// nothing to the new model.
	s.DropModel("base")
	s.AddAll("base", []rdf.Triple{tr(1), tr(5)})
	if d := derive(t, s); len(d.Added) != 2 || d.PrevGen != 0 {
		t.Fatalf("after drop and reload: %d delta triples (want 2), prevGen %d", len(d.Added), d.PrevGen)
	}

	// A replaced derived model cannot be described as an extension of the
	// one the clone was taken from.
	s.Add("base", tr(6))
	d := s.SnapshotDelta("base", "base$X")
	s.InstallModel(NewModel("base$X"))
	var logged Op
	s.SetCommitHook(func(m Mutation) { logged = m.Op })
	s.InstallExtension(d.Derived, d.PrevGen, nil, nil)
	if logged != OpInstall {
		t.Fatalf("extension of a replaced model logged %v, want install", logged)
	}

	if s.SnapshotDelta("missing", "missing$X") != nil {
		t.Fatal("SnapshotDelta of a missing model returned a delta")
	}
}

// Recovery brings models back through InstallModel and replays the WAL
// tail through AddAll; that alone must leave a log a derivation can use.
func TestInstallModelStartsTheLog(t *testing.T) {
	s := New()
	base := NewModel("base")
	base.Add(s.dict.Encode(tr(1)))
	derived := NewModel("base$X")
	derived.SetBasis(base.Gen())
	s.InstallModel(base)
	s.InstallModel(derived)
	s.AddAll("base", []rdf.Triple{tr(2), tr(3)})
	if d := derive(t, s); len(d.Added) != 2 || d.PrevGen == 0 {
		t.Fatalf("after install + adds: %d delta triples (want 2), prevGen %d", len(d.Added), d.PrevGen)
	}
}

// TestDerivationMergesOnce: the rounds a derivation writes to its
// Delta.Derived leave the base alone however far the delta grows, and
// InstallExtension merges once.
func TestDerivationMergesOnce(t *testing.T) {
	s := New()
	batch := func(from, n int) []rdf.Triple {
		var ts []rdf.Triple
		for i := from; i < from+n; i++ {
			ts = append(ts, tr(i))
		}
		return ts
	}
	s.AddAll("base", batch(0, 4000))
	derive(t, s)
	s.AddAll("base", batch(4000, 2000))
	d := s.SnapshotDelta("base", "base$X")
	m, base := d.Derived, d.Derived.base
	var added []ETriple
	for i := 0; i < len(d.Added); i += 100 { // 20 rounds, past mergeAt
		round := make([]ETriple, 0, 100)
		for _, a := range d.Added[i : i+100] {
			round = append(round, ETriple{S: a.O, P: a.P, O: a.S})
		}
		added = append(added, m.AddAll(round)...)
	}
	if m.base != base || m.delta.size() != 2000 || m.mergeAt() > 2000 {
		t.Fatalf("after the rounds: base replaced %v, delta %d, mergeAt %d", m.base != base, m.delta.size(), m.mergeAt())
	}
	m.SetBasis(d.Base.Gen())
	s.InstallExtension(m, d.PrevGen, added, nil)
	if m.base.size() != 6000 || m.delta.size() != 0 {
		t.Fatalf("installed: base %d, delta %d, want one merge to 6000 and 0", m.base.size(), m.delta.size())
	}
	if m.AddAll([]ETriple{{S: 1, P: 2, O: 3}}); m.delta.size() != 1 {
		t.Fatalf("a write after the install: delta %d, want 1", m.delta.size())
	}
}
