package store

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"mdw/internal/rdf"
)

// bits renders everything a reader can observe of a view: per member its
// cut and its triples in canonical order, every Source method included.
func bits(v *View, names ...string) string {
	var out []string
	for _, n := range names {
		c := v.Cut(n)
		var ts []ETriple
		one := v.Of(n)
		one.ForEach(Wildcard, Wildcard, Wildcard, func(t ETriple) bool {
			if !one.Contains(t) || one.Count(t.S, t.P, t.O) != 1 {
				ts = append(ts, ETriple{}) // a torn read shows up as a zero triple
			}
			ts = append(ts, t)
			return true
		})
		SortETriples(ts)
		out = append(out, fmt.Sprintf("%+v n=%d %v", c, one.Count(Wildcard, Wildcard, Wildcard), ts))
	}
	sort.Strings(out)
	return fmt.Sprint(out, v.Version())
}

// TestSnapshotIsBitStable holds one snapshot across every kind of write
// to its models — AddAll, Remove, DropModel, InstallModel over it,
// CloneModel from it — and requires it to read exactly as it did when it
// was cut, while a new snapshot reads the new state.
func TestSnapshotIsBitStable(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		s.Add("a", tr(i))
	}
	idx := NewModel("a$X")
	idx.Add(s.encode(tr(1000)))
	idx.SetBasis(s.Generation("a"))
	s.InstallModel(idx)

	names := []string{"a", "a$X", "missing"}
	held := s.Snapshot(names...)
	want := bits(held, names...)
	if c := held.Cut("a"); !c.Exists || c.Gen != s.Generation("a") || c.Triples != 50 {
		t.Fatalf("cut of a = %+v", c)
	}
	if c := held.Cut("a$X"); !c.Exists || c.Basis != held.Cut("a").Gen {
		t.Fatalf("cut of a$X = %+v", c)
	}
	if c := held.Cut("missing"); c.Exists || c.Gen != 0 {
		t.Fatalf("cut of missing = %+v", c)
	}

	writes := map[string]func(){
		"AddAll": func() {
			// Existing subjects and predicate: every inner index node the
			// snapshot shares gets written to.
			var ts []rdf.Triple
			for i := 0; i < 50; i++ {
				ts = append(ts, rdf.T(tr(i).S, tr(i).P, tr(i+500).O))
			}
			s.AddAll("a", ts)
			s.Add("a$X", tr(1001))
		},
		"Remove": func() {
			for i := 0; i < 25; i++ {
				s.Remove("a", tr(i))
			}
			s.Remove("a$X", tr(1000))
		},
		"InstallModel": func() {
			m := NewModel("a")
			m.Add(ETriple{1, 2, 3})
			s.InstallModel(m)
		},
		"CloneModel": func() {
			if err := s.CloneModel("a", "a_copy"); err != nil {
				t.Fatal(err)
			}
			s.Add("a_copy", tr(2000))
			s.Add("a", tr(2001))
		},
		"DropModel": func() {
			s.DropModel("a")
			s.DropModel("a$X")
			s.Add("a", tr(3000)) // and a new model under the old name
		},
	}
	for _, op := range []string{"AddAll", "Remove", "InstallModel", "CloneModel", "DropModel"} {
		before := bits(s.Snapshot(names...), names...)
		writes[op]()
		if got := bits(held, names...); got != want {
			t.Fatalf("after %s the held snapshot reads\n%s\nwant\n%s", op, got, want)
		}
		if after := bits(s.Snapshot(names...), names...); after == before {
			t.Errorf("%s: a new snapshot reads the same as before the write", op)
		}
	}
}

// TestSnapshotsShareOneCopy: any number of snapshots of an unchanged
// store read the same version objects (no copy per reader); a write makes
// the next snapshot cut a new version exactly once, shared again.
func TestSnapshotsShareOneCopy(t *testing.T) {
	s := New()
	s.AddAll("m", []rdf.Triple{tr(1), tr(2)})
	c0 := obsSnapCopies.Value()
	first := s.Snapshot("m")
	if n := obsSnapCopies.Value() - c0; n != 1 {
		t.Fatalf("first snapshot of a written model took %d copies, want 1", n)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if v := s.ViewOf("m", "missing"); !reflect.DeepEqual(v.Models(), first.Models()) || v.Models()[0] != first.Models()[0] {
					t.Error("snapshot of an unchanged store is not the shared version")
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := obsSnapCopies.Value() - c0; n != 1 {
		t.Errorf("800 snapshots of an unchanged store took %d more copies, want 0", n-1)
	}

	s.Add("m", tr(3))
	s.Add("m", tr(4))
	next := s.Snapshot("m")
	if next.Models()[0] == first.Models()[0] || next.Cut("m").Triples != 4 || first.Cut("m").Triples != 2 {
		t.Error("snapshot after a write is not a new version")
	}
	if s.Snapshot("m").Models()[0] != next.Models()[0] {
		t.Error("second snapshot after the write took its own copy")
	}
	if n := obsSnapCopies.Value() - c0; n != 2 {
		t.Errorf("two generations read: %d copies, want 2", n)
	}

	// An installed model is its own first version: reading it copies
	// nothing, and SnapshotDelta hands the derivation the version the
	// readers already share.
	idx := NewModel("m$X")
	idx.SetBasis(s.Generation("m"))
	s.InstallModel(idx)
	if v := s.Snapshot("m$X"); v.Models()[0] != idx {
		t.Error("snapshot of an installed model is a copy")
	}
	if d := s.SnapshotDelta("m", "m$X"); d.Base != next.Models()[0] {
		t.Error("SnapshotDelta cut its own base instead of sharing the readers' version")
	}
	if n := obsSnapCopies.Value() - c0; n != 2 {
		t.Errorf("install, read and delta took %d more copies, want 0", n-2)
	}
}
