package store

import (
	"fmt"
	"reflect"
	"testing"

	"mdw/internal/obs"
	"mdw/internal/rdf"
)

// cutOf pins the named model and returns its Cut: a consumer's position.
func cutOf(s *Store, name string) Cut { return s.Snapshot(name).Cut(name) }

func encodeAll(s *Store, ts ...rdf.Triple) []ETriple {
	var out []ETriple
	for _, t := range ts {
		out = append(out, s.encode(t))
	}
	return out
}

func fallbacks(consumer string) int64 {
	return obs.Default().Counter("mdw_store_feed_fallbacks_total", "consumer", consumer).Value()
}

// The feed hands nothing over: two consumers that last looked at
// different moments each read exactly what they missed, as often as they
// ask, up to the version they have pinned and no further.
func TestChangesServesConsumersAtDifferentPositions(t *testing.T) {
	s := New()
	s.AddAll("m", []rdf.Triple{tr(1), tr(2)})
	early := cutOf(s, "m")
	s.Add("m", tr(3))
	s.AddAll("m", []rdf.Triple{tr(2), tr(4)}) // tr(2) is a duplicate: not a change
	late := cutOf(s, "m")
	s.Add("m", tr(5))
	now := cutOf(s, "m")

	for _, c := range []struct {
		who         string
		since, upto Cut
		want        []ETriple
	}{
		{"early to now", early, now, encodeAll(s, tr(3), tr(4), tr(5))},
		{"late to now", late, now, encodeAll(s, tr(5))},
		{"early to now, again", early, now, encodeAll(s, tr(3), tr(4), tr(5))},
		{"early to the version late pinned", early, late, encodeAll(s, tr(3), tr(4))},
		{"now to now", now, now, nil},
	} {
		added, removed, ok := s.Changes("test", c.since, c.upto)
		if !ok || len(removed) != 0 || !reflect.DeepEqual(added, c.want) {
			t.Errorf("%s: added %v removed %v ok %v, want %v", c.who, added, removed, ok, c.want)
		}
	}
	// An append to what a consumer was handed must not reach the log.
	added, _, _ := s.Changes("test", early, late)
	_ = append(added, ETriple{S: 99, P: 99, O: 99})
	if again, _, _ := s.Changes("test", early, now); !reflect.DeepEqual(again, encodeAll(s, tr(3), tr(4), tr(5))) {
		t.Errorf("a consumer's append overwrote the feed: %v", again)
	}
	// Backwards is not a question the feed answers.
	if _, _, ok := s.Changes("test", now, early); ok {
		t.Error("Changes from a later version to an earlier one answered")
	}
}

// A Remove, a replacing InstallModel and a DropModel (even when a model of
// the same name and a generation past the old one follows) answer
// "everything", and count as a fallback of the consumer that asked.
func TestChangesAnswersEverythingWhenTheFeedCannotSay(t *testing.T) {
	for name, disturb := range map[string]func(s *Store){
		"remove":  func(s *Store) { s.Remove("m", tr(1)) },
		"install": func(s *Store) { s.InstallModel(NewModel("m")) },
		"drop": func(s *Store) {
			s.DropModel("m")
			s.AddAll("m", []rdf.Triple{tr(7), tr(8), tr(9), tr(10)}) // generation 5 > the old 3
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := New()
			s.AddAll("m", []rdf.Triple{tr(1), tr(2)})
			since := cutOf(s, "m")
			before := fallbacks("test-" + name)
			disturb(s)
			s.Add("m", tr(3))
			if _, _, ok := s.Changes("test-"+name, since, cutOf(s, "m")); ok {
				t.Fatal("Changes answered across the disturbance")
			}
			if got := fallbacks("test-"+name) - before; got != 1 {
				t.Errorf("%d fallbacks counted, want 1", got)
			}
			// From the first version after it, the feed answers again.
			since = cutOf(s, "m")
			s.Add("m", tr(4))
			if added, _, ok := s.Changes("test-"+name, since, cutOf(s, "m")); !ok || !reflect.DeepEqual(added, encodeAll(s, tr(4))) {
				t.Errorf("after the disturbance: added %v ok %v", added, ok)
			}
		})
	}
}

// extend publishes a successor of the installed model through
// InstallExtension, as a derivation does.
func extend(t *testing.T, s *Store, name string, add, remove []ETriple) {
	t.Helper()
	prev := s.Generation(name)
	m := s.SnapshotModel(name)
	for _, r := range remove {
		if !m.Remove(r) {
			t.Fatalf("extension removes %v, which the model lacks", r)
		}
	}
	for _, a := range add {
		if !m.Add(a) {
			t.Fatalf("extension adds %v, which the model holds", a)
		}
	}
	s.InstallExtension(m, prev, add, remove)
}

// An InstallExtension feeds its two lists; a consumer several extensions
// behind gets them net — a triple that came and went in between appears in
// neither list, one that went and came back likewise — and Adds between
// extensions are part of the same feed.
func TestChangesAcrossExtensions(t *testing.T) {
	s := New()
	e := func(i int) ETriple { return s.encode(tr(i)) }
	s.AddAll("x", []rdf.Triple{tr(1), tr(2)})
	p0 := cutOf(s, "x")
	extend(t, s, "x", []ETriple{e(3), e(4)}, []ETriple{e(1)})
	p1 := cutOf(s, "x")
	s.Add("x", tr(5))
	extend(t, s, "x", []ETriple{e(1), e(6)}, []ETriple{e(3)})
	p2 := cutOf(s, "x")

	for _, c := range []struct {
		who            string
		since, upto    Cut
		added, removed []ETriple
	}{
		{"one extension", p0, p1, []ETriple{e(3), e(4)}, []ETriple{e(1)}},
		{"an add and an extension", p1, p2, []ETriple{e(5), e(1), e(6)}, []ETriple{e(3)}},
		// e(1) went and came back, e(3) came and went.
		{"both extensions", p0, p2, []ETriple{e(4), e(5), e(6)}, nil},
	} {
		added, removed, ok := s.Changes("test", c.since, c.upto)
		if !ok || !reflect.DeepEqual(added, c.added) || !reflect.DeepEqual(removed, c.removed) {
			t.Errorf("%s: added %v removed %v ok %v, want %v and %v", c.who, added, removed, ok, c.added, c.removed)
		}
	}
	// Applying what the feed says to the older version gives the newer.
	v := s.Snapshot("x")
	old := NewModel("old")
	for _, i := range []int{1, 2} {
		old.Add(e(i))
	}
	added, removed, _ := s.Changes("test", p0, p2)
	for _, r := range removed {
		old.Remove(r)
	}
	for _, a := range added {
		old.Add(a)
	}
	if old.Len() != v.Len() {
		t.Fatalf("replayed model has %d triples, the store's %d", old.Len(), v.Len())
	}
	v.ForEach(Wildcard, Wildcard, Wildcard, func(t3 ETriple) bool {
		if !old.Contains(t3) {
			t.Errorf("replayed model lacks %v", t3)
		}
		return true
	})
}

// Nobody trims the log but the store, which bounds it by the model: a
// model that only grows keeps every addition (a reader is never cut off
// for being slow), while extensions that churn — remove and re-add, or
// change nothing at all — push the log past the model's size, the older
// half goes, and a reader that far behind is told "everything".
func TestFeedNeverOutgrowsTheModel(t *testing.T) {
	s := New()
	const n = 3 * logFloor
	var first Cut
	for i := 0; i < n; i += 64 {
		batch := make([]rdf.Triple, 64)
		for j := range batch {
			batch[j] = rdf.T(rdf.IRI(fmt.Sprintf("http://t/s%d", i+j)), rdf.IRI("http://t/p"), rdf.IRI("http://t/o"))
		}
		s.AddAll("m", batch)
		if i == 0 {
			first = cutOf(s, "m")
		}
	}
	if added, _, ok := s.Changes("test", first, cutOf(s, "m")); !ok || len(added) != n-64 || s.deltas["m"].n != n {
		t.Fatalf("a model of %d added triples: log holds %d, Changes since the first batch: %d added, ok %v", n, s.deltas["m"].n, len(added), ok)
	}

	// Churn: each extension takes one triple out and the next puts it back.
	e := s.encode(rdf.T(rdf.IRI("http://t/s0"), rdf.IRI("http://t/p"), rdf.IRI("http://t/o")))
	start := cutOf(s, "m")
	var recent Cut
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			extend(t, s, "m", nil, []ETriple{e})
		} else {
			extend(t, s, "m", []ETriple{e}, nil)
		}
		if l := s.deltas["m"]; l.n > s.Len("m")+2 {
			t.Fatalf("after %d extensions the log holds %d entries for a model of %d", i+1, l.n, s.Len("m"))
		}
		if i == n-11 {
			recent = cutOf(s, "m")
		}
	}
	now := cutOf(s, "m")
	if _, _, ok := s.Changes("test", start, now); ok {
		t.Error("the log still reaches back past a model's worth of churn")
	}
	if added, removed, ok := s.Changes("test", recent, now); !ok || len(added)+len(removed) != 0 {
		t.Errorf("ten extensions back, an even number of flips: added %v removed %v ok %v, want nothing and ok", added, removed, ok)
	}
	// Extension steps count too, so a stream of empty extensions is bounded
	// as well.
	s.Add("x", tr(1))
	for i := 0; i < 3*logFloor; i++ {
		extend(t, s, "x", nil, nil)
	}
	if l := s.deltas["x"]; len(l.steps) > logFloor+1 {
		t.Errorf("%d empty extension steps kept", len(l.steps))
	}
}
