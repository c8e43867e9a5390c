package store

import (
	"sort"
	"strings"
)

// Source is a read-only triple source addressed by encoded IDs. Model and
// View both implement it; the SPARQL engine executes against a Source.
type Source interface {
	// ForEach streams triples matching the pattern (Wildcard matches
	// anything) until fn returns false.
	ForEach(s, p, o ID, fn func(ETriple) bool)
	// Contains reports whether the triple is present.
	Contains(ETriple) bool
	// Count returns the number of triples matching the pattern.
	Count(s, p, o ID) int
	// Objects returns the objects of triples matching (s, p).
	Objects(s, p ID) []ID
	// Subjects returns the subjects of triples matching (p, o).
	Subjects(p, o ID) []ID
}

// View is the union of several models sharing one dictionary. The paper's
// queries union a base RDF model with its OWLPRIME index model when the
// query names a rulebase (Listings 1 and 2); View implements exactly that
// combination. Triples appearing in multiple member models are reported
// once.
//
// A View reads its members without locking, so they must be models
// nobody writes: the versions Store.Snapshot pins, or models the caller
// owns. It is then safe for any number of concurrent readers for as long
// as it is held, whatever happens to the store meanwhile.
type View struct {
	models []*Model
}

// NewView returns a view over the given models (order defines the dedup
// precedence; contents are read in place, not copied).
func NewView(models ...*Model) *View {
	return &View{models: models}
}

// Models returns the member models.
func (v *View) Models() []*Model { return v.models }

// Cut describes one model of a snapshot as of the moment it was cut. It
// also names that version as a position in the model's change feed: see
// Store.Changes.
type Cut struct {
	Name    string
	Exists  bool
	Gen     uint64 // mutation generation (0 when absent)
	Basis   uint64 // recorded base generation for derived models
	Triples int
	feed    uint64 // the change feed Gen is a position in
}

// Cut describes the member named name; a model the view does not hold
// (the store had none when the snapshot was cut) does not exist.
func (v *View) Cut(name string) Cut {
	for _, m := range v.models {
		if m.name == name {
			return Cut{Name: name, Exists: true, Gen: m.gen, Basis: m.basis, Triples: m.Len(), feed: m.feed}
		}
	}
	return Cut{Name: name}
}

// Cuts describes every member, in member order.
func (v *View) Cuts() []Cut {
	cuts := make([]Cut, len(v.models))
	for i, m := range v.models {
		cuts[i] = v.Cut(m.name)
	}
	return cuts
}

// Of returns the view over just the member named name (empty when the
// view does not hold it).
func (v *View) Of(name string) *View {
	for i, m := range v.models {
		if m.name == name {
			return &View{models: v.models[i : i+1]}
		}
	}
	return &View{}
}

// Version names the exact state the view reads — the sorted Versions of
// its members. The members never change, so neither does this: a result
// computed from the view may be cached under it.
func (v *View) Version() string {
	parts := make([]string, len(v.models))
	for i, m := range v.models {
		parts[i] = m.Version()
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// Len returns the number of distinct triples in the view.
func (v *View) Len() int {
	n := 0
	v.ForEach(Wildcard, Wildcard, Wildcard, func(ETriple) bool { n++; return true })
	return n
}

// Contains reports whether any member model holds the triple.
func (v *View) Contains(t ETriple) bool {
	for _, m := range v.models {
		if m.Contains(t) {
			return true
		}
	}
	return false
}

// ForEach streams distinct matching triples across all member models.
func (v *View) ForEach(s, p, o ID, fn func(ETriple) bool) {
	stopped := false
	for i, m := range v.models {
		if stopped {
			return
		}
		m.ForEach(s, p, o, func(t ETriple) bool {
			for _, prev := range v.models[:i] {
				if prev.Contains(t) {
					return true // already reported
				}
			}
			if !fn(t) {
				stopped = true
				return false
			}
			return true
		})
	}
}

// Count returns the number of distinct triples matching the pattern.
// Rather than enumerating every member with per-triple Contains probes
// against every earlier model, it takes the largest member's count for
// free from its index and corrects for overlap by enumerating only the
// smaller members: each distinct triple is attributed to the first model
// (in descending-count order) that holds it, so the sum stays exact
// while the dominant member is never walked.
func (v *View) Count(s, p, o ID) int {
	switch len(v.models) {
	case 0:
		return 0
	case 1:
		return v.models[0].Count(s, p, o)
	}
	order := make([]int, len(v.models))
	counts := make([]int, len(v.models))
	for i, m := range v.models {
		order[i] = i
		counts[i] = m.Count(s, p, o)
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })
	total := counts[order[0]]
	for k := 1; k < len(order); k++ {
		if counts[order[k]] == 0 {
			continue
		}
		v.models[order[k]].ForEach(s, p, o, func(t ETriple) bool {
			for j := 0; j < k; j++ {
				if v.models[order[j]].Contains(t) {
					return true // overlap: already attributed
				}
			}
			total++
			return true
		})
	}
	return total
}

// EstCount implements CardEstimator: member counts summed without
// overlap deduplication. The result is an upper bound, which is what the
// query planner wants — cheap and monotone, never an enumeration.
func (v *View) EstCount(s, p, o ID) int {
	n := 0
	for _, m := range v.models {
		n += m.Count(s, p, o)
	}
	return n
}

// PredStats implements StatsSource by combining member statistics.
// Triples and distinct objects are summed (overlaps counted once per
// member — an upper bound, like EstCount). Distinct subjects take the
// MAX across members, not the sum: the typical view stacks a base
// model with indexes derived from it (entailment, inferred labels),
// whose triples re-state the SAME subjects with new predicate values —
// summing would double-count nearly every subject. The planner divides
// triples by distinct subjects to estimate per-subject fanout, and an
// inflated subject count underestimates fanout, the non-conservative
// direction; EXPLAIN ANALYZE flagged exactly this on the paper-scale
// Listing 1 workload. The true union count lies in [max, sum]; max
// keeps the fanout estimate an upper bound. Objects don't share the
// problem — derived triples mint new objects (supertypes, literals),
// so member object sets are largely disjoint and sum tracks the union.
func (v *View) PredStats(p ID) PredStats {
	var ps PredStats
	for _, m := range v.models {
		mp := m.PredStats(p)
		ps.Triples += mp.Triples
		ps.DistinctSubjects = max(ps.DistinctSubjects, mp.DistinctSubjects)
		ps.DistinctObjects += mp.DistinctObjects
	}
	return ps
}

// Objects returns the distinct objects of triples matching (s, p).
func (v *View) Objects(s, p ID) []ID {
	if len(v.models) == 1 {
		return v.models[0].Objects(s, p)
	}
	seen := make(map[ID]bool)
	var out []ID
	v.ForEach(s, p, Wildcard, func(t ETriple) bool {
		if !seen[t.O] {
			seen[t.O] = true
			out = append(out, t.O)
		}
		return true
	})
	return out
}

// Subjects returns the distinct subjects of triples matching (p, o).
func (v *View) Subjects(p, o ID) []ID {
	if len(v.models) == 1 {
		return v.models[0].Subjects(p, o)
	}
	seen := make(map[ID]bool)
	var out []ID
	v.ForEach(Wildcard, p, o, func(t ETriple) bool {
		if !seen[t.S] {
			seen[t.S] = true
			out = append(out, t.S)
		}
		return true
	})
	return out
}

// Snapshot pins the named models as of one moment: the returned View
// reads versions of them that are never written again, all cut inside
// one critical section, and stays valid — bit for bit — for as long as
// the caller holds it, whatever is added, removed, dropped, installed or
// cloned meanwhile. Missing models are left out, so callers can blindly
// request "<model>$OWLPRIME"; View.Cut says what was there.
//
// A model's version is shared by every snapshot until the model's next
// write, so reading an unchanged store costs the read lock and a
// comparison per name. The first snapshot after a write takes the write
// lock to copy the model's three set pointers, O(1) whatever the size of
// its delta: that is all a writer ever waits for.
func (s *Store) Snapshot(names ...string) *View {
	return s.snapshot(names, false, nil)
}

// SnapshotAll is Snapshot of every model the store holds, in name order.
// If observe is non-nil it runs inside the critical section the versions
// are cut in — the durable manager uses it to read the WAL position that
// corresponds exactly to the snapshot (no writer, hence no WAL append,
// can run concurrently) — and must not call locking Store methods.
func (s *Store) SnapshotAll(observe func()) *View {
	return s.snapshot(nil, true, observe)
}

// snapshot pins the named models, or with all every model, under the read
// lock if every one has its version already and under the write lock
// otherwise.
func (s *Store) snapshot(names []string, all bool, observe func()) *View {
	s.mu.RLock()
	v := s.snapshotLocked(names, all, false, observe)
	s.mu.RUnlock()
	if v == nil {
		s.mu.Lock()
		v = s.snapshotLocked(names, all, true, observe)
		s.mu.Unlock()
	}
	return v
}

// snapshotLocked is snapshot inside the critical section; without cut it
// returns nil as soon as a model has no version yet. observe runs once
// the view is complete.
func (s *Store) snapshotLocked(names []string, all, cut bool, observe func()) *View {
	if all {
		names = make([]string, 0, len(s.models))
		for n := range s.models {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	ms := make([]*Model, 0, len(names))
	for _, n := range names {
		m, ok := s.models[n]
		if !ok {
			continue
		}
		c := s.versionLocked(m, cut)
		if c == nil {
			return nil
		}
		ms = append(ms, c)
	}
	if observe != nil {
		observe() // under the store's lock: see SnapshotAll
	}
	return NewView(ms...)
}

// ViewOf is Snapshot by the name bench/ and most tests call it.
func (s *Store) ViewOf(names ...string) *View { return s.Snapshot(names...) }
