package store

import "sync"

// deltaLog is the append-only record of what one model gained since
// generation start: 12 bytes per added triple. Every successful Add
// moves a model's generation by exactly one, so adds[i] is the triple
// that took the model from start+i to start+i+1, and "everything added
// since generation g" is adds[g-start:] — no per-entry position needed.
//
// Every model of a store has one, started at the generation the store
// first held the model (created empty, cloned, or installed — the last
// is how recovery brings models back, so the WAL tail replayed through
// AddAll rebuilds the log by itself). It starts over where a derivation
// takes it (SnapshotDelta) and at anything that is not an addition: a
// Remove, a replacing InstallModel; DropModel ends it. A Remove resets
// it and every entry is a triple the model holds, so it never outgrows
// the model: at worst it says "everything", which is what a derivation
// without a log starts from anyway.
type deltaLog struct {
	start uint64
	adds  []ETriple
}

// Delta is one consistent cut of a base model and the model derived from
// it, plus what the base gained since the derivation: everything a
// derivation needs to bring the derived model up to date by extension.
type Delta struct {
	// Base is the version of the base model that Snapshot hands to readers
	// of this generation, to be read only. Base.Gen() is the basis of
	// whatever is derived from it.
	Base *Model
	// Derived is a copy-on-write clone of the installed derived model for
	// the caller to extend in place, or an empty model when there is
	// nothing to extend from. It is detached; the caller owns it.
	Derived *Model
	// PrevGen is the generation of the installed model Derived was cloned
	// from; 0 when Derived starts empty.
	PrevGen uint64
	// Added holds the base triples the derived model has not seen: those
	// added since its basis or, when the log cannot say (no derived model
	// yet, its basis predates the log, a Remove reset it), every triple of
	// Base. The slice is the caller's to append to.
	Added []ETriple
}

// SnapshotDelta captures base, derived and the base's delta log since
// derived's basis in one critical section, and restarts the log at the
// captured generation: the entries handed out are the caller's now, and
// the model InstallExtension publishes from them will have exactly the
// new log's start as its basis. It returns nil when base does not exist.
func (s *Store) SnapshotDelta(base, derived string) *Delta {
	s.mu.Lock()
	b, ok := s.models[base]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	d := &Delta{Base: s.versionLocked(b, true)}
	full := true
	if cur, l := s.models[derived], s.deltas[base]; cur != nil &&
		// The log must reach back to the derivation and forward to now
		// (a model mutated behind the store's back would break the
		// latter).
		l.start <= cur.basis && cur.basis <= b.gen && l.start+uint64(len(l.adds)) == b.gen {
		d.Derived, d.PrevGen = cur.cloneAt(derived, s.nextCloneGenLocked()), cur.gen
		d.Added = l.adds[cur.basis-l.start:]
		full = false
	}
	s.deltas[base] = &deltaLog{start: b.gen}
	s.mu.Unlock()
	if full {
		d.Derived = NewModel(derived)
		d.Added = make([]ETriple, 0, d.Base.size)
		d.Base.ForEach(Wildcard, Wildcard, Wildcard, func(t ETriple) bool {
			d.Added = append(d.Added, t)
			return true
		})
	}
	return d
}

// InstallExtension publishes m, a Delta.Derived the caller has brought up
// to date by removing and then adding the given triples, like
// InstallModel does. When the installed model is still the one m was
// cloned from (generation prevGen), the commit hook sees the extension
// as what it is — OpExtend with just the two triple lists; otherwise
// (nothing to extend, or someone replaced the model meanwhile) it sees a
// full OpInstall.
func (s *Store) InstallExtension(m *Model, prevGen uint64, added, removed []ETriple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mut := Mutation{Op: OpInstall, Model: m.name, Gen: m.gen, Basis: m.basis, Installed: m}
	if cur, ok := s.models[m.name]; ok && prevGen != 0 && cur.gen == prevGen {
		mut = Mutation{Op: OpExtend, Model: m.name, PrevGen: prevGen, Gen: m.gen, Basis: m.basis, Triples: added, Removed: removed}
	}
	s.installLocked(m, mut)
}

// DeriveLock returns the mutex that serializes derivations from the named
// base model. SnapshotDelta hands a model's log to one consumer, so
// whoever maintains a derived model holds this lock from the currency
// check to the install; concurrent callers that found the model stale
// queue here and find it current when they get in.
func (s *Store) DeriveLock(base string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	mu, ok := s.deriveMu[base]
	if !ok {
		mu = new(sync.Mutex)
		s.deriveMu[base] = mu
	}
	return mu
}
