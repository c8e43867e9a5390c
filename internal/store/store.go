package store

import (
	"fmt"
	"sort"
	"sync"

	"mdw/internal/rdf"
)

// Store is the top-level triple storage facility: a shared term dictionary
// plus a set of named models. It corresponds to the Oracle database holding
// the RDF model tables in Figure 4 of the paper.
//
// Store methods are safe for concurrent use: mutations take the write
// lock, point queries hold the read lock for their whole duration, and
// everything longer than a point query reads a Snapshot — immutable
// versions of the models it names, pinned for as long as the caller holds
// them, which no writer waits for or can disturb.
type Store struct {
	mu     sync.RWMutex
	dict   *Dict
	models map[string]*Model
	// cuts holds, per model name, the version of the model that readers
	// pin: a model nobody writes any more, at the live model's generation.
	// A model enters the store as its own version — whoever installed it
	// has given it up — until the first write moves the live side to a
	// copy (writableLocked); a write that changes the model drops the
	// entry, so only readers still holding the old version keep its nodes
	// alive, and the next reader gets one by copy (versionLocked).
	cuts map[string]*Model
	// hook, when set, observes every committed mutation under the write
	// lock (see CommitHook). The durable write-ahead log attaches here.
	hook CommitHook
	// cloneEpoch is the highest generation salt (high 32 bits) the store
	// has handed to a clone or seen on an installed model. Guarded by mu;
	// it only ratchets up, so a salt is never reused even after the model
	// carrying it is dropped (a reused (name, generation) pair could
	// alias stale results-cache entries).
	cloneEpoch uint64
	// deltas holds, per model name, the model's change feed (see
	// deltaLog), feedSeq the last feed id handed out, deriveMu the per-base
	// derivation locks. All guarded by mu.
	deltas   map[string]*deltaLog
	feedSeq  uint64
	deriveMu map[string]*sync.Mutex
}

// New returns an empty store.
func New() *Store {
	return &Store{
		dict:     NewDict(),
		models:   make(map[string]*Model),
		cuts:     make(map[string]*Model),
		deltas:   make(map[string]*deltaLog),
		deriveMu: make(map[string]*sync.Mutex),
	}
}

// Dict exposes the shared term dictionary.
func (s *Store) Dict() *Dict { return s.dict }

// Model makes sure the named model exists and returns the live model. It
// is the store's, written under the store's lock: readers take a Snapshot
// instead of reading it.
func (s *Store) Model(name string) *Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.modelLocked(name)
}

func (s *Store) modelLocked(name string) *Model {
	m, ok := s.models[name]
	if !ok {
		m = NewModel(name)
		s.publishLocked(m)
	}
	return m
}

// publishLocked makes m the store's model of its name, and its own first
// version. The store now knows m's whole content at m.gen, so a change
// feed of m's own starts there.
func (s *Store) publishLocked(m *Model) {
	s.models[m.name] = m
	s.cuts[m.name] = m
	s.startLogLocked(m)
}

// writableLocked returns the named live model (created if absent) ready
// to be mutated in place: while the live model is itself the version
// readers pin, the write goes to a copy that takes its place.
func (s *Store) writableLocked(name string) *Model {
	m := s.modelLocked(name)
	if s.cuts[name] == m {
		m = m.fork()
		s.models[name] = m
		obsSnapCopies.Inc()
	}
	return m
}

// versionLocked returns the version of live model m — a model at m's
// generation that is never written again. With cut unset it returns nil
// when there is none yet; with cut set (write lock held) it takes one,
// the one copy all readers of this generation share.
func (s *Store) versionLocked(m *Model, cut bool) *Model {
	c := s.cuts[m.name]
	if c != nil && c.uid == m.uid && c.gen == m.gen {
		return c
	}
	if !cut {
		return nil
	}
	c = m.fork()
	s.cuts[m.name] = c
	obsSnapCopies.Inc()
	return c
}

// HasModel reports whether a model with the given name exists.
func (s *Store) HasModel(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.models[name]
	return ok
}

// Generation returns the mutation generation of the named model (0 if
// the model does not exist; live models start at 1). Two reads returning
// the same generation bracket a span with no writes to the model.
func (s *Store) Generation(model string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if m, ok := s.models[model]; ok {
		return m.gen
	}
	return 0
}

// Current reports whether the derived model idx exists and was computed
// from the present generation of base — i.e. whether the derivation is
// up to date. A derived model that never recorded a basis is never
// current.
func (s *Store) Current(base, idx string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.models[base]
	if !ok {
		return false
	}
	i, ok := s.models[idx]
	return ok && i.basis == b.gen
}

// SnapshotModel returns a copy of the named model (nil if absent). The
// copy is detached: the caller owns it and may mutate it freely while
// other goroutines keep writing to the store — the way to build a
// successor off to the side and publish it with InstallModel (readers
// want Snapshot, which shares one copy). The copy shares the model's
// three immutable sets, so it costs O(1), not O(triples), under a brief
// write lock that allocates its generation: a fresh one; the source
// generation it was taken at is Basis().
func (s *Store) SnapshotModel(model string) *Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.models[model]
	if !ok {
		return nil
	}
	return m.cloneAt(model, s.nextCloneGenLocked())
}

// nextCloneGenLocked allocates the generation for a fresh clone: low
// word 1 under a salt strictly greater than any salt the store has seen,
// so the clone's generation sequence can never collide with its
// source's — or any other model's — no matter how either side mutates
// afterwards. Caller holds the write lock.
func (s *Store) nextCloneGenLocked() uint64 {
	salt := s.cloneEpoch
	for _, m := range s.models {
		if hi := m.gen >> 32; hi > salt {
			salt = hi
		}
	}
	salt++
	s.cloneEpoch = salt
	return salt<<32 + 1
}

// InstallModel atomically publishes m under its name, replacing any
// existing model. Readers holding a Snapshot of the replaced model keep
// seeing the old contents; new ones pick up m. This is how derived
// models (entailment indexes) are swapped in without a window in which
// the model is missing or half-built. The caller gives m up: from here
// on it is a version readers may hold, and must not be written.
func (s *Store) InstallModel(m *Model) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(m)
	s.installedLocked(m, Mutation{Op: OpInstall, Model: m.name, Gen: m.gen, Basis: m.basis, Installed: m})
}

// installedLocked accounts for the publication of m and delivers mut, its
// description, to the commit hook.
func (s *Store) installedLocked(m *Model, mut Mutation) {
	if hi := m.gen >> 32; hi > s.cloneEpoch {
		s.cloneEpoch = hi
	}
	obsInstalls.Inc()
	s.commit(mut)
}

// DropModel removes the named model and reports whether it existed.
func (s *Store) DropModel(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.models[name]; !ok {
		return false
	}
	delete(s.models, name)
	delete(s.cuts, name)
	delete(s.deltas, name)
	s.commit(Mutation{Op: OpDrop, Model: name})
	return true
}

// ModelNames returns the sorted names of all models.
func (s *Store) ModelNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.models))
	for n := range s.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Add inserts one triple into the named model and reports whether it was
// newly added.
func (s *Store) Add(model string, t rdf.Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.writableLocked(model)
	l, run := s.runLocked(m)
	et := s.dict.Encode(t)
	added := m.Add(et)
	if added {
		obsAdds.Inc()
		delete(s.cuts, model)
		run.added, run.gen = append(run.added, et), m.gen
		l.n++
		s.commit(Mutation{Op: OpAdd, Model: model, Triples: run.added[len(run.added)-1:], Gen: m.gen})
	}
	return added
}

// AddAll bulk-inserts triples into the named model and returns the number
// actually added (duplicates are skipped).
func (s *Store) AddAll(model string, ts []rdf.Triple) int {
	enc := make([]ETriple, len(ts))
	for i, t := range ts {
		enc[i] = s.dict.Encode(t)
	}
	return s.AddIDs(model, enc)
}

// AddIDs is AddAll for triples already encoded by the store's Dict. The
// caller gives ts up: the model's change feed may keep it.
func (s *Store) AddIDs(model string, ts []ETriple) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.writableLocked(model)
	// What was actually added goes to the model's change feed, and the
	// commit hook reads it from there. The feed takes a batch's own array
	// only when it is exactly full; spare capacity would stay live with it.
	l, run := s.runLocked(m)
	n0 := len(run.added)
	if added := m.AddAll(ts); len(run.added) == 0 && cap(added) == len(added) {
		run.added = added
	} else {
		run.added = append(run.added, added...)
	}
	n := len(run.added) - n0
	obsAdds.Add(int64(n))
	if n > 0 {
		delete(s.cuts, model)
		run.gen = m.gen
		l.n += n
		s.commit(Mutation{Op: OpAdd, Model: model, Triples: run.added[n0:], Gen: m.gen})
	}
	return n
}

// Remove deletes one triple from the named model and reports whether it
// was present.
func (s *Store) Remove(model string, t rdf.Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.models[model]; !ok {
		return false
	}
	et, ok := s.encodeLookup(t)
	if !ok {
		return false
	}
	m := s.writableLocked(model)
	removed := m.Remove(et)
	if removed {
		delete(s.cuts, model)
		// The feed records removals only where an extension lists them:
		// it starts over.
		s.startLogLocked(m)
		s.commit(Mutation{Op: OpRemove, Model: model, Triples: []ETriple{et}, Gen: m.gen})
	}
	return removed
}

// Contains reports whether the triple exists in the named model.
func (s *Store) Contains(model string, t rdf.Triple) bool {
	obsLookups.Inc()
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.models[model]
	if !ok {
		return false
	}
	et, ok := s.encodeLookup(t)
	if !ok {
		return false
	}
	return m.Contains(et)
}

// Len returns the number of triples in the named model (0 if absent).
func (s *Store) Len(model string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.models[model]
	if !ok {
		return 0
	}
	return m.Len()
}

// encodeLookup encodes without interning; ok is false when any term is
// unknown (in which case the triple cannot exist in any model).
func (s *Store) encodeLookup(t rdf.Triple) (ETriple, bool) {
	si, ok := s.dict.Lookup(t.S)
	if !ok {
		return ETriple{}, false
	}
	pi, ok := s.dict.Lookup(t.P)
	if !ok {
		return ETriple{}, false
	}
	oi, ok := s.dict.Lookup(t.O)
	if !ok {
		return ETriple{}, false
	}
	return ETriple{si, pi, oi}, true
}

// patID resolves a pattern term: the zero Term is the wildcard; unknown
// terms resolve to an impossible pattern (signalled by ok=false).
func (s *Store) patID(t rdf.Term) (ID, bool) {
	if t.IsZero() {
		return Wildcard, true
	}
	return s.dict.Lookup(t)
}

// Match returns all triples in the named model matching the pattern.
// Zero-valued terms act as wildcards.
func (s *Store) Match(model string, sub, pred, obj rdf.Term) []rdf.Triple {
	var out []rdf.Triple
	s.ForEach(model, sub, pred, obj, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// ForEach streams decoded triples matching the pattern to fn; iteration
// stops early when fn returns false. Zero-valued terms act as wildcards.
// The store's read lock is held for the whole iteration, so fn must not
// call locking Store methods: a mutating one deadlocks at once, a reading
// one as soon as a writer is waiting in between. Anything that needs the
// store again reads a Snapshot instead.
func (s *Store) ForEach(model string, sub, pred, obj rdf.Term, fn func(rdf.Triple) bool) {
	obsLookups.Inc()
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.models[model]
	if !ok {
		return
	}
	si, ok := s.patID(sub)
	if !ok {
		return
	}
	pi, ok := s.patID(pred)
	if !ok {
		return
	}
	oi, ok := s.patID(obj)
	if !ok {
		return
	}
	m.ForEach(si, pi, oi, func(et ETriple) bool {
		return fn(rdf.Triple{S: s.dict.Term(et.S), P: s.dict.Term(et.P), O: s.dict.Term(et.O)})
	})
}

// CountPattern returns the number of triples matching the pattern.
func (s *Store) CountPattern(model string, sub, pred, obj rdf.Term) int {
	obsLookups.Inc()
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.models[model]
	if !ok {
		return 0
	}
	si, ok := s.patID(sub)
	if !ok {
		return 0
	}
	pi, ok := s.patID(pred)
	if !ok {
		return 0
	}
	oi, ok := s.patID(obj)
	if !ok {
		return 0
	}
	return m.Count(si, pi, oi)
}

// Triples returns every triple of the named model in canonical order.
func (s *Store) Triples(model string) []rdf.Triple {
	ts := s.Match(model, rdf.Term{}, rdf.Term{}, rdf.Term{})
	rdf.SortTriples(ts)
	return ts
}

// CloneModel publishes a copy of the src model under the dst name. It
// fails if dst already exists. The clone shares its source's three
// immutable sets, so the exclusive lock is held for O(1), not
// O(triples). The clone's generation
// is fresh (store-wide unique) and its Basis records the source
// generation it was taken at, so no cache key or derivation check can
// alias clone and source after they diverge.
func (s *Store) CloneModel(src, dst string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cloneModelLocked(src, dst, 0)
}

// CloneModelAt is CloneModel with an explicit generation for the copy.
// Only the durable recovery path uses it, to reproduce the generation
// the original CloneModel allocated (and logged) so that replaying the
// same WAL converges on the same generation sequence.
func (s *Store) CloneModelAt(src, dst string, gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hi := gen >> 32; hi > s.cloneEpoch {
		s.cloneEpoch = hi
	}
	return s.cloneModelLocked(src, dst, gen)
}

func (s *Store) cloneModelLocked(src, dst string, gen uint64) error {
	sm, ok := s.models[src]
	if !ok {
		return fmt.Errorf("store: clone: no such model %q", src)
	}
	if _, exists := s.models[dst]; exists {
		return fmt.Errorf("store: clone: model %q already exists", dst)
	}
	if gen == 0 {
		gen = s.nextCloneGenLocked()
	}
	c := sm.cloneAt(dst, gen)
	s.publishLocked(c)
	obsClones.Inc()
	s.commit(Mutation{Op: OpClone, Model: dst, Src: src, Gen: c.gen})
	return nil
}

// Stats summarizes one model for monitoring and the paper-scale reports.
type Stats struct {
	Model      string
	Triples    int
	Subjects   int
	Predicates int
	Objects    int
}

// ModelStats computes statistics for the named model.
func (s *Store) ModelStats(model string) Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.models[model]
	if !ok {
		return Stats{Model: model}
	}
	return Stats{
		Model:      model,
		Triples:    m.Len(),
		Subjects:   m.keys(0),
		Predicates: m.keys(1),
		Objects:    m.keys(2),
	}
}
