package store

import (
	"slices"
	"sync"

	"mdw/internal/obs"
)

// deltaLog is the change feed of one model: what the model gained, and
// lost where an extension said so, since generation start. Whatever is
// derived from a model — its entailment index, its full-text index, its
// checkpoint on disk — remembers the version it was derived from and
// reads here what to catch up on (Store.Changes), instead of diffing the
// model against its own copy.
//
// Every model of a store has one, started when the store first holds the
// model (created empty, cloned, or installed — the last is how recovery
// brings models back, so the WAL tail replayed through AddAll and
// InstallExtension rebuilds the log by itself). Successful Adds append to
// it and an InstallExtension continues it with the two lists it was
// given. It starts over — under a new id, so no position in the old log
// can be mistaken for one in the new — at anything it cannot describe: a
// Remove, a replacing InstallModel; DropModel ends it.
//
// Nobody registers as a reader, so nothing says when an entry was last
// needed. The log is bounded by the model instead: it holds no more
// entries than the model holds triples (logFloor at least). A model that
// only grows never reaches that bound — every Add moves both counts by
// one — so its readers are never cut off however far behind they fall;
// extensions that remove, or change nothing, do reach it, and then the
// older half goes and a reader that far behind is told "everything",
// which costs it no more than twice the log it would have read.
type deltaLog struct {
	// id names the log among all the store ever started; the versions it
	// describes carry it (Model.feed).
	id uint64
	// start is the generation before the first step.
	start uint64
	steps []step
	// n counts what the log holds: a triple per entry, and one per
	// extension step so that empty extensions are bounded too.
	n int
}

// step is one stretch of a model's history. A run of Adds moves the
// generation by one per triple, so added[i] took the model from
// gen-len(added)+i to the next and any generation inside the run is a
// position; an extension replaced the model by one under a fresh
// generation, and only its two ends are.
type step struct {
	gen            uint64 // the model's generation after the step
	ext            bool
	added, removed []ETriple
}

// logFloor is the size below which a log is never cut back: small models
// keep their whole history.
const logFloor = 1024

// end returns the generation the log reaches.
func (l *deltaLog) end() uint64 {
	if n := len(l.steps); n > 0 {
		return l.steps[n-1].gen
	}
	return l.start
}

// run returns the step Adds append to, opening one when the log ends in
// an extension.
func (l *deltaLog) run() *step {
	if n := len(l.steps); n == 0 || l.steps[n-1].ext {
		l.steps = append(l.steps, step{gen: l.end()})
	}
	return &l.steps[len(l.steps)-1]
}

// bound cuts the log back to half its bound once it has outgrown it: the
// size of the model it describes, logFloor at least.
func (l *deltaLog) bound(size int) {
	if limit := max(logFloor, size); l.n > limit {
		l.trim(limit / 2)
	}
}

// trim drops the oldest entries until at most keep are left: whole steps,
// and the head of a run.
func (l *deltaLog) trim(keep int) {
	i := 0
	for ; i < len(l.steps) && l.n > keep; i++ {
		st := &l.steps[i]
		if k := l.n - keep; !st.ext && k < len(st.added) {
			// A fresh array: the old one may be as large as the model.
			st.added = slices.Clone(st.added[k:])
			l.start += uint64(k)
			l.n -= k
			break
		}
		l.n -= len(st.added) + len(st.removed)
		if st.ext {
			l.n--
		}
		l.start = st.gen
	}
	l.steps = slices.Clone(l.steps[i:])
}

// locate finds generation gen in the log: what follows it is
// steps[i].added[off:] and every later step. Readers are usually near
// the end, so that is where the search starts.
func (l *deltaLog) locate(gen uint64) (i, off int, ok bool) {
	if gen == l.end() {
		return len(l.steps), 0, true
	}
	for i = len(l.steps) - 1; i >= 0; i-- {
		prev := l.start
		if i > 0 {
			prev = l.steps[i-1].gen
		}
		if gen == prev {
			return i, 0, true
		}
		// Inside a run (prev < gen < st.gen); the subtraction wraps to
		// something huge for every generation that is not.
		if st := &l.steps[i]; !st.ext && gen-prev < uint64(len(st.added)) {
			return i, int(gen - prev), true
		}
	}
	return 0, 0, false
}

// between returns what took the model from generation since to
// generation upto, net: a triple an extension added and a later one took
// away again appears in neither list. The lists are the caller's to read,
// not to write; ok is false when either generation is not in the log.
func (l *deltaLog) between(since, upto uint64) (added, removed []ETriple, ok bool) {
	i, io, ok1 := l.locate(since)
	j, jo, ok2 := l.locate(upto)
	if !ok1 || !ok2 || i > j || (i == j && io > jo) {
		return nil, nil, false
	}
	// window returns the part of step k's additions inside the range.
	window := func(k int) []ETriple {
		a := l.steps[k].added
		if k == j {
			a = a[:jo]
		}
		if k == i {
			a = a[io:]
		}
		return a
	}
	last := j
	if jo == 0 {
		last = j - 1 // step j itself is past the range
	}
	if last < i {
		return nil, nil, true
	}
	if !slices.ContainsFunc(l.steps[i:last+1], func(st step) bool { return len(st.removed) > 0 }) {
		if i == last {
			// The common case, one run or one extension: a window of the
			// log itself, its capacity clipped so that an append by the
			// caller cannot reach the entries behind it.
			return slices.Clip(window(i)), nil, true
		}
		// Nothing was removed, so nothing can have come twice.
		for k := i; k <= last; k++ {
			added = append(added, window(k)...)
		}
		return added, nil, true
	}
	const gone, came = 1, 2
	net := map[ETriple]int{}
	for k := i; k <= last; k++ {
		for _, t := range l.steps[k].removed {
			if net[t] == came {
				delete(net, t)
			} else {
				net[t] = gone
			}
		}
		for _, t := range window(k) {
			if net[t] == gone {
				delete(net, t)
			} else {
				net[t] = came
			}
		}
	}
	// In log order, each triple once.
	for k := i; k <= last; k++ {
		for _, t := range l.steps[k].removed {
			if net[t] == gone {
				removed = append(removed, t)
				delete(net, t)
			}
		}
		for _, t := range window(k) {
			if net[t] == came {
				added = append(added, t)
				delete(net, t)
			}
		}
	}
	return added, removed, true
}

// startLogLocked starts m's change feed at m's present state.
func (s *Store) startLogLocked(m *Model) {
	s.feedSeq++
	m.feed = s.feedSeq
	s.deltas[m.name] = &deltaLog{id: m.feed, start: m.gen}
}

// runLocked returns the run the coming Adds to live model m are logged
// in, after cutting the log back if it has outgrown the model. A log that
// does not end where the model stands (the model was written behind the
// store's back) starts over first.
func (s *Store) runLocked(m *Model) (*deltaLog, *step) {
	l := s.deltas[m.name]
	if l.end() != m.gen {
		s.startLogLocked(m)
		l = s.deltas[m.name]
	}
	l.bound(m.Len())
	return l, l.run()
}

// Changes returns what took a model from the version since describes to
// the version upto describes — two Cuts of the same model, since the
// older — net of anything that came and went in between: the triples
// added, and the triples removed where an InstallExtension recorded them.
// The slices are windows of the feed, to be read only. ok is false when
// the feed cannot say — it was cut back past since, or the model was
// removed from, replaced or dropped in between — and then the answer is
// "everything": the caller starts over from upto's whole content, and the
// fallback is counted against consumer.
func (s *Store) Changes(consumer string, since, upto Cut) (added, removed []ETriple, ok bool) {
	s.mu.RLock()
	if l := s.deltas[upto.Name]; l != nil && since.feed == l.id && upto.feed == l.id && since.Name == upto.Name {
		added, removed, ok = l.between(since.Gen, upto.Gen)
	}
	s.mu.RUnlock()
	if !ok {
		countFallback(consumer)
	}
	return added, removed, ok
}

func countFallback(consumer string) {
	obs.Default().Counter("mdw_store_feed_fallbacks_total", "consumer", consumer).Inc()
}

// Delta is one consistent cut of a base model and the model derived from
// it, plus what the base gained since the derivation: everything a
// derivation needs to bring the derived model up to date by extension.
type Delta struct {
	// Base is the version of the base model that Snapshot hands to readers
	// of this generation, to be read only. Base.Gen() is the basis of
	// whatever is derived from it.
	Base *Model
	// Derived is a clone of the installed derived model for
	// the caller to extend in place, or an empty model when there is
	// nothing to extend from. It is detached; the caller owns it. Its
	// writes leave merging to InstallExtension, which merges at most once.
	Derived *Model
	// PrevGen is the generation of the installed model Derived was cloned
	// from; 0 when Derived starts empty.
	PrevGen uint64
	// Added holds the base triples the derived model has not seen: those
	// added since its basis or, when the feed cannot say (no derived model
	// yet, its basis predates the log, a Remove reset it), every triple of
	// Base. The slice is the caller's to append to.
	Added []ETriple
}

// SnapshotDelta captures base, derived and the base's changes since
// derived's basis in one critical section. It returns nil when base does
// not exist.
func (s *Store) SnapshotDelta(base, derived string) *Delta {
	s.mu.Lock()
	b, ok := s.models[base]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	d := &Delta{Base: s.versionLocked(b, true)}
	cur := s.models[derived]
	full := true
	if cur != nil {
		// The derived model records its basis as a bare generation, so the
		// position is taken to be one of the base's present feed.
		if added, removed, ok := s.deltas[base].between(cur.basis, b.gen); ok && len(removed) == 0 {
			d.Derived, d.PrevGen = cur.cloneAt(derived, s.nextCloneGenLocked()), cur.gen
			d.Added = added
			full = false
		}
	}
	s.mu.Unlock()
	if full {
		if cur != nil {
			countFallback("reason")
		}
		d.Derived = NewModel(derived)
		d.Added = make([]ETriple, 0, d.Base.Len())
		d.Base.ForEach(Wildcard, Wildcard, Wildcard, func(t ETriple) bool {
			d.Added = append(d.Added, t)
			return true
		})
	}
	d.Derived.extending = true
	return d
}

// InstallExtension publishes m, a Delta.Derived the caller has brought up
// to date by removing and then adding the given triples, like
// InstallModel does. When the installed model is still the one m was
// cloned from (generation prevGen), the commit hook sees the extension
// as what it is — OpExtend with just the two triple lists — and the
// model's change feed continues with them (the store keeps the two
// slices); otherwise (nothing to extend, or someone replaced the model
// meanwhile) the hook sees a full OpInstall and the feed starts over.
func (s *Store) InstallExtension(m *Model, prevGen uint64, added, removed []ETriple) {
	m.extending = false
	m.settle() // before publication, while m is still the caller's alone
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.models[m.name]
	if !ok || prevGen == 0 || cur.gen != prevGen {
		s.publishLocked(m)
		s.installedLocked(m, Mutation{Op: OpInstall, Model: m.name, Gen: m.gen, Basis: m.basis, Installed: m})
		return
	}
	if l := s.deltas[m.name]; l.end() != prevGen {
		s.publishLocked(m) // the installed model was written behind the store's back
	} else {
		s.models[m.name], s.cuts[m.name], m.feed = m, m, l.id
		l.steps = append(l.steps, step{gen: m.gen, ext: true, added: added, removed: removed})
		l.n += 1 + len(added) + len(removed)
		l.bound(m.Len())
	}
	s.installedLocked(m, Mutation{Op: OpExtend, Model: m.name, PrevGen: prevGen, Gen: m.gen, Basis: m.basis, Triples: added, Removed: removed})
}

// DeriveLock returns the mutex that serializes derivations from the named
// base model: whoever maintains a derived model holds it from the
// currency check to the install, so concurrent callers that found the
// model stale queue here and find it current when they get in.
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
