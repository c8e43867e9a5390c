package store

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// ETriple is a dictionary-encoded triple.
type ETriple struct {
	S, P, O ID
}

// PredStats holds per-predicate statistics: how many triples carry the
// predicate and how many distinct subjects/objects they touch. The SPARQL
// planner divides pattern counts by the distinct counts to estimate join
// selectivity when a variable position is already bound.
type PredStats struct {
	Triples          int
	DistinctSubjects int
	DistinctObjects  int
}

// StatsSource is optionally implemented by Sources that can provide
// per-predicate statistics for query planning.
type StatsSource interface {
	PredStats(p ID) PredStats
}

// CardEstimator is optionally implemented by Sources that can answer
// pattern-cardinality questions cheaply at the price of precision (an
// upper bound is fine). The SPARQL planner prefers it over Count, whose
// exact de-duplicated answer can cost an enumeration on union views.
type CardEstimator interface {
	EstCount(s, p, o ID) int
}

// Model is one named RDF model: a set of encoded triples maintained under
// three access paths (SPO, POS, OSP) so that any triple pattern is one
// range of one index. It is three immutable sets of the same kind (see
// frozen): the base holds the bulk of the triples, the delta what was
// added since the base was built, and the tombstones what was removed
// from it. A write builds a new delta or a new tombstone set; one that
// leaves the two past a fixed share of the base folds them into a new
// base (merge). A copy of a model shares all three. Model is not itself
// locked: the owning Store serializes mutation of its live models, and
// the models it hands to readers (Store.Snapshot) are versions nobody
// writes any more.
type Model struct {
	name string
	// base, delta and tomb are never written, only replaced: the delta
	// holds no base triple, and the tombstones only base triples.
	base, delta, tomb *frozen
	// extending marks a Delta.Derived while its deriver writes it: its
	// writes do not merge, and InstallExtension merges once if due, so
	// the rounds of one derivation pay for at most one pass over the base.
	extending bool
	// statsMu guards the lazily built per-generation PredStats cache.
	// Reads of a quiescent model stay safe to share: concurrent PredStats
	// callers serialize only on this cache, never on the indexes.
	statsMu   sync.Mutex
	statsGen  uint64
	predStats map[ID]PredStats
	// gen counts successful mutations (Add/Remove). Derived artifacts —
	// the OWLPRIME index models and the full-text indexes — record the
	// base model's gen they were computed from, so stale derivations are
	// detectable without diffing triples. gen starts at 1 so that a zero
	// basis always reads as "never derived".
	gen uint64
	// basis is the generation of the base model this model was derived
	// from (index models and clones; 0 = not a recorded derivation).
	basis uint64
	// uid identifies this model *instance*, unique across every model
	// ever constructed in the process. Generations alone cannot key a
	// results cache: a dropped-and-recreated model, a reinstalled index
	// model, or a second Store restart from the same state all repeat
	// (name, generation) pairs with possibly different contents. The uid
	// changes with every construction, so a cache key embedding it can
	// never alias across instances. Never persisted — it has no replay
	// meaning.
	uid uint64
	// feed is the id of the change feed (deltaLog) that describes this
	// version, 0 for a model no store holds. Like uid it is never persisted.
	feed uint64
}

// mergeFloor and mergeShare set when the delta is folded into the base:
// once the delta's triples and the tombstones together reach a
// 1/mergeShare fraction of the base, mergeFloor at least. A merge costs a
// pass over the base, so each triple is merged a bounded number of times
// however the model grows, while the delta — which every write rebuilds —
// stays a small share of it.
const (
	mergeFloor = 1024
	mergeShare = 32
)

// modelUIDs allocates Model.uid values.
var modelUIDs atomic.Uint64

// NewModel returns an empty model with the given name.
func NewModel(name string) *Model {
	return &Model{name: name, base: empty, delta: empty, tomb: empty, gen: 1, uid: modelUIDs.Add(1)}
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// Len returns the number of triples in the model.
func (m *Model) Len() int { return m.base.size() - m.tomb.size() + m.delta.size() }

// Gen returns the model's mutation generation: it changes on every
// successful Add or Remove, so equality of generations implies equality
// of contents over the model's lifetime.
func (m *Model) Gen() uint64 { return m.gen }

// Basis returns the recorded base generation of a derived model
// (0 when none was recorded).
func (m *Model) Basis() uint64 { return m.basis }

// Version names the model's present state: its name, instance id (see
// the uid field) and generation. The instance id never repeats and the
// generation never repeats within one, so a Version can never alias two
// different states — it is what the results cache keys on.
func (m *Model) Version() string {
	return m.name + "@" + strconv.FormatUint(m.uid, 10) + ":" + strconv.FormatUint(m.gen, 10)
}

// SetBasis records the base generation this (derived) model was computed
// from.
func (m *Model) SetBasis(gen uint64) { m.basis = gen }

// SetGen overwrites the model's mutation generation. Only the durable
// recovery path uses it, to restore the generation a snapshot recorded so
// that replayed WAL mutations reproduce the original generation sequence
// (and derived-model bases stay verifiable).
func (m *Model) SetGen(gen uint64) { m.gen = gen }

// Add inserts the encoded triple and reports whether it was newly added.
func (m *Model) Add(t ETriple) bool { return len(m.AddAll([]ETriple{t})) == 1 }

// Remove deletes the encoded triple and reports whether it was present.
func (m *Model) Remove(t ETriple) bool { return len(m.RemoveAll([]ETriple{t})) == 1 }

// AddAll adds the triples of ts the model lacks and returns them, each
// once, in the order of ts; when that is all of ts, the result is ts
// itself. The batch is sorted and deduplicated and then applied as one
// write: the base triples it brings back leave the tombstones, and the
// rest join the delta. A batch sorted ascending by (S, P, O) without
// repeats, added to an empty model, is not even sorted.
func (m *Model) AddAll(ts []ETriple) []ETriple {
	fresh := ts
	if m.Len() > 0 || !strictlySorted(ts) {
		fresh = slices.DeleteFunc(sortedSet(ts), m.Contains)
	}
	m.tomb, m.delta = move(fresh, m.tomb, m.delta)
	return m.wrote(ts, fresh)
}

// RemoveAll removes the triples of ts the model holds and returns them,
// each once, in the order of ts, like AddAll: the delta's leave it, and
// the base's join the tombstones. Only the triples held are sorted, so a
// batch the model mostly lacks — the materializer's queue against its
// index — costs a probe per triple.
func (m *Model) RemoveAll(ts []ETriple) []ETriple {
	var gone []ETriple
	for _, t := range ts {
		if m.Contains(t) {
			gone = append(gone, t)
		}
	}
	gone = sortedSet(gone)
	m.delta, m.tomb = move(gone, m.delta, m.tomb)
	return m.wrote(ts, gone)
}

// move returns from less the triples of ts — sorted by (S, P, O),
// distinct — that it holds, and to plus the others.
func move(ts []ETriple, from, to *frozen) (*frozen, *frozen) {
	if !slices.ContainsFunc(ts, from.has) {
		return from, build(to, empty, freeze(ts))
	}
	var out, in []ETriple
	for _, t := range ts {
		if from.has(t) {
			out = append(out, t)
		} else {
			in = append(in, t)
		}
	}
	return build(from, freeze(out), empty), build(to, empty, freeze(in))
}

// wrote accounts for a write that changed the triples changed — those of
// ts that took effect, sorted — merging if it is due, and returns them in
// the order of ts.
func (m *Model) wrote(ts, changed []ETriple) []ETriple {
	m.gen += uint64(len(changed))
	if !m.extending {
		m.settle()
	}
	if len(changed) == len(ts) {
		return ts
	}
	return inOrder(ts, changed)
}

// mergeAt returns how many delta triples and tombstones together start a
// merge.
func (m *Model) mergeAt() int {
	return max(mergeFloor, m.base.size()/mergeShare)
}

// settle merges if the delta and the tombstones have reached mergeAt.
func (m *Model) settle() {
	if m.delta.size()+m.tomb.size() >= m.mergeAt() {
		m.merge()
	}
}

// merge folds the delta and the tombstones into a new base. The contents,
// and with them the generation and the change feed, stay as they are; the
// old sets stay untouched for the copies that share them.
func (m *Model) merge() {
	m.base, m.delta, m.tomb = build(m.base, m.tomb, m.delta), empty, empty
}

// strictlySorted reports whether ts ascends by (S, P, O) without repeats.
func strictlySorted(ts []ETriple) bool {
	for i := 1; i < len(ts); i++ {
		if compareSPO(ts[i-1], ts[i]) >= 0 {
			return false
		}
	}
	return true
}

// inOrder returns the triples of ts that set — sorted, distinct — holds,
// in the order of ts, each at its first occurrence.
func inOrder(ts, set []ETriple) []ETriple {
	out := make([]ETriple, 0, len(set))
	taken := make([]bool, len(set))
	for _, t := range ts {
		if i, ok := slices.BinarySearchFunc(set, t, compareSPO); ok && !taken[i] {
			taken[i] = true
			out = append(out, t)
		}
	}
	return out
}

// Contains reports whether the triple is present.
func (m *Model) Contains(t ETriple) bool {
	if m.base.has(t) {
		return !m.tomb.has(t)
	}
	return m.delta.has(t)
}

// path returns the access path a pattern is read from (0 SPO, 1 POS,
// 2 OSP) and the pattern's leading bound positions in that path's order,
// Wildcard when free: ForEach's and Split's choice of index. A fully
// bound pattern reads SPO with a and b bound.
func path(s, p, o ID) (ix int, a, b ID) {
	switch {
	case s != Wildcard && p != Wildcard:
		return 0, s, p
	case p != Wildcard && o != Wildcard:
		return 1, p, o
	case s != Wildcard && o != Wildcard:
		return 2, o, s
	case s != Wildcard:
		return 0, s, Wildcard
	case p != Wildcard:
		return 1, p, Wildcard
	case o != Wildcard:
		return 2, o, Wildcard
	}
	return 0, Wildcard, Wildcard
}

// walk calls fn with the model's triples whose leading positions in path
// ix are a and b (see run.find) until fn returns false: the base's less
// the tombstones, then the delta's, each in path order. It reports
// whether it reached the end.
func (m *Model) walk(ix int, a, b ID, fn func(ETriple) bool) bool {
	return each(ix, m.base.ix[ix].find(a, b), m.tomb.ix[ix].find(a, b), fn) &&
		each(ix, m.delta.ix[ix].find(a, b), cursor{}, fn)
}

// count returns the number of triples walk visits: span lengths only.
func (m *Model) count(ix int, a, b ID) int {
	return m.base.count(ix, a, b) - m.tomb.count(ix, a, b) + m.delta.count(ix, a, b)
}

// ForEach streams every triple matching the pattern (Wildcard entries
// match anything) to fn. Iteration stops early when fn returns false.
// The traversal reads one range of the most selective path for the bound
// positions: the base's, in path order, then the delta's.
func (m *Model) ForEach(s, p, o ID, fn func(ETriple) bool) {
	if s != Wildcard && p != Wildcard && o != Wildcard {
		if t := (ETriple{s, p, o}); m.Contains(t) {
			fn(t)
		}
		return
	}
	ix, a, b := path(s, p, o)
	m.walk(ix, a, b, fn)
}

// Count returns the number of triples matching the pattern without
// materializing them: range lengths of the base, the tombstones and the
// delta, so the planner can probe cardinalities freely.
func (m *Model) Count(s, p, o ID) int {
	if s != Wildcard && p != Wildcard && o != Wildcard {
		if m.Contains(ETriple{s, p, o}) {
			return 1
		}
		return 0
	}
	ix, a, b := path(s, p, o)
	return m.count(ix, a, b)
}

// EstCount implements CardEstimator; a single model's counts are exact
// and cheap, so the estimate is Count itself.
func (m *Model) EstCount(s, p, o ID) int { return m.Count(s, p, o) }

// PredStats returns the per-predicate statistics for p, computed lazily
// and cached per mutation generation. Safe for concurrent readers of a
// quiescent model.
func (m *Model) PredStats(p ID) PredStats {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	if m.statsGen != m.gen {
		m.predStats = make(map[ID]PredStats)
		m.statsGen = m.gen
	}
	if ps, ok := m.predStats[p]; ok {
		return ps
	}
	var subjects, objects idSet
	m.walk(1, p, Wildcard, func(t ETriple) bool {
		objects.add(t.O)
		subjects.add(t.S)
		return true
	})
	ps := PredStats{Triples: m.count(1, p, Wildcard), DistinctSubjects: subjects.n, DistinctObjects: objects.n}
	m.predStats[p] = ps
	return ps
}

// idSet is a set of IDs as a bitmap.
type idSet struct {
	words []uint64
	n     int
}

func (s *idSet) add(id ID) {
	w := int(id >> 6)
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	if bit := uint64(1) << (id & 63); s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.n++
	}
}

// keys returns the number of distinct first positions of path ix's
// triples: distinct subjects (0), predicates (1) or objects (2). A base
// key is gone when the tombstones cover its every triple, and a delta key
// is new when no live base triple has it.
func (m *Model) keys(ix int) int {
	baseless := func(a ID) bool { return m.base.count(ix, a, Wildcard) == m.tomb.count(ix, a, Wildcard) }
	return m.base.ix[ix].nkeys - m.tomb.ix[ix].keysWhere(baseless) + m.delta.ix[ix].keysWhere(baseless)
}

// keysWhere counts the run's keys that fn accepts.
func (r *run) keysWhere(fn func(ID) bool) int {
	n := 0
	for slot := 0; slot+1 < len(r.off); slot++ {
		if r.off[slot] < r.off[slot+1] && fn(r.key(slot)) {
			n++
		}
	}
	return n
}

// Subjects returns the distinct subjects of triples matching (p, o).
func (m *Model) Subjects(p, o ID) []ID {
	if p != Wildcard && o != Wildcard {
		return m.thirds(1, p, o)
	}
	seen := make(map[ID]bool)
	var out []ID
	m.ForEach(Wildcard, p, o, func(t ETriple) bool {
		if !seen[t.S] {
			seen[t.S] = true
			out = append(out, t.S)
		}
		return true
	})
	return out
}

// Objects returns the objects of triples matching (s, p).
func (m *Model) Objects(s, p ID) []ID {
	if s != Wildcard && p != Wildcard {
		return m.thirds(0, s, p)
	}
	seen := make(map[ID]bool)
	var out []ID
	m.ForEach(s, p, Wildcard, func(t ETriple) bool {
		if !seen[t.O] {
			seen[t.O] = true
			out = append(out, t.O)
		}
		return true
	})
	return out
}

// thirds returns, in a fresh slice, the third positions of path ix's
// triples whose first two are a and b.
func (m *Model) thirds(ix int, a, b ID) []ID {
	base, dead, delta := m.base.ix[ix].find(a, b), m.tomb.ix[ix].find(a, b), m.delta.ix[ix].find(a, b)
	out := make([]ID, 0, base.hi-base.x-(dead.hi-dead.x)+delta.hi-delta.x)
	if dead.x == dead.hi {
		out = append(out, base.thirds()...)
	} else {
		each(ix, base, dead, func(t ETriple) bool {
			out = append(out, at(t, (ix+2)%3)) // path ix's third position
			return true
		})
	}
	return append(out, delta.thirds()...)
}

// Clone returns a copy of the model under a new name. Historization uses
// this to snapshot a release before the next one mutates it; the reasoner
// uses it to compute entailment closures off to the side. The copy shares
// the base, the delta and the tombstones by pointer, and each side's
// writes replace its own, so a clone costs O(1), not O(triples).
//
// The copy gets a generation disjoint from the source's: its high word
// is one past the source's, so the two generation sequences can never
// collide after the models diverge. Basis records the source generation
// the copy was taken at, so derivations computed from the clone can
// still be checked against the original. Two standalone clones of the
// same model share a generation sequence; Store.CloneModel and
// Store.SnapshotModel hand out store-wide unique generations instead.
func (m *Model) Clone(name string) *Model {
	return m.cloneAt(name, ((m.gen>>32)+1)<<32+1)
}

// cloneAt is Clone with an explicit generation for the copy.
func (m *Model) cloneAt(name string, gen uint64) *Model {
	c := NewModel(name)
	c.base, c.delta, c.tomb = m.base, m.delta, m.tomb
	c.gen, c.basis = gen, m.gen
	return c
}

// fork returns a copy that is m in every observable respect — name,
// generation, basis, instance id, contents. The store uses it to split a
// model into the version readers hold and the live model writers move
// on: whichever of the two stays unwritten is the version, and the
// other's next mutation takes it to a generation the version never had.
// Like a clone it copies three pointers.
func (m *Model) fork() *Model {
	c := m.cloneAt(m.name, m.gen)
	c.basis, c.uid, c.feed = m.basis, m.uid, m.feed
	return c
}
