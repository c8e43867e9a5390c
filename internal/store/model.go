package store

import (
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
// three access-path indexes (SPO, POS, OSP) so that any triple pattern can
// be answered with at most one map walk. Model is not itself locked: the
// owning Store serializes mutation of its live models, and the models it
// hands to readers (Store.Snapshot) are versions nobody writes any more.
type Model struct {
	name string
	spo  map[ID]map[ID][]ID // subject -> predicate -> objects
	pos  map[ID]map[ID][]ID // predicate -> object -> subjects
	osp  map[ID]map[ID][]ID // object -> subject -> predicates
	size int
	// predSize counts triples per predicate so Count(W, p, W) — the
	// planner's most common statistics probe — is O(1).
	predSize map[ID]int
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
	// ownSPO/ownPOS/ownOSP implement copy-on-write index sharing between
	// a model and its clones. nil means no clone was ever taken: every
	// inner index node is privately owned and mutations touch it in
	// place (the common case pays one nil check). After Clone both sides
	// get empty ownership sets — every inner node is shared — and the
	// first mutation of a shared node copies it (inner map and slices)
	// before writing, marking the node owned. Readers never consult
	// these maps, so reads of a quiescent model stay safe to share.
	ownSPO map[ID]bool
	ownPOS map[ID]bool
	ownOSP map[ID]bool
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

// modelUIDs allocates Model.uid values.
var modelUIDs atomic.Uint64

// NewModel returns an empty model with the given name.
func NewModel(name string) *Model {
	return &Model{
		name:     name,
		spo:      make(map[ID]map[ID][]ID),
		pos:      make(map[ID]map[ID][]ID),
		osp:      make(map[ID]map[ID][]ID),
		predSize: make(map[ID]int),
		gen:      1,
		uid:      modelUIDs.Add(1),
	}
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// Len returns the number of triples in the model.
func (m *Model) Len() int { return m.size }

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
func (m *Model) Add(t ETriple) bool {
	if m.Contains(t) {
		return false
	}
	m.cowFor(t)
	addIdx(m.spo, t.S, t.P, t.O)
	addIdx(m.pos, t.P, t.O, t.S)
	addIdx(m.osp, t.O, t.S, t.P)
	m.predSize[t.P]++
	m.size++
	m.gen++
	return true
}

// Remove deletes the encoded triple and reports whether it was present.
func (m *Model) Remove(t ETriple) bool {
	if !m.Contains(t) {
		return false
	}
	m.cowFor(t)
	removeIdx(m.spo, t.S, t.P, t.O)
	removeIdx(m.pos, t.P, t.O, t.S)
	removeIdx(m.osp, t.O, t.S, t.P)
	if m.predSize[t.P]--; m.predSize[t.P] == 0 {
		delete(m.predSize, t.P)
	}
	m.size--
	m.gen++
	return true
}

// Contains reports whether the triple is present.
func (m *Model) Contains(t ETriple) bool {
	ps, ok := m.spo[t.S]
	if !ok {
		return false
	}
	for _, o := range ps[t.P] {
		if o == t.O {
			return true
		}
	}
	return false
}

// cowFor makes the three index nodes the triple lands in safe to mutate:
// on a model that shares nodes with a clone (or its source), any node not
// yet owned is copied before addIdx/removeIdx write into it. Models that
// were never cloned have nil ownership sets and return immediately.
func (m *Model) cowFor(t ETriple) {
	if m.ownSPO == nil {
		return
	}
	cowNode(m.spo, m.ownSPO, t.S)
	cowNode(m.pos, m.ownPOS, t.P)
	cowNode(m.osp, m.ownOSP, t.O)
}

// cowNode ensures idx[a] is privately owned, copying the inner map and
// its slices if the node is still shared. Slices must be copied too:
// removeIdx swap-deletes in place, and an append into a shared backing
// array would be visible to the other side.
func cowNode(idx map[ID]map[ID][]ID, own map[ID]bool, a ID) {
	if own[a] {
		return
	}
	own[a] = true
	inner, ok := idx[a]
	if !ok {
		return
	}
	ci := make(map[ID][]ID, len(inner))
	for b, list := range inner {
		cl := make([]ID, len(list))
		copy(cl, list)
		ci[b] = cl
	}
	idx[a] = ci
}

func addIdx(idx map[ID]map[ID][]ID, a, b, c ID) {
	inner, ok := idx[a]
	if !ok {
		inner = make(map[ID][]ID, 1)
		idx[a] = inner
	}
	inner[b] = append(inner[b], c)
}

func removeIdx(idx map[ID]map[ID][]ID, a, b, c ID) {
	inner, ok := idx[a]
	if !ok {
		return
	}
	list := inner[b]
	for i, v := range list {
		if v == c {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			if len(list) == 0 {
				delete(inner, b)
				if len(inner) == 0 {
					delete(idx, a)
				}
			} else {
				inner[b] = list
			}
			return
		}
	}
}

// ForEach streams every triple matching the pattern (Wildcard entries
// match anything) to fn. Iteration stops early when fn returns false.
// The traversal picks the most selective index for the bound positions.
func (m *Model) ForEach(s, p, o ID, fn func(ETriple) bool) {
	switch {
	case s != Wildcard && p != Wildcard && o != Wildcard:
		if m.Contains(ETriple{s, p, o}) {
			fn(ETriple{s, p, o})
		}
	case s != Wildcard && p != Wildcard:
		for _, obj := range m.spo[s][p] {
			if !fn(ETriple{s, p, obj}) {
				return
			}
		}
	case p != Wildcard && o != Wildcard:
		for _, sub := range m.pos[p][o] {
			if !fn(ETriple{sub, p, o}) {
				return
			}
		}
	case s != Wildcard && o != Wildcard:
		for _, pred := range m.osp[o][s] {
			if !fn(ETriple{s, pred, o}) {
				return
			}
		}
	case s != Wildcard:
		for pred, objs := range m.spo[s] {
			for _, obj := range objs {
				if !fn(ETriple{s, pred, obj}) {
					return
				}
			}
		}
	case p != Wildcard:
		for obj, subs := range m.pos[p] {
			for _, sub := range subs {
				if !fn(ETriple{sub, p, obj}) {
					return
				}
			}
		}
	case o != Wildcard:
		for sub, preds := range m.osp[o] {
			for _, pred := range preds {
				if !fn(ETriple{sub, pred, o}) {
					return
				}
			}
		}
	default:
		for sub, ps := range m.spo {
			for pred, objs := range ps {
				for _, obj := range objs {
					if !fn(ETriple{sub, pred, obj}) {
						return
					}
				}
			}
		}
	}
}

// Count returns the number of triples matching the pattern without
// materializing them. Every access path is answered from an index (plus
// the predSize counter for predicate-only patterns), so the planner can
// probe cardinalities freely.
func (m *Model) Count(s, p, o ID) int {
	n := 0
	switch {
	case s != Wildcard && p != Wildcard && o != Wildcard:
		if m.Contains(ETriple{s, p, o}) {
			n = 1
		}
	case s != Wildcard && p != Wildcard:
		n = len(m.spo[s][p])
	case p != Wildcard && o != Wildcard:
		n = len(m.pos[p][o])
	case s != Wildcard && o != Wildcard:
		n = len(m.osp[o][s])
	case p != Wildcard:
		n = m.predSize[p]
	case s != Wildcard:
		for _, objs := range m.spo[s] {
			n += len(objs)
		}
	case o != Wildcard:
		for _, preds := range m.osp[o] {
			n += len(preds)
		}
	default:
		n = m.size
	}
	return n
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
	ps := PredStats{Triples: m.predSize[p], DistinctObjects: len(m.pos[p])}
	subjects := make(map[ID]struct{})
	for _, subs := range m.pos[p] {
		for _, s := range subs {
			subjects[s] = struct{}{}
		}
	}
	ps.DistinctSubjects = len(subjects)
	m.predStats[p] = ps
	return ps
}

// Subjects returns the distinct subjects of triples matching (p, o).
func (m *Model) Subjects(p, o ID) []ID {
	if p != Wildcard && o != Wildcard {
		out := make([]ID, len(m.pos[p][o]))
		copy(out, m.pos[p][o])
		return out
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
		out := make([]ID, len(m.spo[s][p]))
		copy(out, m.spo[s][p])
		return out
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

// Clone returns a copy-on-write copy of the model under a new name.
// Historization uses this to snapshot a release before the next one
// mutates it; the reasoner uses it to compute entailment closures off to
// the side. Only the outer index maps are copied — inner nodes are
// shared until either side first mutates them (see cowFor) — so a clone
// costs O(distinct terms), not O(triples).
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
	c.size = m.size
	c.gen = gen
	c.basis = m.gen
	c.spo = copyOuter(m.spo)
	c.pos = copyOuter(m.pos)
	c.osp = copyOuter(m.osp)
	c.predSize = make(map[ID]int, len(m.predSize))
	for p, n := range m.predSize {
		c.predSize[p] = n
	}
	// Every inner node is now shared between m and c: reset ownership on
	// both sides so the first mutation of a node copies it first.
	m.ownSPO, m.ownPOS, m.ownOSP = map[ID]bool{}, map[ID]bool{}, map[ID]bool{}
	c.ownSPO, c.ownPOS, c.ownOSP = map[ID]bool{}, map[ID]bool{}, map[ID]bool{}
	return c
}

// fork returns a copy-on-write copy that is m in every observable respect
// — name, generation, basis, instance id, contents. The store uses it to
// split a model into the version readers hold and the live model writers
// move on: whichever of the two stays unwritten is the version, and the
// other's next mutation takes it to a generation the version never had.
func (m *Model) fork() *Model {
	c := m.cloneAt(m.name, m.gen)
	c.basis, c.uid, c.feed = m.basis, m.uid, m.feed
	return c
}

// copyOuter copies only the outer map of one index; the inner maps (and
// their slices) stay shared until cowNode copies them on first write.
func copyOuter(idx map[ID]map[ID][]ID) map[ID]map[ID][]ID {
	out := make(map[ID]map[ID][]ID, len(idx))
	for a, inner := range idx {
		out[a] = inner
	}
	return out
}
