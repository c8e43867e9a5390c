package store

import (
	"maps"
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
// range of one index. The bulk of the triples is a frozen base (three
// sorted runs, see frozen) that no write ever touches; what was added
// since it was built is a small delta of nested maps, and what was
// removed from it a set of tombstones. A write that leaves the delta and
// the tombstones past a fixed share of the base folds them into a new
// base (merge), and a bulk AddAll builds one directly. Model is not itself
// locked: the owning Store serializes mutation of its live models, and the
// models it hands to readers (Store.Snapshot) are versions nobody writes
// any more.
type Model struct {
	name string
	// base holds the bulk of the triples, shared by pointer with every copy
	// of the model taken since it was built; tomb holds the base triples
	// removed since. tombShared says tomb is shared with a copy too, so the
	// next write to it copies it first.
	base       *frozen
	tomb       map[ETriple]struct{}
	tombShared bool
	// spo, pos and osp index the delta: the triples added since the base
	// was built, none of them in the base.
	spo   map[ID]map[ID][]ID // subject -> predicate -> objects
	pos   map[ID]map[ID][]ID // predicate -> object -> subjects
	osp   map[ID]map[ID][]ID // object -> subject -> predicates
	dsize int                // delta triples
	size  int
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
	// ownSPO/ownPOS/ownOSP implement copy-on-write sharing of the delta
	// between a model and its copies. nil means no copy was ever taken:
	// every inner delta node is privately owned and mutations touch it in
	// place (the common case pays one nil check). After a copy both sides
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

// mergeFloor and mergeShare set when the delta is folded into the base:
// once the delta's triples and the tombstones together reach a
// 1/mergeShare fraction of the base, mergeFloor at least. A merge costs a
// pass over the base, so each triple is merged a bounded number of times
// however the model grows, while the delta — which every copy of the
// model copies — stays a small share of it.
const (
	mergeFloor = 1024
	mergeShare = 8
)

// modelUIDs allocates Model.uid values.
var modelUIDs atomic.Uint64

// NewModel returns an empty model with the given name.
func NewModel(name string) *Model {
	return &Model{
		name:     name,
		base:     noBase,
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
	if _, ok := m.tomb[t]; ok {
		m.ownTomb()
		delete(m.tomb, t)
	} else {
		m.cowFor(t)
		addIdx(m.spo, t.S, t.P, t.O)
		addIdx(m.pos, t.P, t.O, t.S)
		addIdx(m.osp, t.O, t.S, t.P)
		m.dsize++
	}
	m.predSize[t.P]++
	m.size++
	m.gen++
	m.mergeIfDue()
	return true
}

// AddAll adds the triples of ts the model lacks and returns them, each
// once, in the order of ts; when that is all of ts, the result is ts
// itself. A batch smaller than what the delta may hold before a merge is
// added triple by triple; a larger one is sorted, deduplicated and merged
// with the base directly, touching no map. A batch sorted ascending by
// (S, P, O) without repeats, added to an empty model, is not even sorted.
func (m *Model) AddAll(ts []ETriple) []ETriple {
	if len(ts) < m.mergeAt() {
		var added []ETriple
		for _, t := range ts {
			if m.Add(t) {
				added = append(added, t)
			}
		}
		return added
	}
	fresh := ts
	if m.size > 0 || !strictlySorted(ts) {
		fresh = sortedSet(ts)
		n := 0
		for _, t := range fresh {
			if !m.Contains(t) {
				fresh[n] = t
				n++
			}
		}
		fresh = fresh[:n]
	}
	added := ts
	if len(fresh) != len(ts) {
		added = inOrder(ts, fresh)
	}
	m.merge(fresh)
	for _, t := range fresh {
		m.predSize[t.P]++
	}
	m.size += len(fresh)
	m.gen += uint64(len(fresh))
	return added
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

// Remove deletes the encoded triple and reports whether it was present.
func (m *Model) Remove(t ETriple) bool {
	if !m.Contains(t) {
		return false
	}
	if m.inDelta(t) {
		m.cowFor(t)
		removeIdx(m.spo, t.S, t.P, t.O)
		removeIdx(m.pos, t.P, t.O, t.S)
		removeIdx(m.osp, t.O, t.S, t.P)
		m.dsize--
	} else {
		m.ownTomb()
		if m.tomb == nil {
			m.tomb = make(map[ETriple]struct{})
		}
		m.tomb[t] = struct{}{}
	}
	if m.predSize[t.P]--; m.predSize[t.P] == 0 {
		delete(m.predSize, t.P)
	}
	m.size--
	m.gen++
	m.mergeIfDue()
	return true
}

// Contains reports whether the triple is present.
func (m *Model) Contains(t ETriple) bool {
	if m.base.ix[0].has(t.S, t.P, t.O) {
		return !m.dead(t)
	}
	return m.inDelta(t)
}

// inDelta reports whether the delta holds the triple.
func (m *Model) inDelta(t ETriple) bool {
	return slices.Contains(m.spo[t.S][t.P], t.O)
}

// dead reports whether t, a base triple, was removed.
func (m *Model) dead(t ETriple) bool {
	if len(m.tomb) == 0 {
		return false
	}
	_, ok := m.tomb[t]
	return ok
}

// deadIn counts the removed triples among positions lo..hi of path ix's
// run, which all have key a and, unless it is Wildcard, second position
// b: by probing each position, or by testing each tombstone against that
// pattern when there are fewer tombstones than positions.
func (m *Model) deadIn(ix int, a, b ID, lo, hi int) int {
	if len(m.tomb) == 0 || lo == hi {
		return 0
	}
	n := 0
	if len(m.tomb) < hi-lo {
		pat := unorder(ix, a, b, Wildcard)
		for t := range m.tomb {
			if matches(t, pat) {
				n++
			}
		}
		return n
	}
	r := &m.base.ix[ix]
	for x := lo; x < hi; x++ {
		if m.dead(unorder(ix, a, r.b[x], r.c[x])) {
			n++
		}
	}
	return n
}

// matches reports whether t matches pattern pat (Wildcard matching
// anything).
func matches(t, pat ETriple) bool {
	return (pat.S == Wildcard || t.S == pat.S) && (pat.P == Wildcard || t.P == pat.P) && (pat.O == Wildcard || t.O == pat.O)
}

// ownTomb makes the tombstone set safe to write: a set shared with a copy
// is copied first.
func (m *Model) ownTomb() {
	if m.tombShared {
		m.tomb, m.tombShared = maps.Clone(m.tomb), false
	}
}

// mergeAt returns how many delta triples and tombstones together start a
// merge.
func (m *Model) mergeAt() int {
	return max(mergeFloor, m.base.size()/mergeShare)
}

// mergeIfDue merges once the delta and the tombstones reach mergeAt.
func (m *Model) mergeIfDue() {
	if m.dsize+len(m.tomb) >= m.mergeAt() {
		m.merge(nil)
	}
}

// merge replaces the base by one that holds the model's every triple plus
// extra — sorted by (S, P, O), none of them in the model — and empties the
// delta and the tombstones. The contents, and with them the generation
// and the change feed, stay as they are (AddAll accounts for extra); the
// old base and delta stay untouched for the copies that share them.
func (m *Model) merge(extra []ETriple) {
	if m.dsize > 0 {
		extra = mergeSorted(extra, m.deltaSorted())
	}
	m.base = build(m.base, m.tomb, extra)
	m.tomb, m.tombShared = nil, false
	m.spo = make(map[ID]map[ID][]ID)
	m.pos = make(map[ID]map[ID][]ID)
	m.osp = make(map[ID]map[ID][]ID)
	m.ownSPO, m.ownPOS, m.ownOSP = nil, nil, nil
	m.dsize = 0
}

// deltaSorted returns the delta's triples ascending by (S, P, O).
func (m *Model) deltaSorted() []ETriple {
	out := make([]ETriple, 0, m.dsize)
	for s, ps := range m.spo {
		for p, objs := range ps {
			for _, o := range objs {
				out = append(out, ETriple{S: s, P: p, O: o})
			}
		}
	}
	SortETriples(out)
	return out
}

// mergeSorted returns the union of two disjoint lists sorted by
// (S, P, O), sorted.
func mergeSorted(x, y []ETriple) []ETriple {
	out := make([]ETriple, 0, len(x)+len(y))
	for len(x) > 0 && len(y) > 0 {
		if compareSPO(x[0], y[0]) < 0 {
			out, x = append(out, x[0]), x[1:]
		} else {
			out, y = append(out, y[0]), y[1:]
		}
	}
	return append(append(out, x...), y...)
}

// cowFor makes the three delta nodes the triple lands in safe to mutate:
// on a model that shares nodes with a copy (or its source), any node not
// yet owned is copied before addIdx/removeIdx write into it. Models that
// were never copied have nil ownership sets and return immediately.
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

// index returns the delta's SPO (0), POS (1) or OSP (2) index.
func (m *Model) index(ix int) map[ID]map[ID][]ID {
	switch ix {
	case 1:
		return m.pos
	case 2:
		return m.osp
	}
	return m.spo
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
	r, idx, live := &m.base.ix[ix], m.index(ix), len(m.tomb) == 0
	switch {
	case b != Wildcard:
		lo, hi := r.pair(a, b)
		for x := lo; x < hi; x++ {
			if t := unorder(ix, a, b, r.c[x]); (live || !m.dead(t)) && !fn(t) {
				return
			}
		}
		for _, c := range idx[a][b] {
			if !fn(unorder(ix, a, b, c)) {
				return
			}
		}
	case a != Wildcard:
		lo, hi := r.span(a)
		for x := lo; x < hi; x++ {
			if t := unorder(ix, a, r.b[x], r.c[x]); (live || !m.dead(t)) && !fn(t) {
				return
			}
		}
		for b, cs := range idx[a] {
			for _, c := range cs {
				if !fn(unorder(ix, a, b, c)) {
					return
				}
			}
		}
	default:
		for slot := 0; slot+1 < len(r.off); slot++ {
			a := r.key(slot)
			for x := r.off[slot]; x < r.off[slot+1]; x++ {
				if t := (ETriple{a, r.b[x], r.c[x]}); (live || !m.dead(t)) && !fn(t) {
					return
				}
			}
		}
		for s, ps := range m.spo {
			for p, objs := range ps {
				for _, o := range objs {
					if !fn(ETriple{s, p, o}) {
						return
					}
				}
			}
		}
	}
}

// Count returns the number of triples matching the pattern without
// materializing them: a range length of the base less its tombstones,
// plus the delta's (or the predSize counter for predicate-only
// patterns), so the planner can probe cardinalities freely.
func (m *Model) Count(s, p, o ID) int {
	switch {
	case s != Wildcard && p != Wildcard && o != Wildcard:
		if m.Contains(ETriple{s, p, o}) {
			return 1
		}
		return 0
	case s == Wildcard && o == Wildcard:
		if p == Wildcard {
			return m.size
		}
		return m.predSize[p]
	}
	ix, a, b := path(s, p, o)
	r, inner := &m.base.ix[ix], m.index(ix)[a]
	lo, hi := r.span(a)
	n := 0
	if b != Wildcard {
		lo, hi = r.sub(lo, hi, b)
		n = len(inner[b])
	} else {
		for _, cs := range inner {
			n += len(cs)
		}
	}
	return n + hi - lo - m.deadIn(ix, a, b, lo, hi)
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
	ps := PredStats{Triples: m.predSize[p]}
	var subjects idSet
	// The base's objects ascend within p's range: count each live one once.
	r, last := &m.base.ix[1], Wildcard
	lo, hi := r.span(p)
	for x := lo; x < hi; x++ {
		if m.dead(ETriple{S: r.c[x], P: p, O: r.b[x]}) {
			continue
		}
		if r.b[x] != last {
			ps.DistinctObjects++
			last = r.b[x]
		}
		subjects.add(r.c[x])
	}
	for o, subs := range m.pos[p] {
		if l, h := r.sub(lo, hi, o); h-l == m.deadIn(1, p, o, l, h) {
			ps.DistinctObjects++ // no live base triple has it
		}
		for _, s := range subs {
			subjects.add(s)
		}
	}
	ps.DistinctSubjects = subjects.n
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
// triples: distinct subjects (0), predicates (1) or objects (2).
func (m *Model) keys(ix int) int {
	r := &m.base.ix[ix]
	n := r.nkeys
	// A base key is gone when the tombstones cover its every triple.
	var dead map[ID]int
	if len(m.tomb) > 0 {
		dead = make(map[ID]int)
		for t := range m.tomb {
			a, _, _ := order(t, ix)
			dead[a]++
		}
		for a, k := range dead {
			if lo, hi := r.span(a); hi-lo == k {
				n--
			}
		}
	}
	for a := range m.index(ix) {
		if lo, hi := r.span(a); hi-lo == dead[a] {
			n++ // no live base triple has it
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
	r, dl := &m.base.ix[ix], m.index(ix)[a][b]
	lo, hi := r.pair(a, b)
	out := make([]ID, 0, hi-lo+len(dl))
	if len(m.tomb) == 0 {
		out = append(out, r.c[lo:hi]...)
	} else {
		for x := lo; x < hi; x++ {
			if !m.dead(unorder(ix, a, b, r.c[x])) {
				out = append(out, r.c[x])
			}
		}
	}
	return append(out, dl...)
}

// Clone returns a copy-on-write copy of the model under a new name.
// Historization uses this to snapshot a release before the next one
// mutates it; the reasoner uses it to compute entailment closures off to
// the side. The base is shared by pointer and only the delta's outer maps
// are copied — its inner nodes are shared until either side first
// mutates them (see cowFor), the tombstones until either side first
// writes them — so a clone costs O(delta keys), not O(triples).
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
	c.base, c.dsize = m.base, m.dsize
	if c.tomb = m.tomb; c.tomb != nil {
		m.tombShared, c.tombShared = true, true
	}
	c.spo = copyOuter(m.spo)
	c.pos = copyOuter(m.pos)
	c.osp = copyOuter(m.osp)
	c.predSize = maps.Clone(m.predSize)
	// Every inner delta node is now shared between m and c: reset
	// ownership on both sides so the first mutation of a node copies it.
	m.ownSPO, m.ownPOS, m.ownOSP = map[ID]bool{}, map[ID]bool{}, map[ID]bool{}
	c.ownSPO, c.ownPOS, c.ownOSP = map[ID]bool{}, map[ID]bool{}, map[ID]bool{}
	return c
}

// fork returns a copy-on-write copy that is m in every observable respect
// — name, generation, basis, instance id, contents. The store uses it to
// split a model into the version readers hold and the live model writers
// move on: whichever of the two stays unwritten is the version, and the
// other's next mutation takes it to a generation the version never had.
// Like a clone it shares the base and copies the delta's outer maps.
func (m *Model) fork() *Model {
	c := m.cloneAt(m.name, m.gen)
	c.basis, c.uid, c.feed = m.basis, m.uid, m.feed
	return c
}

// copyOuter copies only the outer map of one delta index; the inner maps
// (and their slices) stay shared until cowNode copies them on first write.
func copyOuter(idx map[ID]map[ID][]ID) map[ID]map[ID][]ID {
	out := make(map[ID]map[ID][]ID, len(idx))
	for a, inner := range idx {
		out[a] = inner
	}
	return out
}
