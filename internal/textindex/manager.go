package textindex

import (
	"sort"
	"sync"

	"mdw/internal/store"
)

// Manager keeps, per model, the index last built for it. It is the
// component the search service and the warehouse share: a search hands
// it the view it has pinned and gets the index over exactly that view —
// the kept one when it is of the view's generation, otherwise its
// successor, delta-updated from the kept one and kept in its place.
//
// Manager methods are safe for concurrent use. Maintenance is
// single-flighted per model: callers that need an index nobody has built
// yet wait for one builder, while callers whose generation is the kept
// one never wait for a build. Returned *Index values are immutable, so
// callers query them outside every lock.
type Manager struct {
	mu  sync.Mutex
	cfg Config
	idx map[string]*Index      // model -> last index built
	bld map[string]*sync.Mutex // model -> build lock (single-flight)
}

// NewManager returns a manager building indexes with cfg (zero-valued
// slices in cfg select the defaults).
func NewManager(cfg Config) *Manager {
	return &Manager{
		cfg: cfg.withDefaults(),
		idx: make(map[string]*Index),
		bld: make(map[string]*sync.Mutex),
	}
}

// last returns the index last built for model (nil when none) and the
// model's build lock.
func (m *Manager) last(model string) (*Index, *sync.Mutex) {
	m.mu.Lock()
	defer m.mu.Unlock()
	bm, ok := m.bld[model]
	if !ok {
		bm = &sync.Mutex{}
		m.bld[model] = bm
	}
	return m.idx[model], bm
}

// For returns the index over v, a pinned view (store.Snapshot) of model
// and whatever is to be searched with it, keyed by the generation v holds
// model at. v never changes, so the index is of that generation by
// construction however far the store has moved on: nothing here looks a
// generation up that a writer could be advancing. The predecessor is not
// modified; in-flight queries against it stay valid.
func (m *Manager) For(model string, v *store.View, dict *store.Dict) *Index {
	gen := v.Cut(model).Gen
	ix, bm := m.last(model)
	if ix != nil && ix.gen == gen {
		return ix
	}
	bm.Lock()
	defer bm.Unlock()
	if ix, _ = m.last(model); ix != nil && ix.gen == gen {
		return ix // the build we waited for was ours too
	}
	field := m.cfg.Fields(dict)
	posts := Collect(v, field)
	if ix != nil {
		ix, _, _ = ix.UpdateWith(gen, field, posts)
	} else {
		ix = BuildPostings(model, gen, dict, field, posts)
	}
	m.mu.Lock()
	m.idx[model] = ix
	m.mu.Unlock()
	return ix
}

// StatsAll reports the stats of every kept index, sorted by model.
func (m *Manager) StatsAll() []Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Stats, 0, len(m.idx))
	for _, ix := range m.idx {
		out = append(out, ix.Stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}
