package textindex

import (
	"sort"
	"sync"

	"mdw/internal/store"
)

// Manager caches one Index per model, keyed by the model generation it
// was built from. It is the component the search service and the
// warehouse share: the warehouse registers indexes when models load, the
// search service asks for the index matching the generation it observed
// and refreshes it when the model has moved on.
//
// Manager methods are safe for concurrent use, and none of them holds
// the manager's lock while tokenizing: a build in progress never makes
// Get callers (i.e. concurrent searches) wait. Returned *Index values
// are immutable, so callers query them outside the manager's lock.
type Manager struct {
	mu  sync.Mutex
	cfg Config
	idx map[string]*Index      // model -> latest index
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

// Fields interns the manager's configured predicates and returns the
// predicate → field map (see Config.Fields).
func (m *Manager) Fields(dict *store.Dict) map[store.ID]Field {
	return m.cfg.Fields(dict)
}

// Get returns the cached index for model if it matches generation gen.
func (m *Manager) Get(model string, gen uint64) (*Index, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ix, ok := m.idx[model]
	if !ok || ix.gen != gen {
		return nil, false
	}
	return ix, true
}

// Cached returns the latest cached index for model regardless of its
// generation (nil when none exists) — the best-effort answer when a
// fresh index cannot be obtained.
func (m *Manager) Cached(model string) *Index {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.idx[model]
}

// BuildLock returns the per-model mutex that single-flights index
// construction: builders take it (Lock to wait, TryLock to fall back to
// scanning instead) around the Collect → BuildPostings/UpdateWith →
// Install sequence so at most one goroutine tokenizes a model at a time.
func (m *Manager) BuildLock(model string) *sync.Mutex {
	m.mu.Lock()
	defer m.mu.Unlock()
	bm, ok := m.bld[model]
	if !ok {
		bm = &sync.Mutex{}
		m.bld[model] = bm
	}
	return bm
}

// Install publishes ix as the latest index for its model and returns the
// cached value: ix itself, or the already-installed index when one of
// the same generation is present (so equal-generation callers observe a
// stable pointer). Later installs win otherwise — generations are
// monotonic per model, and builders are serialized by BuildLock.
func (m *Manager) Install(ix *Index) *Index {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, ok := m.idx[ix.model]; ok && cur.gen == ix.gen {
		return cur
	}
	m.idx[ix.model] = ix
	return ix
}

// StatsAll reports the stats of every cached index, sorted by model.
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
