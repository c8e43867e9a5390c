package textindex

import (
	"sort"
	"sync"

	"mdw/internal/store"
)

// Manager keeps, per model, the index last built for it. It is the
// component the search service and the warehouse share: a search hands
// it the view it has pinned and gets the index over exactly that view —
// the kept one when it is over that view, otherwise its successor,
// extended from the kept one by what the store's change feed says the
// view gained (built from scratch when the feed cannot say), and kept in
// its place. That is the one form of index maintenance there is.
//
// Manager methods are safe for concurrent use. Maintenance is
// single-flighted per model: callers that need an index nobody has built
// yet wait for one builder, while callers whose view is the kept index's
// never wait for a build. Returned *Index values are immutable, so
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

// For returns the index over v, a pinned view (store.Snapshot) of st
// holding model and whatever is to be searched with it. v never changes,
// so the index is over exactly what the caller reads however far the
// store has moved on. The predecessor is not modified; in-flight queries
// against it stay valid.
func (m *Manager) For(model string, v *store.View, st *store.Store) *Index {
	version := v.Version()
	ix, bm := m.last(model)
	if ix != nil && ix.version == version {
		return ix
	}
	bm.Lock()
	defer bm.Unlock()
	if ix, _ = m.last(model); ix != nil && ix.version == version {
		return ix // the build we waited for was ours too
	}
	var next *Index
	if ix != nil {
		next = ix.extend(v, st)
	}
	if next == nil {
		next = BuildPostings(model, v, st.Dict(), m.cfg.Fields(st.Dict()))
	}
	m.mu.Lock()
	m.idx[model] = next
	m.mu.Unlock()
	return next
}

// Kept returns the index kept for model when it is over the view of the
// given version (store.View.Version), and nil otherwise. It never builds
// or extends one: a query uses the index only when a search or load has
// already brought it to the very view the query pinned.
func (m *Manager) Kept(model, version string) *Index {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ix := m.idx[model]; ix != nil && ix.version == version {
		return ix
	}
	return nil
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
