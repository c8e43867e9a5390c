// Package rescache is a bounded LRU cache for query results, keyed by
// strings that embed the mutation generations of every model the query
// read. Invalidation is implicit and free: any mutation bumps a model
// generation (store.Model.Gen), so the key of a stale entry simply never
// matches again and the entry ages out of the LRU.
//
// The cache stores opaque values, and it has two clients: the SPARQL
// layer puts *sparql.Result in (Listings 1 and 2), and the Figure 6
// search puts its ID-level answer in, from which every search call
// materializes a Result of its own. Keeping the package generic avoids an
// import cycle. It is bounded both by entry count and by an estimated
// byte footprint the caller supplies with each Put.
package rescache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Defaults for the process-wide cache: large enough to hold every
// distinct dashboard/API query of a paper-scale deployment, small enough
// to be irrelevant next to the store itself.
const (
	DefaultMaxEntries = 1024
	DefaultMaxBytes   = 64 << 20
)

// Cache is a bounded LRU, safe for concurrent use.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type entry struct {
	key  string
	val  any
	size int64
}

// New returns a cache retaining at most maxEntries entries and maxBytes
// estimated bytes (non-positive values select the defaults).
func New(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

// Get returns the value cached under key and marks it most recently
// used. The hit/miss is counted (metrics and Stats).
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		obsMisses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	v := el.Value.(*entry).val
	c.mu.Unlock()
	c.hits.Add(1)
	obsHits.Inc()
	return v, true
}

// Peek reports whether key is cached without promoting the entry or
// counting a hit/miss — EXPLAIN uses it to annotate plans without
// skewing statistics.
func (c *Cache) Peek(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Put caches v under key with the given estimated byte size, evicting
// least-recently-used entries until both bounds hold. A value larger
// than the whole byte budget is not cached at all (it would evict
// everything for one entry).
func (c *Cache) Put(key string, v any, size int64) {
	if size < 0 {
		size = 0
	}
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.val, e.size = v, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: v, size: size})
		c.bytes += size
	}
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		c.evictOldestLocked()
	}
	c.publishSizeLocked()
	c.mu.Unlock()
}

// evictOldestLocked drops the least-recently-used entry. Caller holds mu
// and guarantees the list is non-empty (both bounds are positive, so a
// just-inserted entry never loops here forever).
func (c *Cache) evictOldestLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
	c.evictions.Add(1)
	obsEvictions.Inc()
}

// Purge empties the cache (operational reset; tests).
func (c *Cache) Purge() {
	c.mu.Lock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.bytes = 0
	c.publishSizeLocked()
	c.mu.Unlock()
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the estimated byte footprint of the cached values.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// MaxBytes returns the byte budget, the most one entry may weigh.
func (c *Cache) MaxBytes() int64 { return c.maxBytes }

// Stats is a point-in-time summary of one cache.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// Stats returns the cache's counters and current size.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}

// publishSizeLocked mirrors the current size into the gauges. Caller
// holds mu; only entry/byte counts live here, the monotonic counters
// update lock-free at their call sites.
func (c *Cache) publishSizeLocked() {
	obsEntries.Set(int64(c.ll.Len()))
	obsBytes.Set(c.bytes)
}

// defaultCache is the process-wide results cache consulted by the SPARQL
// layer and by search. It starts enabled with the defaults; Disable (or
// the mdwd -rescache=0 flag) turns result caching off process-wide.
var defaultCache atomic.Pointer[Cache]

func init() {
	defaultCache.Store(New(DefaultMaxEntries, DefaultMaxBytes))
}

// Default returns the process-wide cache, or nil when result caching is
// disabled.
func Default() *Cache {
	return defaultCache.Load()
}

// Enable installs a fresh process-wide cache with the given bounds
// (non-positive values select the defaults) and returns it.
func Enable(maxEntries int, maxBytes int64) *Cache {
	c := New(maxEntries, maxBytes)
	defaultCache.Store(c)
	return c
}

// Disable turns the process-wide cache off: Default returns nil until
// Enable is called again.
func Disable() {
	defaultCache.Store(nil)
	obsEntries.Set(0)
	obsBytes.Set(0)
}
