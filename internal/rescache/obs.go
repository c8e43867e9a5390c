package rescache

import "mdw/internal/obs"

// Metric handles, resolved once at package init so Get/Put pay a single
// atomic add each — never a registry lookup.
var (
	obsHits      = obs.Default().Counter("mdw_rescache_hits_total")
	obsMisses    = obs.Default().Counter("mdw_rescache_misses_total")
	obsEvictions = obs.Default().Counter("mdw_rescache_evictions_total")
	obsEntries   = obs.Default().Gauge("mdw_rescache_entries")
	obsBytes     = obs.Default().Gauge("mdw_rescache_bytes")
)

func init() {
	r := obs.Default()
	r.SetHelp("mdw_rescache_hits_total", "SPARQL results and search answers served from the results cache.")
	r.SetHelp("mdw_rescache_misses_total", "Results-cache lookups (SPARQL or search) that fell through to execution.")
	r.SetHelp("mdw_rescache_evictions_total", "Results-cache entries dropped by the LRU bounds.")
	r.SetHelp("mdw_rescache_entries", "Results-cache entries currently retained.")
	r.SetHelp("mdw_rescache_bytes", "Estimated bytes retained by the results cache.")
}
