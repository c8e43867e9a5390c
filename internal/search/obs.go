package search

import "mdw/internal/obs"

// Metric handles, resolved once at package init.
var (
	obsSearchHist = obs.Default().Histogram("mdw_search_seconds", nil)
	obsSearchIdx  = obs.Default().Counter("mdw_search_path_total", "path", "index")
	obsSearchScan = obs.Default().Counter("mdw_search_path_total", "path", "scan")
)

func init() {
	r := obs.Default()
	r.SetHelp("mdw_search_seconds", "Search service latency (full three-step algorithm).")
	r.SetHelp("mdw_search_path_total", "Searches answered by the inverted index or the literal scan (the tests' oracle).")
}
