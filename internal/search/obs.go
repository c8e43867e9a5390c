package search

import "mdw/internal/obs"

// obsSearchHist is resolved once at package init.
var obsSearchHist = obs.Default().Histogram("mdw_search_seconds", nil)

func init() {
	r := obs.Default()
	r.SetHelp("mdw_search_seconds", "Search service latency (full three-step algorithm).")
}
