package textindex

import "mdw/internal/obs"

// Metric handles, resolved once at package init.
var (
	obsBuildHist = obs.Default().Histogram("mdw_textindex_build_seconds", nil, "kind", "full")
	obsDeltaHist = obs.Default().Histogram("mdw_textindex_build_seconds", nil, "kind", "delta")
)

func init() {
	r := obs.Default()
	r.SetHelp("mdw_textindex_build_seconds", "Full-text index construction latency by kind (full tokenization vs delta update).")
}
