package store

import "mdw/internal/obs"

// Metric handles, resolved once at package init so the hot paths below
// pay a single atomic add each — never a registry lookup.
var (
	obsAdds       = obs.Default().Counter("mdw_store_adds_total")
	obsLookups    = obs.Default().Counter("mdw_store_lookups_total")
	obsInstalls   = obs.Default().Counter("mdw_store_installs_total")
	obsClones     = obs.Default().Counter("mdw_store_clones_total")
	obsSnapCopies = obs.Default().Counter("mdw_store_snapshot_copies_total")
)

func init() {
	r := obs.Default()
	r.SetHelp("mdw_store_adds_total", "Triples actually added to models (duplicates excluded).")
	r.SetHelp("mdw_store_lookups_total", "Locked pattern lookups (ForEach/Match/CountPattern/Contains).")
	r.SetHelp("mdw_store_installs_total", "Models atomically published via InstallModel.")
	r.SetHelp("mdw_store_clones_total", "Copy-on-write model clones published via CloneModel.")
	r.SetHelp("mdw_store_snapshot_copies_total", "Copy-on-write model copies taken so that readers can pin a version (one per model generation that is read, shared by all its readers).")
}
