package sparql

import (
	"context"
	"strconv"
	"unsafe"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/rescache"
	"mdw/internal/store"
)

// Results caching: before planning, Run consults the process-wide
// rescache keyed by (fingerprint, query text, version of the source: its
// sorted per-model generations). Any mutation bumps a model generation,
// so a stale key simply never matches again — invalidation is implicit.
//
// The fingerprint alone cannot be the key (it collapses constants, so
// "everything about dwh:Client" and "... dwh:Branch" share one), which
// is why the raw text rides along; the fingerprint stays in the key so
// the statement table and the cache agree on statement identity.

// resultsCacheable reports whether the query may be served from / stored
// into the results cache. SELECT and ASK results are cacheable when the
// query is deterministic: LIMIT/OFFSET without a full ORDER BY may
// return any valid subset, so those are bypassed rather than pinned to
// whichever subset ran first. Hand-constructed queries (no source text)
// have no reliable identity and are bypassed too.
func (q *Query) resultsCacheable() bool {
	if q.Kind != SelectQuery && q.Kind != AskQuery {
		return false
	}
	if q.Text == "" {
		return false
	}
	if (q.Limit >= 0 || q.Offset > 0) && len(q.OrderBy) == 0 {
		return false
	}
	return true
}

// sourceVersion returns the part of the cache key that ties an entry to
// the exact store state it was computed from: the source's Version (see
// store.Model.Version for why it can never alias two states). The
// warehouse executes against pinned views, whose version cannot move
// under a run. Sources without a Version are never cached.
func sourceVersion(src store.Source) (string, bool) {
	if v, ok := src.(interface{ Version() string }); ok {
		return v.Version(), true
	}
	return "", false
}

// resultCacheKey assembles the full cache key from the query identity
// and the source's generation vector.
func (q *Query) resultCacheKey(genKey string) string {
	return q.Fingerprint() + "\x00" + q.Text + "\x00" + genKey
}

// estimateResultSize is a cached result's footprint for the cache's
// byte budget, counted from capacities: the Result, 4 B a cell, the
// computed terms and the variables' string headers. A cell's term is the
// dictionary's, a variable's bytes the query's, the key and reply the cache's.
func estimateResultSize(r *Result) int64 {
	n := int64(unsafe.Sizeof(*r)) + 4*int64(cap(r.cells)) +
		int64(cap(r.Vars))*int64(unsafe.Sizeof("")) +
		int64(cap(r.computed))*int64(unsafe.Sizeof(rdf.Term{}))
	for _, t := range r.computed {
		n += int64(len(t.Value) + len(t.Datatype) + len(t.Lang))
	}
	return n
}

// serveCachedResult emits the observability evidence of a cache hit —
// an exec span labelled rescache=hit, a hit on the statement's row, row
// counters — and returns a shallow copy of the cached result with the
// reply the cache keeps for it; its rows and reply are never written.
func (q *Query) serveCachedResult(ctx context.Context, rc *rescache.Cache, key string, res *Result) *Result {
	sp, _ := obs.ChildCtx(ctx, "sparql exec")
	rows := res.Count()
	sp.SetLabel("rescache", "hit").SetLabel("rows", strconv.Itoa(rows)).Finish()
	obsRows.Add(int64(rows))
	obs.DefaultStatements().Record(q.Fingerprint(), q.Text, obs.Execution{Rows: rows, Hit: true})
	out := *res
	out.reply = rc.Reply(key, 0, res.AppendJSON)
	return &out
}
