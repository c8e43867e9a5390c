package sparql_test

// Differential harness for the results cache: the same seeded random
// query mix as the planner sweep, but every query executes three ways —
// the naive reference (never cached), a first planned execution (cache
// miss, populates), and an immediate repeat (served from the cache for
// cacheable shapes). All three must agree. Mutations are interleaved
// every few queries so generation-keyed invalidation is exercised under
// the sweep: a stale entry served after a mutation would diverge from
// the naive reference, which always sees current data.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/rescache"
	"mdw/internal/sparql"
)

func TestDifferentialResultsCache(t *testing.T) {
	c := rescache.Enable(0, 0)
	defer rescache.Enable(0, 0)

	rng := rand.New(rand.NewSource(99))
	fixtures := []diffFixture{simpleFixture(rng), entailedFixture(rng)}
	const perFixture = 150 // 300 queries total, each executed thrice
	const mutateEvery = 25

	var cacheable int // repeats that must have been served by the cache
	for _, fx := range fixtures {
		g := &queryGen{rng: rng, fx: fx}
		var lastFull string // last cacheable query, re-checked after mutations
		for i := 0; i < perFixture; i++ {
			if i > 0 && i%mutateEvery == 0 {
				// Bump the member model's generation: every cached entry
				// over this view is now unreachable. The fresh object IRI
				// also grows the dictionary, churning plan revalidation.
				fx.st.Add(fx.mutModel, rdf.T(
					rdf.IRI(fx.subjects[rng.Intn(len(fx.subjects))]),
					rdf.IRI(fx.preds[rng.Intn(len(fx.preds))]),
					rdf.IRI(fmt.Sprintf("http://d/mut-%s-%d", fx.name, i))))
				if lastFull != "" {
					// The previously cached query must recompute against
					// the mutated data, not serve its stale entry.
					q, err := sparql.Parse(lastFull)
					if err != nil {
						t.Fatalf("[%s #%d] reparse failed: %v", fx.name, i, err)
					}
					checkCacheDiff(t, fx, q, lastFull, "", &cacheable)
				}
			}
			full, unlimited := g.query()
			q, err := sparql.Parse(full)
			if err != nil {
				t.Fatalf("[%s #%d] generator emitted unparsable query %q: %v", fx.name, i, full, err)
			}
			checkCacheDiff(t, fx, q, full, unlimited, &cacheable)
			if unlimited == "" {
				lastFull = full
			}
		}
	}

	st := c.Stats()
	if st.Hits < int64(cacheable) {
		t.Errorf("cache hits = %d, want >= %d (one per cacheable repeat)", st.Hits, cacheable)
	}
	if st.Misses == 0 {
		t.Error("sweep recorded no cache misses; cache was never consulted")
	}
}

// checkCacheDiff executes q three ways against fx and asserts agreement:
// naive reference, planned first run, planned repeat. For cacheable
// shapes (everything the generator emits except LIMIT without ORDER BY)
// the repeat is a cache hit and cacheable is incremented.
func checkCacheDiff(t *testing.T, fx diffFixture, q *sparql.Query, full, unlimited string, cacheable *int) {
	t.Helper()
	naive, err := q.ExecNaive(fx.src, fx.dict)
	if err != nil {
		t.Fatalf("[%s] naive exec failed for %q: %v", fx.name, full, err)
	}
	r1, _, err := q.Run(context.Background(), fx.src, fx.dict, sparql.RunOptions{})
	if err != nil {
		t.Fatalf("[%s] first exec failed for %q: %v", fx.name, full, err)
	}
	r2, _, err := q.Run(context.Background(), fx.src, fx.dict, sparql.RunOptions{})
	if err != nil {
		t.Fatalf("[%s] repeat exec failed for %q: %v", fx.name, full, err)
	}
	if q.Kind == sparql.AskQuery {
		if r1.Ask != naive.Ask || r2.Ask != naive.Ask {
			t.Errorf("[%s] ASK divergence on %q: naive=%v first=%v repeat=%v",
				fx.name, full, naive.Ask, r1.Ask, r2.Ask)
		}
		*cacheable++
		return
	}
	nk, k1, k2 := rowKeys(naive), rowKeys(r1), rowKeys(r2)
	if unlimited == "" {
		if !sameMultiset(k1, nk) {
			t.Errorf("[%s] first exec diverged on %q:\nplanned (%d): %v\nnaive   (%d): %v",
				fx.name, full, len(k1), k1, len(nk), nk)
		}
		if !sameMultiset(k2, nk) {
			t.Errorf("[%s] cached repeat diverged on %q:\ncached (%d): %v\nnaive  (%d): %v",
				fx.name, full, len(k2), k2, len(nk), nk)
		}
		*cacheable++
		return
	}
	// LIMIT without ORDER BY bypasses the cache (non-deterministic row
	// subset); both runs still must return a right-sized subset of the
	// full solution multiset.
	uq, err := sparql.Parse(unlimited)
	if err != nil {
		t.Fatalf("[%s] unlimited variant unparsable: %v", fx.name, err)
	}
	fullRes, err := uq.ExecNaive(fx.src, fx.dict)
	if err != nil {
		t.Fatalf("[%s] unlimited naive exec failed: %v", fx.name, err)
	}
	fk := rowKeys(fullRes)
	want := len(fk)
	if q.Limit < want {
		want = q.Limit
	}
	if len(k1) != want || len(k2) != want {
		t.Errorf("[%s] LIMIT row count wrong on %q: first=%d repeat=%d want=%d",
			fx.name, full, len(k1), len(k2), want)
	}
	if !subsetOf(k1, fk) || !subsetOf(k2, fk) {
		t.Errorf("[%s] LIMIT rows not drawn from full solutions on %q", fx.name, full)
	}
}
