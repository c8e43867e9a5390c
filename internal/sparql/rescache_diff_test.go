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
	"bytes"
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

// checkCacheDiff executes q against fx and asserts agreement: naive
// reference, planned first run, planned repeats. For cacheable shapes
// (everything the generator emits except LIMIT without ORDER BY) the
// repeats are cache hits and cacheable is incremented: the first run
// streams its reply (a miss, unless the sweep drew the query before),
// the first repeat keeps the same bytes in the entry, which grows once,
// and a later repeat writes them as they are.
func checkCacheDiff(t *testing.T, fx diffFixture, q *sparql.Query, full, unlimited string, cacheable *int) {
	t.Helper()
	naive, err := q.ExecNaive(fx.src, fx.dict)
	if err != nil {
		t.Fatalf("[%s] naive exec failed for %q: %v", fx.name, full, err)
	}
	// The first run, the first repeat and a later one, with the bytes
	// the cache books after each and the reply each writes.
	rc := rescache.Default()
	var rs [3]*sparql.Result
	var booked [3]int64
	var bodies [3][]byte
	hits := rc.Stats().Hits
	for i := range rs {
		if rs[i], _, err = q.Run(context.Background(), fx.src, fx.dict, sparql.RunOptions{}); err != nil {
			t.Fatalf("[%s] exec %d failed for %q: %v", fx.name, i, full, err)
		}
		booked[i] = rc.Bytes()
		if bodies[i] = rs[i].EncodedJSON(); bodies[i] == nil {
			bodies[i], _ = rs[i].AppendJSON(nil, func(b []byte) ([]byte, bool) { return b, true })
		}
	}
	r1, r2 := rs[0], rs[2]
	if unlimited == "" {
		if !bytes.Equal(bodies[1], bodies[0]) || !bytes.Equal(bodies[2], bodies[0]) {
			t.Errorf("[%s] replies differ on %q:\nfirst  %s\nrepeat %s\nlater  %s",
				fx.name, full, bodies[0], bodies[1], bodies[2])
		}
		if rs[1].EncodedJSON() == nil || rs[2].EncodedJSON() == nil {
			t.Errorf("[%s] a repeat of %q was not written from the kept reply", fx.name, full)
		}
		if rc.Stats().Hits-hits == 2 && booked[1] <= booked[0] || booked[2] != booked[1] {
			t.Errorf("[%s] booked bytes over first run, first repeat, later repeat of %q = %v; want one growth, on the first repeat",
				fx.name, full, booked)
		}
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
