package sparql

import (
	"strings"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/rescache"
	"mdw/internal/store"
)

func rcTestStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	st.Add("m", rdf.T(rdf.IRI("http://x/a"), rdf.IRI("http://x/p"), rdf.IRI("http://x/b")))
	st.Add("m", rdf.T(rdf.IRI("http://x/b"), rdf.IRI("http://x/p"), rdf.IRI("http://x/c")))
	st.Add("m", rdf.T(rdf.IRI("http://x/a"), rdf.IRI("http://x/q"), rdf.IRI("http://x/c")))
	return st
}

func mustParse(t *testing.T, s string) *Query {
	t.Helper()
	q, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestResultsCacheHitAndInvalidation: a repeat on an unchanged model is
// served from the cache; one mutation makes the key stale and the next
// execution recomputes (and re-caches under the new generation).
func TestResultsCacheHitAndInvalidation(t *testing.T) {
	c := rescache.Enable(0, 0)
	defer rescache.Enable(0, 0)
	st := rcTestStore(t)
	m := st.ViewOf("m")
	q := mustParse(t, `SELECT ?s ?o WHERE { ?s <http://x/p> ?o }`)

	r1, err := run(q, m, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Hits != 0 || got.Misses != 1 || got.Entries != 1 {
		t.Fatalf("after first exec: %+v", got)
	}
	r2, err := run(q, m, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Hits != 1 {
		t.Fatalf("repeat was not a hit: %+v", got)
	}
	if len(r2.Rows) != len(r1.Rows) {
		t.Fatalf("cached rows = %d, want %d", len(r2.Rows), len(r1.Rows))
	}

	// A single mutation bumps the generation: stale key never matches.
	st.Add("m", rdf.T(rdf.IRI("http://x/z"), rdf.IRI("http://x/p"), rdf.IRI("http://x/w")))
	r3, err := run(q, st.ViewOf("m"), st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Hits != 1 || got.Misses != 2 {
		t.Fatalf("post-mutation exec should miss: %+v", got)
	}
	if len(r3.Rows) != len(r1.Rows)+1 {
		t.Fatalf("post-mutation rows = %d, want %d", len(r3.Rows), len(r1.Rows)+1)
	}
}

// TestResultsCacheViewKeysEveryMember: with a (base, index) view, a
// mutation to either member model invalidates.
func TestResultsCacheViewKeysEveryMember(t *testing.T) {
	c := rescache.Enable(0, 0)
	defer rescache.Enable(0, 0)
	st := rcTestStore(t)
	st.Add("m$IDX", rdf.T(rdf.IRI("http://x/a"), rdf.IRI("http://x/p"), rdf.IRI("http://x/c")))
	q := mustParse(t, `ASK { <http://x/a> <http://x/p> ?o }`)

	if _, err := run(q, st.ViewOf("m", "m$IDX"), st.Dict()); err != nil {
		t.Fatal(err)
	}
	if _, err := run(q, st.ViewOf("m", "m$IDX"), st.Dict()); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Hits != 1 {
		t.Fatalf("view repeat was not a hit: %+v", got)
	}
	// Mutate only the index member.
	st.Add("m$IDX", rdf.T(rdf.IRI("http://x/n"), rdf.IRI("http://x/p"), rdf.IRI("http://x/o2")))
	if _, err := run(q, st.ViewOf("m", "m$IDX"), st.Dict()); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Hits != 1 {
		t.Fatalf("index-member mutation did not invalidate: %+v", got)
	}
}

// TestResultsCacheCloneDoesNotAlias is the divergence regression of the
// fresh-generation scheme end to end: cache an answer over the source,
// clone it, mutate the source — the clone's cached/queried results must
// be unaffected in both directions.
func TestResultsCacheCloneDoesNotAlias(t *testing.T) {
	c := rescache.Enable(0, 0)
	defer rescache.Enable(0, 0)
	st := rcTestStore(t)
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://x/p> ?o }`)

	if err := st.CloneModel("m", "m2"); err != nil {
		t.Fatal(err)
	}
	rSrc, _ := run(q, st.ViewOf("m"), st.Dict())
	rClone, err := run(q, st.ViewOf("m2"), st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Hits != 0 || got.Misses != 2 {
		t.Fatalf("clone must not share the source's cache entries: %+v", got)
	}
	if len(rClone.Rows) != len(rSrc.Rows) {
		t.Fatalf("clone rows = %d, want %d", len(rClone.Rows), len(rSrc.Rows))
	}
	// Diverge the source; the clone's entry stays valid and correct.
	st.Add("m", rdf.T(rdf.IRI("http://x/new"), rdf.IRI("http://x/p"), rdf.IRI("http://x/v")))
	rClone2, err := run(q, st.ViewOf("m2"), st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Hits != 1 {
		t.Fatalf("clone repeat after source mutation should hit: %+v", got)
	}
	if len(rClone2.Rows) != len(rClone.Rows) {
		t.Fatalf("source mutation changed clone's cached answer: %d != %d", len(rClone2.Rows), len(rClone.Rows))
	}
}

// TestResultsCacheBypasses: non-deterministic and non-SELECT/ASK shapes
// never enter the cache.
func TestResultsCacheBypasses(t *testing.T) {
	c := rescache.Enable(0, 0)
	defer rescache.Enable(0, 0)
	st := rcTestStore(t)
	m := st.ViewOf("m")

	for _, tc := range []struct {
		name, q string
	}{
		{"limit without order", `SELECT ?s WHERE { ?s ?p ?o } LIMIT 1`},
		{"offset without order", `SELECT ?s WHERE { ?s ?p ?o } OFFSET 1`},
		{"construct", `CONSTRUCT { ?s <http://x/p2> ?o } WHERE { ?s <http://x/p> ?o }`},
	} {
		q := mustParse(t, tc.q)
		if _, err := run(q, m, st.Dict()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := run(q, m, st.Dict()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	if got := c.Stats(); got.Hits != 0 || got.Misses != 0 || got.Entries != 0 {
		t.Fatalf("bypassed shapes touched the cache: %+v", got)
	}
	// LIMIT with a full ORDER BY is deterministic and cacheable.
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://x/p> ?o } ORDER BY ?s LIMIT 1`)
	run(q, m, st.Dict())
	run(q, m, st.Dict())
	if got := c.Stats(); got.Hits != 1 {
		t.Fatalf("ordered LIMIT should cache: %+v", got)
	}
	// Disabled cache: everything executes, nothing caches.
	rescache.Disable()
	q2 := mustParse(t, `SELECT ?o WHERE { ?s <http://x/q> ?o }`)
	if _, err := run(q2, m, st.Dict()); err != nil {
		t.Fatal(err)
	}
	if rescache.Default() != nil {
		t.Fatal("Disable did not stick")
	}
}

// TestExplainAnnotatesCacheHit: once an entry exists at the current
// generations, ExplainOn appends the results-cache line; a mutation
// removes it. The Peek must not skew hit/miss counters.
func TestExplainAnnotatesCacheHit(t *testing.T) {
	c := rescache.Enable(0, 0)
	defer rescache.Enable(0, 0)
	st := rcTestStore(t)
	m := st.ViewOf("m")
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://x/p> ?o }`)

	if out := q.ExplainOn(m, st.Dict()); strings.Contains(out, "results cache") {
		t.Fatalf("explain annotated before any execution:\n%s", out)
	}
	if _, err := run(q, m, st.Dict()); err != nil {
		t.Fatal(err)
	}
	if out := q.ExplainOn(m, st.Dict()); !strings.Contains(out, "results cache: HIT") {
		t.Fatalf("explain missing cache annotation:\n%s", out)
	}
	misses := c.Stats().Misses
	st.Add("m", rdf.T(rdf.IRI("http://x/z2"), rdf.IRI("http://x/p"), rdf.IRI("http://x/w2")))
	if out := q.ExplainOn(st.ViewOf("m"), st.Dict()); strings.Contains(out, "results cache: HIT") {
		t.Fatalf("explain still annotated after mutation:\n%s", out)
	}
	if c.Stats().Misses != misses {
		t.Error("ExplainOn's Peek counted a miss")
	}
}
