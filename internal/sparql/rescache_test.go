package sparql

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

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
	if r2.Len() != r1.Len() {
		t.Fatalf("cached rows = %d, want %d", r2.Len(), r1.Len())
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
	if r3.Len() != r1.Len()+1 {
		t.Fatalf("post-mutation rows = %d, want %d", r3.Len(), r1.Len()+1)
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
	if rClone.Len() != rSrc.Len() {
		t.Fatalf("clone rows = %d, want %d", rClone.Len(), rSrc.Len())
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
	if rClone2.Len() != rClone.Len() {
		t.Fatalf("source mutation changed clone's cached answer: %d != %d", rClone2.Len(), rClone.Len())
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

// TestCachedRowIsTheCallers: Row hands each caller a fresh map, and the
// Result struct is the caller's own, so a caller that writes into either
// leaves the next hit as it was.
func TestCachedRowIsTheCallers(t *testing.T) {
	rescache.Enable(0, 0)
	defer rescache.Enable(0, 0)
	st := rcTestStore(t)
	m := st.ViewOf("m")
	q := mustParse(t, `SELECT ?s ?o WHERE { ?s <http://x/p> ?o } ORDER BY ?s`)
	first, err := run(q, m, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(first.Vars, first.Bindings())
	for range 2 { // the first hit, which keeps the reply, and a later one
		hit, err := run(q, m, st.Dict())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < hit.Len(); i++ {
			row := hit.Row(i)
			row["s"] = rdf.Literal("mutated")
			delete(row, "o")
			row["added"] = rdf.IRI("http://x/added")
		}
		hit.Vars, hit.Ask = append(hit.Vars[:0:0], "added"), true
	}
	next, err := run(q, m, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(next.Vars, next.Bindings()); got != want || next.Ask {
		t.Errorf("a caller's writes reached the next hit:\ngot  %s\nwant %s", got, want)
	}
}

// TestResultSizeCoversItsSlices recomputes a cached entry's footprint
// from its capacities — 4 B a cell, the computed terms with their
// strings, the Result with its slice headers, the key, the reply the
// cache keeps — and requires the bytes the cache booked to be no
// smaller: for the miss's ID-only entry, and again once the first hit
// added the reply. A later hit books nothing more. The same holds for an OFFSET query's entry,
// whose window TestWindowCopiesItsCells keeps from holding the rows
// before it, which no capacity would count.
func TestResultSizeCoversItsSlices(t *testing.T) {
	c := rescache.Enable(0, 0)
	defer rescache.Enable(0, 0)
	st := rcTestStore(t)
	m := st.ViewOf("m")
	for _, text := range []string{
		`SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s`,
		`SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?s ?o OFFSET 1`,
	} {
		c.Purge()
		q := mustParse(t, text)
		version, _ := sourceVersion(m)
		key := q.resultCacheKey(version)
		// entry returns the cached result, the reply the cache keeps for it
		// (none after the miss), and the entry's footprint.
		entry := func(hit bool) (*Result, []byte, int64) {
			v, ok := c.Get(key)
			if !ok {
				t.Fatal("no cache entry under the query's key")
			}
			r := v.(*Result)
			var reply []byte
			if hit {
				reply = c.Reply(key, 0, failEncode(t))
			}
			need := int64(unsafe.Sizeof(*r)) + 4*int64(cap(r.cells)) + int64(len(reply)) + int64(len(key)) +
				int64(cap(r.Vars))*int64(unsafe.Sizeof("")) + int64(cap(r.computed))*int64(unsafe.Sizeof(rdf.Term{}))
			for _, t := range r.computed {
				need += int64(len(t.Value) + len(t.Datatype) + len(t.Lang))
			}
			return r, reply, need
		}
		var booked []int64
		for i := range 3 {
			res, err := run(q, m, st.Dict())
			if err != nil {
				t.Fatal(err)
			}
			r, reply, need := entry(i > 0)
			booked = append(booked, c.Bytes())
			if got := c.Bytes(); c.Len() != 1 || got < need {
				t.Fatalf("%s, run %d: cache books %d bytes in %d entries for an entry of %d bytes", text, i, got, c.Len(), need)
			}
			if (len(r.computed) == 0) == (q.Offset == 0) || (res.EncodedJSON() == nil) != (i == 0) {
				t.Fatalf("%s, run %d: entry has %d computed terms and the run reply %q", text, i, len(r.computed), res.EncodedJSON())
			}
			if i > 0 && &res.EncodedJSON()[0] != &reply[0] {
				t.Fatalf("%s: hit %d was not handed the entry's reply", text, i)
			}
		}
		if booked[1] <= booked[0] || booked[2] != booked[1] {
			t.Errorf("%s: booked bytes over miss, first hit, later hit = %v; want one growth, on the first hit", text, booked)
		}
	}
}

// TestWindowCopiesItsCells: a window that drops rows leaves the
// projection's cells behind, so that a cached result cannot keep rows
// before its OFFSET alive past what its capacity books.
func TestWindowCopiesItsCells(t *testing.T) {
	cells := []store.ID{1, 2, 3, 4, 5, 6}
	for q, want := range map[*Query]int{{Offset: 1, Limit: -1}: 2, {Limit: 1}: 1} {
		r := &Result{Vars: []string{"x", "y"}, cells: slices.Clone(cells), n: 3}
		all := r.cells
		r.window(q)
		if r.n != want || len(r.cells) != 2*r.n {
			t.Fatalf("offset %d limit %d: %d rows in %d cells", q.Offset, q.Limit, r.n, len(r.cells))
		}
		r.cells[0] = 99
		if slices.Contains(all, 99) {
			t.Errorf("offset %d limit %d: the window shares the projection's array", q.Offset, q.Limit)
		}
	}
}

// TestOversizedReplyIsStreamed: a cache with room for an entry's ID rows
// but not for its reply keeps the ID-only entry, marks its reply, and streams
// every hit — the same bytes as the miss, without encoding into a reply
// again and without evicting anything.
func TestOversizedReplyIsStreamed(t *testing.T) {
	c := rescache.Enable(0, 2048)
	defer rescache.Enable(0, 0)
	st := store.New()
	for i := range 50 {
		st.Add("m", rdf.T(rdf.IRI(fmt.Sprintf("http://x/s%d", i)), rdf.IRI("http://x/name"),
			rdf.Literal(strings.Repeat("a long name <&> ", 20))))
	}
	m := st.ViewOf("m")
	q := mustParse(t, `SELECT ?s ?name WHERE { ?s <http://x/name> ?name }`)
	var bodies [][]byte
	for i := range 3 {
		res, err := run(q, m, st.Dict())
		if err != nil {
			t.Fatal(err)
		}
		if res.EncodedJSON() != nil {
			t.Fatalf("run %d carries a reply of %d bytes past a 2048-byte cache", i, len(res.EncodedJSON()))
		}
		body, _ := res.AppendJSON(nil, func(b []byte) ([]byte, bool) { return b, true })
		bodies = append(bodies, body)
		if i > 0 && !bytes.Equal(body, bodies[0]) {
			t.Fatalf("hit %d streams other bytes than the miss", i)
		}
	}
	version, _ := sourceVersion(m)
	key := q.resultCacheKey(version)
	_, ok := c.Get(key)
	if !ok || c.Reply(key, 0, failEncode(t)) != nil || len(bodies[0]) < 2048 {
		t.Fatalf("entry kept = %v, want the ID-only entry marked as streamed (reply %d bytes)", ok, len(bodies[0]))
	}
	if got := c.Stats(); got.Entries != 1 || got.Evictions != 0 || got.Hits != 3 { // two runs and the Get
		t.Errorf("cache after a miss and two streamed hits: %+v", got)
	}
}

// failEncode is an encoder for rescache.Cache.Reply that fails the test
// if called: the reply it asks for must be kept (or marked) already.
func failEncode(t *testing.T) func([]byte, func([]byte) ([]byte, bool)) ([]byte, bool) {
	return func([]byte, func([]byte) ([]byte, bool)) ([]byte, bool) {
		t.Fatal("Reply encoded a reply that should have been kept or marked")
		return nil, false
	}
}
