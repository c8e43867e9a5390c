package search

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mdw/internal/dbpedia"
	"mdw/internal/landscape"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/rescache"
	"mdw/internal/staging"
	"mdw/internal/store"
)

// canonResult is a result as callers see it: every exported field, and
// the groups Groups decodes.
type canonResult struct {
	Result
	Groups []Group
}

// canon normalizes a result for comparison. It keeps every exported
// field and compares Groups(), each group's hits sorted by the full
// (Name, IRI, Matched) key so ties in the user-facing by-Name order
// cannot make two equal results compare unequal. It zeroes the
// unexported fields — the shared answer, the dictionary, the effective
// cap and a kept reply — which say how a result was produced, not what
// it holds.
func canon(r *Result) canonResult {
	c := canonResult{Result: *r, Groups: r.Groups()}
	c.a, c.dict, c.cap, c.reply = nil, nil, 0, nil
	for gi := range c.Groups {
		hits := c.Groups[gi].Hits
		sort.Slice(hits, func(i, j int) bool {
			a, b := hits[i], hits[j]
			if a.Name != b.Name {
				return a.Name < b.Name
			}
			if a.IRI.Value != b.IRI.Value {
				return a.IRI.Value < b.IRI.Value
			}
			return a.Matched < b.Matched
		})
	}
	return c
}

// TestOptionsFields pins the search options: the Figure 6 filters plus
// ForceScan, the oracle switch the parity tests below set. Candidates come
// from the text index and from nowhere else, so there is no option that
// selects a candidate path.
func TestOptionsFields(t *testing.T) {
	want := []string{"FilterClasses", "Area", "Layer", "Semantic", "MatchDescriptions", "Tag", "MaxHitsPerGroup", "ForceScan"}
	typ := reflect.TypeOf(Options{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fields of search.Options = %v, want %v", got, want)
	}
}

// parityTerms and parityOpts are the corpus of the differential tests:
// exact, prefix, substring, synonym-expanded and description-matching
// terms across the Figure 6 filter combinations.
var (
	parityTerms = []string{
		"customer",    // exact word
		"CUSTOMER",    // case folding
		"cust",        // prefix
		"stome",       // infix substring
		"customer_id", // multi-token with separator
		"client",      // has synonyms in the thesaurus
		"interest",    // homonym hints
		"id",          // high-frequency token
		"e",           // single letter, huge candidate set
		"zz_nothing",  // no matches
	}
	parityOpts = []Options{
		{},
		{Semantic: true},
		{MatchDescriptions: true},
		{Semantic: true, MatchDescriptions: true},
		{FilterClasses: []string{rdf.DMNS + "Attribute"}},
		{Area: "mart"},
		{Layer: "conceptual"},
		{Tag: "pii"},
	}
)

// parityService is a search service over a generated landscape with the
// banking thesaurus.
func parityService(t *testing.T) *Service {
	t.Helper()
	l := landscape.Generate(landscape.Small())
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
		t.Fatal(err)
	}
	st.AddAll("m", l.ExtraTriples())
	return New(st, "m", dbpedia.FromTriples(dbpedia.Banking()))
}

// TestIndexedScanParity is the differential test of the inverted-index
// search path and of the results cache in front of it: for every term
// and option of the corpus, the first search (computed through the
// index), the second (a results-cache hit) and the retained literal-scan
// oracle must return identical results, at every hit cap — and the caps
// share one cache entry, since the cap is applied when a result is
// materialized.
func TestIndexedScanParity(t *testing.T) {
	svc := parityService(t)
	rc := rescache.Default()
	for _, term := range parityTerms {
		for _, opt := range parityOpts {
			rc.Purge()
			for _, limit := range []int{0, 3, 10} {
				opt.MaxHitsPerGroup = limit
				before := rc.Stats()
				cold, err := svc.Search(term, opt)
				if err != nil {
					t.Fatalf("cold %q %+v: %v", term, opt, err)
				}
				warm, err := svc.Search(term, opt)
				if err != nil {
					t.Fatalf("warm %q %+v: %v", term, opt, err)
				}
				scanOpt := opt
				scanOpt.ForceScan = true
				scanned, err := svc.Search(term, scanOpt)
				if err != nil {
					t.Fatalf("scan %q %+v: %v", term, opt, err)
				}
				after := rc.Stats()
				misses, hits := after.Misses-before.Misses, after.Hits-before.Hits
				if limit == 0 && (misses != 1 || hits != 1) || limit != 0 && (misses != 0 || hits != 2) {
					t.Errorf("term %q opts %+v: %d misses, %d hits; want the cap-0 search to miss once and every other to hit",
						term, opt, misses, hits)
				}
				if !reflect.DeepEqual(canon(cold), canon(warm)) {
					t.Errorf("term %q opts %+v: cold and warm results differ\ncold: %+v\nwarm: %+v", term, opt, cold, warm)
				}
				if !reflect.DeepEqual(canon(cold), canon(scanned)) {
					t.Errorf("term %q opts %+v: indexed and scan results differ\nindexed: %+v\nscan:    %+v",
						term, opt, cold, scanned)
				}
			}
			if n := rc.Len(); n != 1 {
				t.Errorf("term %q opts %+v: three caps left %d cache entries, want 1", term, opt, n)
			}
		}
	}
}

// TestWarmCacheKeepsKeysApart fills the results cache with every answer
// of the corpus first, then asks again: each warm search must still get
// its own answer — the scan oracle's — and each key field must change
// the answer for some term of the corpus, so that a key missing a field
// would show here as a wrong answer rather than pass unnoticed.
func TestWarmCacheKeepsKeysApart(t *testing.T) {
	svc := parityService(t)
	flips := map[string]Options{
		"FilterClasses":     {FilterClasses: []string{rdf.DMNS + "Attribute"}},
		"Area":              {Area: "mart"},
		"Layer":             {Layer: "conceptual"},
		"Tag":               {Tag: "pii"},
		"MatchDescriptions": {MatchDescriptions: true},
		"Semantic":          {Semantic: true},
	}
	search := func(term string, opt Options) canonResult {
		res, err := svc.Search(term, opt)
		if err != nil {
			t.Fatal(err)
		}
		return canon(res)
	}
	for _, term := range parityTerms {
		search(term, Options{})
		for _, opt := range flips {
			search(term, opt)
		}
	}
	for field, opt := range flips {
		shown := false
		for _, term := range parityTerms {
			before := rescache.Default().Stats().Hits
			warm := search(term, opt)
			if rescache.Default().Stats().Hits != before+1 {
				t.Fatalf("%s: %q was not answered from the cache", field, term)
			}
			scanOpt := opt
			scanOpt.ForceScan = true
			if want := search(term, scanOpt); !reflect.DeepEqual(warm, want) {
				t.Errorf("%s: warm answer for %q is not the oracle's: %d instances, want %d", field, term, warm.Instances, want.Instances)
			}
			base := search(term, Options{})
			shown = shown || !reflect.DeepEqual(warm.Groups, base.Groups) || warm.Instances != base.Instances
		}
		if !shown {
			t.Errorf("%s changes no answer of the corpus: the test cannot see it in the key", field)
		}
	}
}

// TestCacheKeyCoversOptions requires every Options field to reach the
// results-cache key, except the two the answer does not depend on:
// MaxHitsPerGroup is applied when a result is decoded, and ForceScan
// never consults the cache. A field added to Options fails here until it
// is put in the key or named below.
func TestCacheKeyCoversOptions(t *testing.T) {
	notInKey := map[string]bool{"MaxHitsPerGroup": true, "ForceScan": true}
	svc := New(store.New(), "m", dbpedia.FromTriples(dbpedia.Banking()))
	key := func(opt Options) string {
		expanded, _ := svc.expand("client", opt)
		return cacheKey("v", expanded, opt)
	}
	base := key(Options{})
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		var opt Options
		name, f := typ.Field(i).Name, reflect.ValueOf(&opt).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(3)
		case reflect.Slice:
			f.Set(reflect.ValueOf([]string{"x"}))
		default:
			t.Fatalf("Options.%s: no test value for kind %s", name, f.Kind())
		}
		if inKey := key(opt) != base; inKey == notInKey[name] {
			t.Errorf("Options.%s: changes the cache key = %v, want %v", name, inKey, !notInKey[name])
		}
	}
	expanded, _ := svc.expand("client", Options{})
	if cacheKey("v2", expanded, Options{}) == base {
		t.Error("the view's version is not in the cache key")
	}
	// Field boundaries are unambiguous: moving text between two filters
	// changes the key.
	if cacheKey("v", expanded, Options{Area: "a", Layer: "b"}) == cacheKey("v", expanded, Options{Area: "a\"\"b"}) {
		t.Error("two filter lists share one cache key")
	}
}

// TestCachedResultIsTheCallers mutates decoded groups the ways a caller
// might — canon sorts hits in place, groups and hits get appended, fields
// overwritten — and requires the result's next Groups call and the next
// search, a cache hit, to be unaffected.
func TestCachedResultIsTheCallers(t *testing.T) {
	svc := parityService(t)
	first, err := svc.Search("customer", Options{MaxHitsPerGroup: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%+v", canon(first))
	groups := first.Groups()
	g := slices.IndexFunc(groups, func(g Group) bool { return len(g.Hits) >= 2 })
	if g < 0 || len(groups) < 2 {
		t.Fatalf("fixture gives no group of two hits beside another: %+v", groups)
	}
	slices.Reverse(groups[g].Hits)
	groups[g].Hits[0].Name = "mutated"
	groups[g].Hits = append(groups[g].Hits, Hit{Name: "appended"})
	groups[(g+1)%len(groups)].Count = -1
	groups = append(groups, Group{Label: "Appended"})
	if got := fmt.Sprintf("%+v", canon(first)); got != want {
		t.Errorf("mutated groups reached the result's next Groups call:\ngot  %s\nwant %s", got, want)
	}
	first.Expanded[0] = "mutated"

	hits := rescache.Default().Stats().Hits
	second, err := svc.Search("customer", Options{MaxHitsPerGroup: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rescache.Default().Stats().Hits != hits+1 {
		t.Fatal("the second search was not a cache hit")
	}
	if got := fmt.Sprintf("%+v", canon(second)); got != want {
		t.Errorf("a mutated result reached the next caller:\ngot  %s\nwant %s", got, want)
	}
}

// TestAnswerSizeCoversItsSlices recomputes a cached answer's footprint
// from its slices' capacities — 12 bytes a hit, 32 a group, 4 a ref,
// three slice headers — plus the key and the replies the cache keeps,
// and requires the bytes the cache booked for it to be no smaller. The entry grows
// once per distinct effective cap, on that cap's first hit, and never on
// a repeat; a cap no group exceeds shares cap 0's reply.
func TestAnswerSizeCoversItsSlices(t *testing.T) {
	svc := parityService(t)
	rc := rescache.Default()
	rc.Purge()
	search := func(maxHits int) *Result {
		res, err := svc.Search("id", Options{MaxHitsPerGroup: maxHits})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	largest := 0
	for _, g := range search(0).Groups() { // the miss
		largest = max(largest, g.Count)
	}
	if largest <= 10 || largest >= 1000 {
		t.Fatalf("largest group of %d hits; the fixture needs one above cap 10 and none above 1000", largest)
	}
	kept := map[int][]byte{} // effective cap -> its kept reply
	for _, step := range []struct{ maxHits, effective int }{
		{0, 0}, {0, 0}, {1000, 0}, {3, 3}, {3, 3}, {1, 1}, {10, 10}, {largest, 0}, {1, 1}, {1000, 0},
	} {
		before := rc.Bytes()
		reply := search(step.maxHits).EncodedJSON()
		grew := rc.Bytes() - before
		if reply == nil {
			t.Fatalf("hit at cap %d kept no reply", step.maxHits)
		}
		if prev, ok := kept[step.effective]; ok {
			if &prev[0] != &reply[0] || grew != 0 {
				t.Errorf("cap %d: a repeat of effective cap %d encoded a reply of its own (the entry grew %d bytes)",
					step.maxHits, step.effective, grew)
			}
			continue
		}
		kept[step.effective] = reply
		if grew < int64(len(reply)) {
			t.Errorf("cap %d: keeping a reply of %d bytes grew the entry by %d", step.maxHits, len(reply), grew)
		}
	}
	if rc.Len() != 1 || len(kept) != 4 {
		t.Fatalf("%d entries, %d kept replies; want one entry keeping the replies of caps 0, 1, 3, 10", rc.Len(), len(kept))
	}
	v, err := reason.View(svc.st, true, svc.model)
	if err != nil {
		t.Fatal(err)
	}
	expanded, _ := svc.expand("id", Options{})
	key := cacheKey(v.Version(), expanded, Options{})
	booked := rc.Bytes()
	e, ok := rc.Get(key)
	if !ok {
		t.Fatal("the entry is not under the search's key")
	}
	a := e.(*answer)
	need := int64(3*24+12*cap(a.hits)+32*cap(a.groups)+4*cap(a.refs)) + int64(len(key))
	for effective, reply := range kept {
		if r := rc.Reply(key, effective, failEncode(t)); &r[0] != &reply[0] {
			t.Errorf("effective cap %d: the cache keeps another reply than its hits were handed", effective)
		}
		need += int64(len(reply))
	}
	if booked < need {
		t.Errorf("cache books %d bytes for an entry of %d bytes keeping %d replies", booked, need, len(kept))
	}
}

// TestOversizedSearchReplyIsStreamed: a cache with room for an answer
// but not for its reply keeps the answer, marks the cap, and streams
// every hit at it — the same bytes as the miss, without encoding into a
// reply again and without evicting anything.
func TestOversizedSearchReplyIsStreamed(t *testing.T) {
	svc := parityService(t)
	c := rescache.Enable(0, 16<<10)
	defer rescache.Enable(0, 0)
	var bodies [][]byte
	for i := range 3 {
		res, err := svc.Search("id", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.EncodedJSON() != nil {
			t.Fatalf("search %d carries a reply of %d bytes past a 16 kB cache", i, len(res.EncodedJSON()))
		}
		body, _ := res.AppendJSON(nil, func(b []byte) ([]byte, bool) { return b, true })
		bodies = append(bodies, body)
		if i > 0 && !bytes.Equal(body, bodies[0]) {
			t.Fatalf("hit %d streams other bytes than the miss", i)
		}
	}
	v, err := reason.View(svc.st, true, svc.model)
	if err != nil {
		t.Fatal(err)
	}
	expanded, _ := svc.expand("id", Options{})
	key := cacheKey(v.Version(), expanded, Options{})
	_, ok := c.Get(key)
	if !ok || len(bodies[0]) < 16<<10 {
		t.Fatalf("entry kept = %v, reply %d bytes; want the answer kept and a reply past the budget", ok, len(bodies[0]))
	}
	if r := c.Reply(key, 0, failEncode(t)); r != nil {
		t.Errorf("entry keeps a reply of %d bytes at cap 0, want it marked as streamed", len(r))
	}
	if got := c.Stats(); got.Entries != 1 || got.Evictions != 0 || got.Hits != 3 { // two searches and the Get
		t.Errorf("cache after a miss and two streamed hits: %+v", got)
	}
}

// TestSearchSeesLaterWrites is the stale-entailment and stale-cache
// regression test: a triple added after the first searches must be
// visible — including its *inherited* class groups, which only exist in
// the re-materialized OWLPRIME index — on the next search, on both
// matching paths, though the answer before the write was in the results
// cache. Each indexed search is asked twice, the second a cache hit that
// must agree with the first.
func TestSearchSeesLaterWrites(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR", nil)
	search := func(forceScan bool) *Result {
		t.Helper()
		opt := Options{ForceScan: forceScan}
		first, err := svc.Search("zz_late_column", opt)
		if err != nil {
			t.Fatal(err)
		}
		hits := rescache.Default().Stats().Hits
		second, err := svc.Search("zz_late_column", opt)
		if err != nil {
			t.Fatal(err)
		}
		if hit := rescache.Default().Stats().Hits > hits; hit == forceScan {
			t.Errorf("forceScan=%v: repeated search was a cache hit = %v", forceScan, hit)
		}
		if !reflect.DeepEqual(canon(first), canon(second)) {
			t.Errorf("forceScan=%v: repeated search answers differently:\n%+v\n%+v", forceScan, first, second)
		}
		return second
	}

	for _, forceScan := range []bool{false, true} {
		if search(forceScan).Instances != 0 {
			t.Fatalf("forceScan=%v: phantom hit before the write", forceScan)
		}
	}

	// Write to the base model after the service has already built its
	// entailment index and full-text index, and cached its answer.
	col := rdf.IRI(rdf.InstNS + "late/zz_late_column")
	st.Add("DWH_CURR", rdf.T(col, rdf.Type, rdf.IRI(rdf.DMNS+"Application1_View_Column")))
	st.Add("DWH_CURR", rdf.T(col, rdf.HasName, rdf.Literal("zz_late_column")))

	for _, forceScan := range []bool{false, true} {
		res := search(forceScan)
		if res.Instances != 1 {
			t.Fatalf("forceScan=%v: instances = %d after write, want 1", forceScan, res.Instances)
		}
		// The hit must group under its superclasses too — proof that the
		// entailment was re-materialized, not just the base re-scanned.
		if g := groupByLabel(res, "Attribute"); g == nil || g.Count != 1 {
			t.Errorf("forceScan=%v: inherited Attribute group missing: %v", forceScan, labels(res))
		}
	}

	// Removal is noticed as well.
	st.Remove("DWH_CURR", rdf.T(col, rdf.HasName, rdf.Literal("zz_late_column")))
	if res := search(false); res.Instances != 0 {
		t.Errorf("instances = %d after removal, want 0", res.Instances)
	}
}

// TestCacheKeepsStoresApart runs two stores in one process whose models
// share a name, a generation and the dictionary IDs of their matches but
// not their contents: each must get its own answer from the results
// cache, because a view's version names its models' instances.
func TestCacheKeepsStoresApart(t *testing.T) {
	svc := func(names ...string) *Service {
		st := store.New()
		for i, name := range names {
			col := rdf.IRI(fmt.Sprintf("%stwin/c%d", rdf.InstNS, i))
			st.AddAll("DWH_CURR", []rdf.Triple{
				rdf.T(col, rdf.Type, rdf.IRI(rdf.DMNS+"Column")),
				rdf.T(col, rdf.HasName, rdf.Literal(name))})
		}
		return New(st, "DWH_CURR", nil)
	}
	one, two := svc("twin_col", "other"), svc("twin_col", "twin_col_2")
	for round := 0; round < 2; round++ {
		for want, s := range map[int]*Service{1: one, 2: two} {
			res, err := s.Search("twin_col", Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Instances != want {
				t.Errorf("round %d: %d instances, want %d", round, res.Instances, want)
			}
		}
	}
}

// TestLateDescriptionPredicateIndexed reproduces the frozen-field-map
// bug end to end: the full-text index is built while no rdfs:comment
// triple exists anywhere (so the predicate is not interned yet), then
// the first description is written. The extended index must find
// it — previously the indexed path silently returned 0 while the scan
// oracle found 1.
func TestLateDescriptionPredicateIndexed(t *testing.T) {
	st := store.New()
	col := rdf.IRI(rdf.InstNS + "late/c1")
	st.Add("DWH_CURR", rdf.T(col, rdf.Type, rdf.IRI(rdf.DMNS+"Column")))
	st.Add("DWH_CURR", rdf.T(col, rdf.HasName, rdf.Literal("tcd100")))
	svc := New(st, "DWH_CURR", nil)

	opt := Options{MatchDescriptions: true}
	if res, err := svc.Search("tcd100", opt); err != nil || res.Instances != 1 {
		t.Fatalf("prime search: %v, %+v", err, res)
	}

	st.Add("DWH_CURR", rdf.T(col, rdf.IRI(rdf.RDFSComment), rdf.Literal("customer segment marker")))

	indexed, err := svc.Search("segment", opt)
	if err != nil {
		t.Fatal(err)
	}
	if indexed.Instances != 1 {
		t.Errorf("indexed search missed the late description: %d instances, want 1", indexed.Instances)
	}
	scanOpt := opt
	scanOpt.ForceScan = true
	scanned, err := svc.Search("segment", scanOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canon(indexed), canon(scanned)) {
		t.Errorf("indexed and scan disagree on late description\nindexed: %+v\nscan:    %+v", indexed, scanned)
	}
}

// TestMultiNameHitAttributionDeterministic pins the tie-break for
// subjects carrying several matching name literals: the lowest object ID
// (the first-interned literal) supplies Hit.Name on BOTH paths, every
// run — triple-map iteration order must not leak into results.
func TestMultiNameHitAttributionDeterministic(t *testing.T) {
	st := store.New()
	col := rdf.IRI(rdf.InstNS + "dup/c1")
	st.Add("DWH_CURR", rdf.T(col, rdf.Type, rdf.IRI(rdf.DMNS+"Column")))
	st.Add("DWH_CURR", rdf.T(col, rdf.HasName, rdf.Literal("customer_beta")))
	st.Add("DWH_CURR", rdf.T(col, rdf.HasName, rdf.Literal("customer_alpha")))
	svc := New(st, "DWH_CURR", nil)

	for run := 0; run < 8; run++ {
		for _, forceScan := range []bool{false, true} {
			res, err := svc.Search("customer", Options{ForceScan: forceScan})
			if err != nil {
				t.Fatal(err)
			}
			g := groupByLabel(res, "Column")
			if g == nil || len(g.Hits) != 1 {
				t.Fatalf("forceScan=%v: unexpected result %+v", forceScan, res)
			}
			if g.Hits[0].Name != "customer_beta" {
				t.Errorf("forceScan=%v run %d: Hit.Name = %q, want first-interned \"customer_beta\"",
					forceScan, run, g.Hits[0].Name)
			}
		}
	}
}

// TestEnsureIndexTracksGenerations covers the exported index-building
// entry point the warehouse uses for build-on-load.
func TestEnsureIndexTracksGenerations(t *testing.T) {
	st := fixture(t)
	svc := New(st, "DWH_CURR", nil)

	ix, err := EnsureIndex(st, "DWH_CURR", svc.tix)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Gen() != st.Generation("DWH_CURR") {
		t.Fatalf("index gen %d != model gen %d", ix.Gen(), st.Generation("DWH_CURR"))
	}
	st.Add("DWH_CURR", rdf.T(rdf.IRI(rdf.InstNS+"x"), rdf.HasName, rdf.Literal("xname")))
	ix2, err := EnsureIndex(st, "DWH_CURR", svc.tix)
	if err != nil {
		t.Fatal(err)
	}
	if ix2 == ix || ix2.Gen() != st.Generation("DWH_CURR") {
		t.Error("EnsureIndex did not refresh after a write")
	}
	if _, err := EnsureIndex(st, "no_such_model", svc.tix); err == nil {
		t.Error("EnsureIndex accepted a missing model")
	}
}

// TestManyModelsOneManager checks that one manager serves several models
// independently — the historized-release scenario.
func TestManyModelsOneManager(t *testing.T) {
	st := store.New()
	for i := 0; i < 3; i++ {
		model := fmt.Sprintf("rel%d", i)
		st.Add(model, rdf.T(rdf.IRI(rdf.InstNS+"c"), rdf.Type, rdf.IRI(rdf.DMNS+"Column")))
		st.Add(model, rdf.T(rdf.IRI(rdf.InstNS+"c"), rdf.HasName, rdf.Literal(fmt.Sprintf("col_v%d", i))))
	}
	shared := New(st, "rel0", nil).tix
	for i := 0; i < 3; i++ {
		model := fmt.Sprintf("rel%d", i)
		svc := New(st, model, nil).WithIndexManager(shared)
		res, err := svc.Search(fmt.Sprintf("col_v%d", i), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Instances != 1 {
			t.Errorf("model %s: instances = %d", model, res.Instances)
		}
	}
	if stats := shared.StatsAll(); len(stats) != 3 {
		t.Errorf("manager caches %d indexes, want 3", len(stats))
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
