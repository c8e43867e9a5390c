package textindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"customer_id", []string{"customer", "id"}},
		{"v_customer", []string{"v", "customer"}},
		{"TCD100", []string{"TCD100"}},
		{"  spaced  out ", []string{"spaced", "out"}},
		{"___", nil},
		{"", nil},
		{"a", []string{"a"}},
		{"dup dup dup", []string{"dup", "dup", "dup"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// fixture builds a store with a handful of named (and described)
// subjects and returns the index over it.
func fixture(t *testing.T) (*store.Store, *Index) {
	t.Helper()
	st := store.New()
	add := func(path, name, desc string) {
		s := rdf.IRI(rdf.InstNS + path)
		st.Add("m", rdf.T(s, rdf.HasName, rdf.Literal(name)))
		if desc != "" {
			st.Add("m", rdf.T(s, rdf.IRI(rdf.RDFSComment), rdf.Literal(desc)))
		}
	}
	add("t1", "customer_id", "")
	add("t2", "Customer Account", "primary account holder")
	add("t3", "v_customer", "")
	add("t4", "TCD100", "customer segment marker")
	add("t5", "partner_id", "")
	return st, build(st)
}

// build is the from-scratch index over model "m" as it stands; refresh is
// Manager.For over the same, which extends the kept index when it can.
func build(st *store.Store) *Index {
	return BuildPostings("m", st.Snapshot("m"), st.Dict(), DefaultConfig().Fields(st.Dict()))
}

func refresh(m *Manager, st *store.Store) *Index {
	return m.For("m", st.Snapshot("m"), st)
}

// contents flattens an index to what it holds, whatever its segments:
// every token's sorted postings and every literal's folded text.
func contents(ix *Index) (map[string][]Posting, map[Posting]string) {
	post, lits := map[string][]Posting{}, map[Posting]string{}
	for _, sg := range ix.segs {
		for t, list := range sg.post {
			post[t] = append(post[t], list...)
		}
		for p := range sg.lits {
			lits[p] = sg.ftext[p.Object]
		}
	}
	for _, list := range post {
		sortPostingList(list)
	}
	return post, lits
}

// sameIndex fails the test unless got holds exactly what want holds and
// answers for the same view.
func sameIndex(t *testing.T, when string, got, want *Index) {
	t.Helper()
	gp, gl := contents(got)
	wp, wl := contents(want)
	if !reflect.DeepEqual(gp, wp) || !reflect.DeepEqual(gl, wl) {
		t.Fatalf("%s: extended index differs from the one built from scratch:\n got %d tokens %d literals\nwant %d tokens %d literals", when, len(gp), len(gl), len(wp), len(wl))
	}
	if got.Stats() != want.Stats() || got.version != want.version {
		t.Fatalf("%s: stats %+v over %s, from scratch %+v over %s", when, got.Stats(), got.version, want.Stats(), want.version)
	}
}

func subjectsOf(st *store.Store, ps []Posting) []string {
	var out []string
	for _, p := range ps {
		out = append(out, st.Dict().Term(p.Subject).Value)
	}
	return out
}

func TestSearchFoldedSubstring(t *testing.T) {
	st, ix := fixture(t)

	for _, term := range []string{"customer", "CUSTOMER", "stome"} {
		got := subjectsOf(st, ix.Search(term, FieldName))
		if len(got) != 3 {
			t.Errorf("Search(%q) names = %v, want 3 subjects", term, got)
		}
	}
	// Tokens-spanning term: "r_i" occurs in "customer_id" and
	// "partner_id" across the token boundary and must still be found.
	if got := ix.Search("r_i", FieldName); len(got) != 2 {
		t.Errorf("Search(r_i) = %v, want customer_id and partner_id", subjectsOf(st, got))
	}
	// "r i" (space, not underscore) occurs in neither literal.
	if got := ix.Search("r i", FieldName); len(got) != 0 {
		t.Errorf("Search(\"r i\") = %v, want none", subjectsOf(st, got))
	}
	// Descriptions are a separate field.
	if got := ix.Search("customer", FieldDescription); len(got) != 1 {
		t.Errorf("Search(customer, desc) = %v, want TCD100's comment", subjectsOf(st, got))
	}
	// A separator-only term matches no literal but must not panic (its
	// candidate set is the whole field).
	if got := ix.Search("###", FieldName); len(got) != 0 {
		t.Errorf("Search(###) = %v, want none", subjectsOf(st, got))
	}
}

func TestSearchAnyAttributesFirstTerm(t *testing.T) {
	st, ix := fixture(t)
	ms := ix.SearchAny([]string{"partner", "customer"}, FieldName)
	if len(ms) != 4 {
		t.Fatalf("SearchAny = %v", ms)
	}
	for _, m := range ms {
		subj := st.Dict().Term(m.Subject).Value
		wantTerm := 1
		if subj == rdf.InstNS+"t5" {
			wantTerm = 0
		}
		if m.Term != wantTerm {
			t.Errorf("%s attributed to term %d, want %d", subj, m.Term, wantTerm)
		}
	}
}

func TestUpdateIsIncrementalAndImmutable(t *testing.T) {
	st, _ := fixture(t)
	m := NewManager(Config{})
	ix := refresh(m, st)
	before := ix.Stats()

	// A new literal reaches the index through the feed: the successor
	// shares the predecessor's segment and adds one of its own.
	s6 := rdf.IRI(rdf.InstNS + "t6")
	st.Add("m", rdf.T(s6, rdf.HasName, rdf.Literal("customer_flag")))
	next := refresh(m, st)
	if len(next.segs) != 2 || next.segs[0] != ix.segs[0] || len(next.segs[1].lits) != 1 {
		t.Fatalf("successor has %d segments; want the predecessor's and one holding the new literal", len(next.segs))
	}
	if next.Gen() != st.Generation("m") {
		t.Errorf("updated index gen = %d, want %d", next.Gen(), st.Generation("m"))
	}
	if got := next.Search("customer", FieldName); len(got) != 4 {
		t.Errorf("new index missing customer_flag: %v", subjectsOf(st, got))
	}
	sameIndex(t, "after an add", next, build(st))
	// The predecessor still answers from its old state.
	if got := ix.Search("customer", FieldName); len(got) != 3 {
		t.Errorf("old index sees customer_flag: %v", subjectsOf(st, got))
	}
	if got := ix.Stats(); got != before {
		t.Errorf("old index stats changed: %+v -> %+v", before, got)
	}

	// A removal is not in the feed: the successor is built from scratch,
	// and the predecessor keeps what it had.
	st.Remove("m", rdf.T(rdf.IRI(rdf.InstNS+"t5"), rdf.HasName, rdf.Literal("partner_id")))
	after := refresh(m, st)
	if got := after.Search("partner", FieldName); len(got) != 0 {
		t.Errorf("new index still has partner_id: %v", subjectsOf(st, got))
	}
	if got := next.Search("partner", FieldName); len(got) != 1 {
		t.Errorf("old index lost partner_id: %v", subjectsOf(st, got))
	}
	sameIndex(t, "after a remove", after, build(st))

	// Nothing changed: the kept index is the answer.
	if same := refresh(m, st); same != after {
		t.Error("refresh of an unchanged model built a new index")
	}
}

// TestUpdateLearnsLateConfiguredPredicate is the regression test for the
// frozen-field-map bug: an index built before ANY triple of a configured
// predicate exists (so the predicate was not even interned at build
// time) must still pick that predicate's triples up when it is extended,
// not only through a full rebuild.
func TestUpdateLearnsLateConfiguredPredicate(t *testing.T) {
	st := store.New()
	s1 := rdf.IRI(rdf.InstNS + "t1")
	st.Add("m", rdf.T(s1, rdf.HasName, rdf.Literal("tcd100")))
	m := NewManager(Config{})
	refresh(m, st)

	// First description ever, added after the build.
	st.Add("m", rdf.T(s1, rdf.IRI(rdf.RDFSComment), rdf.Literal("customer segment marker")))
	extended := obsDeltaHist.Count()
	next := refresh(m, st)
	if obsDeltaHist.Count() != extended+1 {
		t.Fatal("successor was built from scratch, not extended from the feed")
	}
	if got := next.Search("marker", FieldDescription); len(got) != 1 {
		t.Errorf("description added after build: %d indexed matches, want 1", len(got))
	}

	// Same for the first rdfs:label.
	st.Add("m", rdf.T(s1, rdf.Label, rdf.Literal("Segment Marker Column")))
	next2 := refresh(m, st)
	if got := next2.Search("segment", FieldName); len(got) != 1 {
		t.Errorf("label added after build: %d indexed matches, want 1", len(got))
	}
	sameIndex(t, "after two late predicates", next2, build(st))
}

// The index a Manager keeps by extension must be, at every step, the one
// BuildPostings makes from scratch over the same pinned view — over a
// base model that only grows and a derived model published by
// InstallExtension, whose removed list holds the literals the base now
// asserts itself (they move between members and stay in the view) and,
// now and then, one that leaves the view for good; with a predicate first
// used long after the first build; and across a Remove, which the feed
// answers with "everything".
func TestExtendedEqualsBuiltFromScratch(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := store.New()
		dict := st.Dict()
		mgr := NewManager(Config{})
		name := func(i int) rdf.Triple {
			words := []string{"customer", "client", "partner", "account", "tcd100", "v", "id", "flag"}
			text := fmt.Sprintf("%s_%s_%d", words[rng.Intn(len(words))], words[rng.Intn(len(words))], i)
			pred := rdf.HasName
			if i > 150 && rng.Intn(3) == 0 {
				pred = rdf.IRI(rdf.RDFSComment) // first used after many builds
			}
			return rdf.T(rdf.IRI(fmt.Sprintf("%sc%d", rdf.InstNS, rng.Intn(60))), pred, rdf.Literal(text))
		}
		st.AddAll("m", []rdf.Triple{name(0), name(1)})
		derived := store.NewModel("m$X")
		derived.SetBasis(st.Generation("m"))
		st.InstallModel(derived)
		extensions, rebuilds := 0, 0
		var prev *Index
		for step := 0; step < 40; step++ {
			var batch []rdf.Triple
			for i := rng.Intn(8); i >= 0; i-- {
				batch = append(batch, name(step*10+i))
			}
			st.AddAll("m", batch)
			switch rng.Intn(6) {
			case 0: // a literal leaves the base
				ts := st.Triples("m")
				st.Remove("m", ts[rng.Intn(len(ts))])
			case 1, 2: // the derived model gains labels, and loses what the base asserts now
				d := st.SnapshotDelta("m", "m$X")
				var added, removed []store.ETriple
				d.Derived.ForEach(store.Wildcard, store.Wildcard, store.Wildcard, func(t store.ETriple) bool {
					if d.Base.Contains(t) || rng.Intn(25) == 0 {
						removed = append(removed, t)
					}
					return true
				})
				for _, t := range removed {
					d.Derived.Remove(t)
				}
				for i := 0; i < 3; i++ {
					et := store.ETriple{S: dict.Intern(rdf.IRI(fmt.Sprintf("%sc%d", rdf.InstNS, rng.Intn(60)))),
						P: dict.Intern(rdf.Label), O: dict.Intern(rdf.Literal(fmt.Sprintf("derived label %d", rng.Intn(30))))}
					if !d.Base.Contains(et) && d.Derived.Add(et) {
						added = append(added, et)
					}
				}
				d.Derived.SetBasis(d.Base.Gen())
				st.InstallExtension(d.Derived, d.PrevGen, added, removed)
			case 3: // the base asserts something the derived model holds
				if ts := st.Triples("m$X"); len(ts) > 0 {
					st.Add("m", ts[rng.Intn(len(ts))])
				}
			}
			v := st.Snapshot("m", "m$X")
			ix := mgr.For("m", v, st)
			sameIndex(t, fmt.Sprintf("seed %d step %d", seed, step), ix, BuildPostings("m", v, dict, DefaultConfig().Fields(dict)))
			if prev != nil && len(ix.segs) > 0 && ix.segs[0] == prev.segs[0] {
				extensions++
			} else if prev != nil {
				rebuilds++
			}
			prev = ix
		}
		if extensions == 0 || rebuilds == 0 {
			t.Errorf("seed %d: %d extensions and %d rebuilds; the run must see both", seed, extensions, rebuilds)
		}
	}
}

func TestFoldUnicode(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Customer_ID", "customer_id"},
		{"plain ascii", "plain ascii"},
		{"ſecret", "secret"}, // long s — plain ToLower misses this
		{"Kelvin", "kelvin"}, // Kelvin sign
	}
	for _, c := range cases {
		if got := Fold(c.in); got != c.want {
			t.Errorf("Fold(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Index and query sides fold identically: a literal spelled with the
	// Kelvin sign is found by its ASCII spelling.
	st := store.New()
	st.Add("m", rdf.T(rdf.IRI(rdf.InstNS+"k"), rdf.HasName, rdf.Literal("temp_K_sensor")))
	ix := build(st)
	if got := ix.Search("K_sensor", FieldName); len(got) != 1 {
		t.Errorf("Search(K_sensor) = %d matches, want 1", len(got))
	}
}

func TestManagerCachesPerGeneration(t *testing.T) {
	st, _ := fixture(t)
	m := NewManager(Config{})

	old := st.Snapshot("m")
	ix := refresh(m, st)
	if ix.Gen() != st.Generation("m") {
		t.Fatalf("index at generation %d, model at %d", ix.Gen(), st.Generation("m"))
	}
	// Same generation: equal-generation callers see one pointer.
	if again := refresh(m, st); again != ix {
		t.Error("For rebuilt an index of the same generation")
	}
	// New generation: a refresh updates, and the result is the kept one.
	st.Add("m", rdf.T(rdf.IRI(rdf.InstNS+"t9"), rdf.HasName, rdf.Literal("fresh")))
	next := refresh(m, st)
	if next == ix || next.Gen() != st.Generation("m") {
		t.Error("refresh did not advance the index")
	}
	if refresh(m, st) != next {
		t.Error("the latest index is not the kept one")
	}
	// A reader still holding the older version gets the index of that
	// version, not the kept one.
	if back := m.For("m", old, st); back.Gen() != ix.Gen() || len(back.Search("fresh", FieldName)) != 0 {
		t.Errorf("index for the held snapshot is at generation %d and finds %d \"fresh\"; want generation %d and none",
			back.Gen(), len(back.Search("fresh", FieldName)), ix.Gen())
	}
	next = refresh(m, st)

	stats := m.StatsAll()
	if len(stats) != 1 || stats[0].Model != "m" || stats[0].Gen != st.Generation("m") {
		t.Errorf("StatsAll = %+v", stats)
	}
}

func TestStatsCounters(t *testing.T) {
	_, ix := fixture(t)
	st := ix.Stats()
	if st.Literals != 7 { // 5 names + 2 descriptions
		t.Errorf("Literals = %d, want 7", st.Literals)
	}
	// Every configured predicate is interned up front — including
	// rdfs:label, which has no triples in the fixture — so that triples
	// using it later are picked up by delta updates.
	if st.Predicates != 3 { // dm:hasName + rdfs:label + rdfs:comment
		t.Errorf("Predicates = %d, want 3", st.Predicates)
	}
	if st.Tokens == 0 || st.Postings < st.Literals {
		t.Errorf("Stats = %+v", st)
	}
}

// TestBuildMatchesScanOnRandomishCorpus cross-checks Search against a
// brute-force fold+contains scan over a generated corpus of literals.
func TestBuildMatchesScanOnRandomishCorpus(t *testing.T) {
	st := store.New()
	words := []string{"customer", "client", "partner", "account", "tcd100", "v", "id", "flag", "segment"}
	var texts []string
	for i := 0; i < 120; i++ {
		text := fmt.Sprintf("%s_%s_%d", words[i%len(words)], words[(i*7+3)%len(words)], i%10)
		texts = append(texts, text)
		st.Add("m", rdf.T(rdf.IRI(fmt.Sprintf("%sc%d", rdf.InstNS, i)), rdf.HasName, rdf.Literal(text)))
	}
	ix := build(st)
	for _, term := range []string{"customer", "CUST", "0_cl", "d_1", "tcd", "nope", "t_1", "1"} {
		want := 0
		for _, text := range texts {
			if containsFolded(text, term) {
				want++
			}
		}
		if got := len(ix.Search(term, FieldName)); got != want {
			t.Errorf("Search(%q) = %d matches, scan says %d", term, got, want)
		}
	}
}

func containsFolded(text, term string) bool {
	f, ft := Fold(text), Fold(term)
	for i := 0; i+len(ft) <= len(f); i++ {
		if f[i:i+len(ft)] == ft {
			return true
		}
	}
	return false
}
