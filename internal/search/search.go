// Package search implements the search facility of Section IV.A: the
// generic entry point through which business and IT users find meta-data
// items without knowing the warehouse's terminology.
//
// The algorithm follows the paper's three steps:
//
//  1. find the hierarchy classes relevant for the search (the user's
//     filter classes and everything below them);
//  2. intersect them to the valid meta-data schema result classes, which
//     also group the results (Figure 6);
//  3. find the instances of those classes — via rdf:type over the
//     OWLPRIME index, so class membership inherited through the
//     hierarchy counts — whose name matches the search term, exactly as
//     Listing 1 does with regexp_like(term, 'customer', 'i').
//
// The semantic extension of Section V is included: with a thesaurus the
// term is expanded by its DBpedia-derived synonyms before matching.
//
// Step 3 has two implementations with identical results:
//
//   - the default path looks candidates up in the inverted full-text
//     index of internal/textindex (O(matching tokens) per term);
//   - the scan path (Options.ForceScan) walks every name literal and
//     matches by case-folded substring — the paper's regexp_like
//     semantics verbatim, retained as the correctness oracle the
//     differential tests compare the index against.
//
// Either way a search runs against one pinned version of the graph
// (reason.ViewCtx): the base model cut at one generation, the OWLPRIME
// entailment index derived from exactly that cut, and the full-text
// index built — or extended from its predecessor by the store's change
// feed — over exactly that pair. All three are immutable, so the search holds no store lock
// and concurrent writers can neither tear its view nor wait for it;
// entailment and text-index maintenance are single-flighted per model,
// and a search that needs an index still being built waits for it.
//
// A search is two steps. compute derives an answer in dictionary IDs —
// the matches in (name, IRI) order and the class groups with their exact
// members — that depends only on the pinned view, the expanded terms and
// the filters; materialize decodes a fresh Result from it for one caller,
// applying MaxHitsPerGroup. The answer is kept in the process-wide
// results cache (internal/rescache) under the view's version, as
// Listing 1's rows are, so a repeated search against an unchanged graph
// only materializes. ForceScan neither reads nor fills the cache.
package search

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"mdw/internal/dbpedia"
	"mdw/internal/metamodel"
	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/rescache"
	"mdw/internal/store"
	"mdw/internal/textindex"
)

// Service answers meta-data searches over one model of a store.
type Service struct {
	st        *store.Store
	model     string
	thesaurus *dbpedia.Thesaurus
	tix       *textindex.Manager
}

// New returns a search service for the named model. The thesaurus is
// optional; without it Semantic searches fall back to plain matching.
// The service maintains its own full-text index; callers that share one
// warehouse across services should inject a shared manager with
// WithIndexManager so the index is built once.
func New(st *store.Store, model string, th *dbpedia.Thesaurus) *Service {
	return &Service{
		st:        st,
		model:     model,
		thesaurus: th,
		tix:       textindex.NewManager(textindex.Config{}),
	}
}

// WithIndexManager makes the service use the given (shared) full-text
// index manager instead of its private one and returns the service.
func (s *Service) WithIndexManager(m *textindex.Manager) *Service {
	if m != nil {
		s.tix = m
	}
	return s
}

// Options refine a search, mirroring the filters of the Figure 6
// frontend.
type Options struct {
	// FilterClasses restricts results to instances belonging to ALL of
	// the given classes (IRIs) — the intersection semantics the paper
	// describes for multiple inheritance.
	FilterClasses []string
	// Area restricts results to items contained (via dm:partOf) in a
	// container named Area — e.g. "inbound", "integration", "mart", the
	// stages of the data integration pipeline.
	Area string
	// Layer restricts results to items whose schema is on the given
	// abstraction level ("conceptual" or "physical").
	Layer string
	// Semantic expands the term with DBpedia synonyms (Section V).
	Semantic bool
	// MatchDescriptions also matches rdfs:comment texts, keeping
	// cryptic legacy names like "TCD100" findable.
	MatchDescriptions bool
	// Tag restricts results to items carrying the given governance tag
	// (the instance-to-value tag facts of Section III.B, e.g. "pii").
	Tag string
	// MaxHitsPerGroup caps the instances listed per class group
	// (0 = unlimited). Counts are always exact.
	MaxHitsPerGroup int
	// ForceScan bypasses the inverted full-text index and matches by
	// scanning every literal of the view — the paper's Listing 1
	// executed naively, kept as the correctness oracle for the indexed
	// path.
	ForceScan bool
}

// Hit is one matching instance.
type Hit struct {
	IRI  rdf.Term
	Name string
	// Matched is the expanded term that matched (equals the search term
	// unless synonym expansion kicked in).
	Matched string
}

// Group is one class bucket of the Figure 6 result list.
type Group struct {
	Class rdf.Term
	Label string
	Count int
	Hits  []Hit
}

// Result is a full search outcome.
type Result struct {
	Term string
	// Expanded lists the matched terms (the search term plus synonyms
	// when Semantic was requested).
	Expanded []string
	// Homonyms lists alternative meanings of the term from the DBpedia
	// disambiguation links — a "did you mean" hint the frontend shows so
	// users can disentangle ambiguous terms like "interest".
	Homonyms []string
	// Groups are the class buckets, sorted by label — the shape of the
	// Figure 6 screenshot.
	Groups []Group
	// Instances is the number of distinct matching instances.
	Instances int
}

// Search runs the three-step algorithm for term.
func (s *Service) Search(term string, opt Options) (*Result, error) {
	return s.SearchCtx(context.Background(), term, opt)
}

// SearchCtx is Search carrying a request context: the search runs under
// a "search" span — nested in the request's trace when ctx carries one
// (obs.ContextWithSpan), the root of a new trace otherwise — whose
// rescache label says whether the results cache held the answer.
func (s *Service) SearchCtx(ctx context.Context, term string, opt Options) (*Result, error) {
	if strings.TrimSpace(term) == "" {
		return nil, fmt.Errorf("search: empty term")
	}
	sp, ctx := obs.StartChildCtx(ctx, "search")
	sp.SetLabel("term", term)
	defer sp.Finish()
	defer obsSearchHist.ObserveSince(time.Now())

	expanded, homonyms := s.expand(term, opt)
	v, err := reason.ViewCtx(ctx, s.st, true, s.model)
	if err != nil { // an entailed view fails for a missing model only
		return nil, fmt.Errorf("search: no such model %q", s.model)
	}
	dict := s.st.Dict()
	// The answer is a function of the pinned view and the key's fields,
	// so one computed against this version serves every later search of
	// it. The ForceScan oracle always computes.
	rc := rescache.Default()
	var key string
	if rc != nil && !opt.ForceScan {
		key = cacheKey(v.Version(), expanded, opt)
		if a, ok := rc.Get(key); ok {
			sp.SetLabel("rescache", "hit")
			return a.(*answer).materialize(dict, term, expanded, homonyms, opt.MaxHitsPerGroup), nil
		}
		sp.SetLabel("rescache", "miss")
	}
	var ix *textindex.Index
	if !opt.ForceScan {
		ix = s.tix.For(s.model, v, s.st)
	}
	a := compute(metamodel.NewGraph(v, dict), ix, expanded, opt)
	if key != "" {
		rc.Put(key, a, a.size()+int64(len(key)))
	}
	return a.materialize(dict, term, expanded, homonyms, opt.MaxHitsPerGroup), nil
}

// expand returns the terms a search for term matches — the term, or with
// opt.Semantic and a thesaurus the term plus its synonyms — and the
// term's homonym hints.
func (s *Service) expand(term string, opt Options) (expanded, homonyms []string) {
	expanded = []string{strings.ToLower(term)}
	if s.thesaurus != nil {
		homonyms = s.thesaurus.Homonyms(term)
		if opt.Semantic {
			expanded = s.thesaurus.Expand(term)
		}
	}
	return expanded, homonyms
}

// EnsureIndex returns the full-text index over model ∪ its OWLPRIME
// entailment as of now, materializing the entailment and building or
// extending the index as needed. It fails only when the model is
// missing.
func EnsureIndex(st *store.Store, model string, mgr *textindex.Manager) (*textindex.Index, error) {
	v, err := reason.View(st, true, model)
	if err != nil {
		return nil, fmt.Errorf("search: no such model %q", model)
	}
	return mgr.For(model, v, st), nil
}

// cacheKey is the results-cache key of an answer: every input compute
// reads — the expanded terms (Semantic enters through them), the
// filters, MatchDescriptions — and the version of the pinned view, which
// names its models' instances and generations (store.View.Version), so a
// write, a re-derived entailment or a second store never shares a key.
// MaxHitsPerGroup and ForceScan are no inputs of the answer. Every
// string is quoted, so two different field lists never meet in one key.
func cacheKey(version string, expanded []string, opt Options) string {
	var b strings.Builder
	b.WriteString("search")
	for _, field := range [][]string{expanded, opt.FilterClasses,
		{opt.Area, opt.Layer, opt.Tag}, {strconv.FormatBool(opt.MatchDescriptions)}, {version}} {
		b.WriteByte(0)
		for _, s := range field {
			b.WriteString(strconv.Quote(s))
		}
	}
	return b.String()
}

// answer is a search outcome as dictionary IDs: what compute derives
// from the view, before the caller's cap and strings are applied. The
// results cache shares one answer among all searches of its key, so
// nothing writes an answer once compute has returned it.
type answer struct {
	// hits are the matching instances in (name, IRI) order.
	hits []idHit
	// groups are the class buckets in (label, class) order. The members
	// of group g are refs[g.from:g.to], indexes into hits in hits order.
	groups []idGroup
	refs   []int32
}

type idHit struct {
	// subj is the instance, name the literal Hit.Name shows — or
	// store.Wildcard for the local name of the instance's IRI.
	subj, name store.ID
	// term indexes the expanded term that matched.
	term int32
}

type idGroup struct {
	class    store.ID
	label    string
	from, to int32
}

// size is the answer's retained footprint for the cache's byte budget,
// counted from its slices' capacities. A label's bytes belong to the
// dictionary; only its header, inside idGroup, is the answer's.
func (a *answer) size() int64 {
	return int64(unsafe.Sizeof(*a)) +
		int64(cap(a.hits))*int64(unsafe.Sizeof(idHit{})) +
		int64(cap(a.groups))*int64(unsafe.Sizeof(idGroup{})) +
		int64(cap(a.refs))*int64(unsafe.Sizeof(int32(0)))
}

// materialize decodes a fresh Result from the answer for one caller:
// each group lists its first maxHits members (all of them for 0), its
// Count stays exact, and term, expanded and homonyms are the caller's.
// Only the hits shown are decoded.
func (a *answer) materialize(dict *store.Dict, term string, expanded, homonyms []string, maxHits int) *Result {
	res := &Result{Term: term, Expanded: expanded, Homonyms: homonyms, Instances: len(a.hits)}
	if len(a.groups) == 0 {
		return res
	}
	shown := func(g idGroup) []int32 {
		refs := a.refs[g.from:g.to]
		if maxHits != 0 && len(refs) > maxHits {
			refs = refs[:max(maxHits, 0)]
		}
		return refs
	}
	n := 0
	for _, g := range a.groups {
		n += len(shown(g))
	}
	// One backing array for every group's hits; each group's slice is
	// capped at its own length, so appending to one cannot reach the next.
	// A hit is listed in every group of its classes: it is decoded at its
	// first listing and copied from there (first[r] is that index + 1).
	all := make([]Hit, n)
	first := make([]int32, len(a.hits))
	res.Groups = make([]Group, len(a.groups))
	at := 0
	for gi, g := range a.groups {
		refs := shown(g)
		gh := all[at : at+len(refs) : at+len(refs)]
		for i, r := range refs {
			if f := first[r]; f != 0 {
				gh[i] = all[f-1]
				continue
			}
			h := a.hits[r]
			gh[i] = Hit{IRI: dict.Term(h.subj), Name: metamodel.DecodeOr(dict, h.name, h.subj), Matched: expanded[h.term]}
			first[r] = int32(at+i) + 1
		}
		at += len(refs)
		res.Groups[gi] = Group{Class: dict.Term(g.class), Label: g.label, Count: int(g.to - g.from), Hits: gh}
	}
	return res
}

// compute evaluates the search against one pinned view. ix is the
// full-text index over exactly that view, or nil to take the literal-scan
// path.
func compute(k *metamodel.Graph, ix *textindex.Index, expanded []string, opt Options) *answer {
	// Steps 1+2: resolve the filter classes. Because instance membership
	// in superclasses is materialized in the index, requiring
	// (x rdf:type C) for every filter class IS the hierarchy-intersection
	// of Figure 5.
	filterIDs, known := k.ClassIDs(opt.FilterClasses)
	if !known {
		// Unknown class: nothing can match.
		return &answer{}
	}

	// Step 3: match named instances, names first, then (optionally)
	// descriptions. Both paths process the expanded terms in order, so a
	// hit is attributed to the first term that matches it; an instance
	// that fails the (term-independent) filters once is rejected for
	// good. Candidate generation differs, the accepted set does not.
	type namedHit struct {
		name string
		hit  idHit
	}
	var found []namedHit
	seen := map[store.ID]bool{} // admitted or rejected
	folded := make([]string, len(expanded))
	for i, t := range expanded {
		folded[i] = textindex.Fold(t)
	}

	admit := func(subj, text store.ID, isName bool, termIdx int) {
		if seen[subj] {
			return
		}
		seen[subj] = true
		if !passesFilters(k, subj, filterIDs, opt) {
			return
		}
		if !isName {
			text = k.NameID(subj)
		}
		found = append(found, namedHit{metamodel.DecodeOr(k.Dict, text, subj), idHit{subj, text, int32(termIdx)}})
	}

	match := func(predID store.ID, field textindex.Field, isName bool) {
		if predID == store.Wildcard {
			return
		}
		if ix != nil {
			// Indexed path: per term, the index returns exactly the
			// postings whose folded text contains the folded term. The
			// index also covers rdfs:label literals, so keep only the
			// predicate this pass matches (parity with the scan). Postings
			// arrive sorted by (Subject, Pred, Object), so when a subject
			// has several matching literals the lowest object ID supplies
			// Hit.Name — the scan path applies the same tie-break.
			for i := range expanded {
				for _, p := range ix.Search(expanded[i], field) {
					if p.Pred == predID {
						admit(p.Subject, p.Object, isName, i)
					}
				}
			}
			return
		}
		// Scan path: the paper's regexp_like(text, term, 'i') — the
		// patterns are always quoted literals, so case-folded substring
		// matching is equivalent and skips the regex machinery. Among a
		// subject's several matching literals the lowest object ID wins,
		// deterministically and in parity with the indexed path's sorted
		// postings (triple iteration order is not deterministic).
		for i := range folded {
			best := map[store.ID]store.ID{}
			k.Src.ForEach(store.Wildcard, predID, store.Wildcard, func(t store.ETriple) bool {
				if seen[t.S] {
					return true
				}
				if o, ok := best[t.S]; ok && o <= t.O {
					return true
				}
				if strings.Contains(textindex.Fold(k.Dict.Term(t.O).Value), folded[i]) {
					best[t.S] = t.O
				}
				return true
			})
			for subj, obj := range best {
				admit(subj, obj, isName, i)
			}
		}
	}
	match(k.HasName, textindex.FieldName, true)
	if opt.MatchDescriptions {
		match(k.Comment, textindex.FieldDescription, false)
	}

	// Names tie (the same column name in many tables): the IRI decides,
	// so the hits a capped group shows do not depend on map order.
	slices.SortFunc(found, func(x, y namedHit) int {
		if c := strings.Compare(x.name, y.name); c != 0 {
			return c
		}
		return strings.Compare(k.Dict.Term(x.hit.subj).Value, k.Dict.Term(y.hit.subj).Value)
	})
	a := &answer{hits: make([]idHit, len(found))}
	for i := range found {
		a.hits[i] = found[i].hit
	}

	// Group by every class the instance belongs to (via the index, so an
	// Application1_View_Column hit also appears under Attribute, Column,
	// etc. — exactly the multi-group behaviour of Figure 6). Walking the
	// hits in order leaves every group's refs in that order.
	type protoGroup struct {
		class store.ID
		label string
		refs  []int32
	}
	groups := map[store.ID]*protoGroup{} // nil: not a dm: class (owl:Class and friends)
	// One visitor for all hits, hi saying whose classes it sees: a closure
	// per hit, passed through the Source interface, is a heap allocation.
	var hi int
	addToGroup := func(t store.ETriple) bool {
		cls := t.O
		g, ok := groups[cls]
		if !ok {
			if strings.HasPrefix(k.Dict.Term(cls).Value, rdf.DMNS) {
				g = &protoGroup{class: cls, label: k.Label(cls)}
			}
			groups[cls] = g
		}
		if g != nil {
			g.refs = append(g.refs, int32(hi))
		}
		return true
	}
	for hi = range a.hits {
		k.Src.ForEach(a.hits[hi].subj, k.Type, store.Wildcard, addToGroup)
	}

	// Flatten the groups, in (label, class) order, into exact-size slices.
	byLabel := make([]*protoGroup, 0, len(groups))
	refs := 0
	for _, g := range groups {
		if g != nil {
			byLabel = append(byLabel, g)
			refs += len(g.refs)
		}
	}
	slices.SortFunc(byLabel, func(x, y *protoGroup) int {
		if c := strings.Compare(x.label, y.label); c != 0 {
			return c
		}
		return strings.Compare(k.Dict.Term(x.class).Value, k.Dict.Term(y.class).Value)
	})
	a.groups = make([]idGroup, len(byLabel))
	a.refs = make([]int32, 0, refs)
	for i, g := range byLabel {
		from := int32(len(a.refs))
		a.refs = append(a.refs, g.refs...)
		a.groups[i] = idGroup{class: g.class, label: g.label, from: from, to: int32(len(a.refs))}
	}
	return a
}

// passesFilters applies the class-intersection, area, layer and tag
// filters.
func passesFilters(k *metamodel.Graph, inst store.ID, filterIDs []store.ID, opt Options) bool {
	return k.IsA(inst, filterIDs...) &&
		(opt.Area == "" || k.Under(inst, opt.Area)) &&
		(opt.Layer == "" || k.OnLayer(inst, opt.Layer)) &&
		(opt.Tag == "" || k.Tagged(inst, opt.Tag))
}

// FormatResult renders the result like the Figure 6 frontend: the class
// list with per-class counts.
func FormatResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Search Results for %q", r.Term)
	if len(r.Expanded) > 1 {
		fmt.Fprintf(&b, " (expanded: %s)", strings.Join(r.Expanded, ", "))
	}
	b.WriteByte('\n')
	if len(r.Homonyms) > 0 {
		fmt.Fprintf(&b, "  note: %q is ambiguous — other meanings: %s\n", r.Term, strings.Join(r.Homonyms, ", "))
	}
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "  %-28s (%d)\n", g.Label, g.Count)
	}
	fmt.Fprintf(&b, "  %d matching instances\n", r.Instances)
	return b.String()
}
