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
package search

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"mdw/internal/dbpedia"
	"mdw/internal/metamodel"
	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/reason"
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
// (obs.ContextWithSpan), the root of a new trace otherwise.
func (s *Service) SearchCtx(ctx context.Context, term string, opt Options) (*Result, error) {
	if strings.TrimSpace(term) == "" {
		return nil, fmt.Errorf("search: empty term")
	}
	sp, ctx := obs.StartChildCtx(ctx, "search")
	sp.SetLabel("term", term)
	defer sp.Finish()
	defer obsSearchHist.ObserveSince(time.Now())

	// Term expansion (semantic search) and homonym hints.
	expanded := []string{strings.ToLower(term)}
	var homonyms []string
	if s.thesaurus != nil {
		homonyms = s.thesaurus.Homonyms(term)
		if opt.Semantic {
			expanded = s.thesaurus.Expand(term)
		}
	}

	v, err := reason.ViewCtx(ctx, s.st, true, s.model)
	if err != nil { // an entailed view fails for a missing model only
		return nil, fmt.Errorf("search: no such model %q", s.model)
	}
	var ix *textindex.Index
	if !opt.ForceScan {
		ix = s.tix.For(s.model, v, s.st)
	}
	return searchView(metamodel.NewGraph(v, s.st.Dict()), ix, term, expanded, homonyms, opt), nil
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

// searchView evaluates the query against one pinned view. ix is the
// full-text index over exactly that view, or nil to take the literal-scan
// path.
func searchView(k *metamodel.Graph, ix *textindex.Index,
	term string, expanded, homonyms []string, opt Options) *Result {
	// Steps 1+2: resolve the filter classes. Because instance membership
	// in superclasses is materialized in the index, requiring
	// (x rdf:type C) for every filter class IS the hierarchy-intersection
	// of Figure 5.
	filterIDs, known := k.ClassIDs(opt.FilterClasses)
	if !known {
		// Unknown class: nothing can match.
		return &Result{Term: term, Expanded: expanded, Homonyms: homonyms}
	}

	// Step 3: match named instances, names first, then (optionally)
	// descriptions. Both paths process the expanded terms in order, so a
	// hit is attributed to the first term that matches it; an instance
	// that fails the (term-independent) filters once is rejected for
	// good. Candidate generation differs, the accepted set does not.
	matched := map[store.ID]Hit{}
	rejected := map[store.ID]bool{}
	folded := make([]string, len(expanded))
	for i, t := range expanded {
		folded[i] = textindex.Fold(t)
	}

	admit := func(subj store.ID, text string, isName bool, termIdx int) {
		if _, done := matched[subj]; done || rejected[subj] {
			return
		}
		if !passesFilters(k, subj, filterIDs, opt) {
			rejected[subj] = true
			return
		}
		name := text
		if !isName {
			name = k.Name(subj)
		}
		matched[subj] = Hit{IRI: k.Dict.Term(subj), Name: name, Matched: expanded[termIdx]}
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
						admit(p.Subject, k.Dict.Term(p.Object).Value, isName, i)
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
				if _, done := matched[t.S]; done || rejected[t.S] {
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
				admit(subj, k.Dict.Term(obj).Value, isName, i)
			}
		}
	}
	match(k.HasName, textindex.FieldName, true)
	if opt.MatchDescriptions {
		match(k.Comment, textindex.FieldDescription, false)
	}

	// Group by every class the instance belongs to (via the index, so an
	// Application1_View_Column hit also appears under Attribute, Column,
	// etc. — exactly the multi-group behaviour of Figure 6). Hits are
	// sorted by name once up front, so appending in that order leaves
	// every group pre-sorted — cheaper than a per-group sort when one
	// instance lands in many inherited-class groups.
	type hitRef struct {
		id  store.ID
		hit Hit
	}
	order := make([]hitRef, 0, len(matched))
	for id, hit := range matched {
		order = append(order, hitRef{id, hit})
	}
	// Names tie (the same column name in many tables): the IRI decides,
	// so the hits a capped group shows do not depend on map order.
	sort.Slice(order, func(i, j int) bool {
		if order[i].hit.Name != order[j].hit.Name {
			return order[i].hit.Name < order[j].hit.Name
		}
		return order[i].hit.IRI.Value < order[j].hit.IRI.Value
	})

	// Accumulate int indexes into order rather than Hit values: a hit
	// lands in every inherited-class group, and regrowing []Hit (several
	// strings each) per group is the single hottest spot at paper scale.
	type protoGroup struct {
		group Group
		refs  []int32
	}
	groups := map[store.ID]*protoGroup{}
	skip := map[store.ID]bool{} // owl:Class and friends
	// One visitor for all hits, hi saying whose classes it sees: a closure
	// per hit, passed through the Source interface, is a heap allocation.
	var hi int
	addToGroup := func(t store.ETriple) bool {
		cls := t.O
		if skip[cls] {
			return true
		}
		g, ok := groups[cls]
		if !ok {
			clsTerm := k.Dict.Term(cls)
			if !strings.HasPrefix(clsTerm.Value, rdf.DMNS) {
				skip[cls] = true
				return true
			}
			g = &protoGroup{group: Group{Class: clsTerm, Label: k.Label(cls)}}
			groups[cls] = g
		}
		g.group.Count++
		if opt.MaxHitsPerGroup == 0 || len(g.refs) < opt.MaxHitsPerGroup {
			g.refs = append(g.refs, int32(hi))
		}
		return true
	}
	for hi = range order {
		k.Src.ForEach(order[hi].id, k.Type, store.Wildcard, addToGroup)
	}

	res := &Result{Term: term, Expanded: expanded, Homonyms: homonyms, Instances: len(matched)}
	for _, g := range groups {
		g.group.Hits = make([]Hit, len(g.refs))
		for i, hi := range g.refs {
			g.group.Hits[i] = order[hi].hit
		}
		res.Groups = append(res.Groups, g.group)
	}
	sort.Slice(res.Groups, func(i, j int) bool {
		if res.Groups[i].Label != res.Groups[j].Label {
			return res.Groups[i].Label < res.Groups[j].Label
		}
		return res.Groups[i].Class.Value < res.Groups[j].Class.Value
	})
	return res
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
