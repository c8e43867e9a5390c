// Package textindex implements the inverted full-text index that powers
// the search service of Section IV.A at scale.
//
// The paper's Listing 1 matches search terms against item names with
// regexp_like(name, term, 'i') — an O(total triples) scan per query. An
// enterprise meta-data warehouse cannot serve heavy search traffic that
// way; SODA (Blunschi et al., the follow-on system by the same group)
// and comparable metadata search engines instead maintain a dedicated
// inverted index over the graph's labels. This package is that index:
//
//   - the literal objects of a configurable set of predicates (item
//     names, labels, and descriptions by default) are tokenized and
//     case-folded into a token → posting-list map keyed by dictionary
//     IDs, so a posting costs three words;
//   - a sorted token list supports substring vocabulary lookups, which
//     is what makes the paper's *substring* match semantics answerable
//     from an index at all;
//   - queries are multi-term OR lookups (the synonym-expansion path of
//     Section V) whose candidates are verified against the original
//     literal text, so results are exactly those of the regexp scan;
//   - every index is over one pinned view (store.Snapshot) and records
//     which. When a search pins a later view, the index is extended to it
//     from the store's change feed (store.Changes) — or rebuilt, when the
//     feed cannot say what changed or a literal left the view — so the
//     current model and each historized release (internal/history) get
//     their own consistent index.
//
// Index values are immutable once published. An index is a short list of
// segments, each a complete inverted index over the literals it holds; a
// successor shares its predecessor's segments and adds one for what the
// view gained, so readers keep querying an old version lock-free while
// the next one is built beside it, at the cost of what changed.
package textindex

import (
	"slices"
	"sort"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// Field classifies an indexed predicate: names are always matched,
// descriptions only when the caller opts in (Options.MatchDescriptions
// in the search service).
type Field uint8

const (
	// FieldName marks predicates carrying item names and labels.
	FieldName Field = iota
	// FieldDescription marks predicates carrying descriptive text.
	FieldDescription
)

// Config selects the predicates whose objects are indexed.
type Config struct {
	// NamePredicates are the literal-valued predicates carrying item
	// names (FieldName). Empty slices select the defaults.
	NamePredicates []rdf.Term
	// DescriptionPredicates carry descriptive text (FieldDescription).
	DescriptionPredicates []rdf.Term
}

// DefaultConfig indexes dm:hasName and rdfs:label as names and
// rdfs:comment as descriptions.
func DefaultConfig() Config {
	return Config{
		NamePredicates:        []rdf.Term{rdf.HasName, rdf.Label},
		DescriptionPredicates: []rdf.Term{rdf.IRI(rdf.RDFSComment)},
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.NamePredicates == nil {
		c.NamePredicates = d.NamePredicates
	}
	if c.DescriptionPredicates == nil {
		c.DescriptionPredicates = d.DescriptionPredicates
	}
	return c
}

// Fields resolves the configured predicates to their dictionary IDs and
// returns the predicate → field map an index is built around. The
// predicates are interned, not looked up: a configured predicate with no
// triples yet (e.g. rdfs:comment before the first description is loaded)
// must still get an ID, otherwise it would be frozen out of the field
// map and every later delta update would silently skip its triples.
// Name predicates win when a predicate is configured as both.
func (c Config) Fields(dict *store.Dict) map[store.ID]Field {
	c = c.withDefaults()
	field := make(map[store.ID]Field, len(c.NamePredicates)+len(c.DescriptionPredicates))
	for _, p := range c.NamePredicates {
		field[dict.Intern(p)] = FieldName
	}
	for _, p := range c.DescriptionPredicates {
		id := dict.Intern(p)
		if _, taken := field[id]; !taken {
			field[id] = FieldDescription
		}
	}
	return field
}

// Posting locates one indexed literal: the subject carrying the text,
// the predicate it is attached with, and the literal's dictionary ID.
// A Posting identifies the literal occurrence, so it doubles as the
// document key of the index.
type Posting struct {
	Subject store.ID
	Pred    store.ID
	Object  store.ID
}

// Match is one OR-query result: the posting plus the index (into the
// query's term list) of the first term that matched it.
type Match struct {
	Posting
	Term int
}

// Index is an immutable inverted full-text index over one pinned view.
type Index struct {
	model string
	gen   uint64 // model's generation in the view
	// version is the View.Version() the index is over; cuts are that
	// view's members, the positions in their change feeds a successor is
	// extended from.
	version string
	cuts    []store.Cut
	dict    *store.Dict
	field   map[store.ID]Field // indexed predicate -> field
	// segs hold the literal occurrences, each in exactly one segment, the
	// oldest and largest segment first. A full build makes one; every
	// extension adds one and folds the small ones at the tail together
	// (see extend), so there are O(log literals) of them.
	segs []*segment
}

// segment is a complete inverted index over some of the literal
// occurrences of an Index. It is never modified once built, so any number
// of Index versions share it.
type segment struct {
	post  map[string][]Posting // token -> postings, sorted
	lits  map[Posting]struct{} // every literal occurrence held
	ftext map[store.ID]string  // literal ID -> folded text (verification)
	toks  []string             // sorted distinct tokens
}

// Fold canonicalizes text for matching. ASCII (the overwhelmingly
// common case for warehouse identifiers) is lowercased directly;
// anything else takes full Unicode case folding approximated as
// upper-then-lower, which sends the special casings plain lowercasing
// misses — ſ (U+017F) → s, the Kelvin sign K (U+212A) → k — to the same
// representative on both the index and the query side. Both the index
// and the retained scan path fold with this exact function, which is
// what guarantees result parity between them.
func Fold(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return strings.ToLower(strings.ToUpper(s))
		}
	}
	return strings.ToLower(s)
}

// Tokenize splits folded text into its maximal letter/digit runs, in
// order and with duplicates preserved.
func Tokenize(s string) []string {
	var out []string
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

func uniqueTokens(toks []string) []string {
	if len(toks) < 2 {
		return toks
	}
	seen := make(map[string]bool, len(toks))
	out := toks[:0]
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// collect gathers every (subject, predicate, object) occurrence of a
// field predicate in the view — possibly with duplicates when the view
// spans overlapping models; indexing is idempotent per occurrence.
// Objects are collected by their term value whatever their kind —
// exactly the text the scan path matches against — though in a
// well-formed warehouse they are literals.
func collect(v *store.View, field map[store.ID]Field) []Posting {
	var out []Posting
	for predID := range field {
		v.ForEach(store.Wildcard, predID, store.Wildcard, func(t store.ETriple) bool {
			out = append(out, Posting{Subject: t.S, Pred: t.P, Object: t.O})
			return true
		})
	}
	return out
}

// BuildPostings tokenizes the field predicates' literals of v, a pinned
// view (store.Snapshot) holding model, into a fresh index over exactly
// that view. It reads only v and dict (which has its own lock), so it
// holds no store lock.
func BuildPostings(model string, v *store.View, dict *store.Dict, field map[store.ID]Field) *Index {
	defer obsBuildHist.ObserveSince(time.Now())
	return &Index{
		model:   model,
		gen:     v.Cut(model).Gen,
		version: v.Version(),
		cuts:    v.Cuts(),
		dict:    dict,
		field:   field,
		segs:    []*segment{newSegment(dict, collect(v, field), nil)},
	}
}

// newSegment indexes the given occurrences, each once, leaving out those
// held reports as indexed already.
func newSegment(dict *store.Dict, posts []Posting, held func(Posting) bool) *segment {
	sg := &segment{
		post:  map[string][]Posting{},
		lits:  map[Posting]struct{}{},
		ftext: map[store.ID]string{},
	}
	for _, p := range posts {
		if _, dup := sg.lits[p]; dup || (held != nil && held(p)) {
			continue
		}
		sg.lits[p] = struct{}{}
		folded := Fold(dict.Term(p.Object).Value)
		sg.ftext[p.Object] = folded
		for _, tok := range uniqueTokens(Tokenize(folded)) {
			sg.post[tok] = append(sg.post[tok], p)
		}
	}
	sg.toks = make([]string, 0, len(sg.post))
	for t, list := range sg.post {
		sg.toks = append(sg.toks, t)
		sortPostingList(list)
	}
	sort.Strings(sg.toks)
	return sg
}

// mergeSegments returns one segment holding what a and b hold. Neither is
// modified: earlier Index versions keep reading them.
func mergeSegments(a, b *segment) *segment {
	sg := &segment{
		post:  make(map[string][]Posting, len(a.post)+len(b.post)),
		lits:  make(map[Posting]struct{}, len(a.lits)+len(b.lits)),
		ftext: make(map[store.ID]string, len(a.ftext)+len(b.ftext)),
		toks:  make([]string, 0, len(a.toks)+len(b.toks)),
	}
	for _, src := range []*segment{a, b} {
		for p := range src.lits {
			sg.lits[p] = struct{}{}
		}
		for id, f := range src.ftext {
			sg.ftext[id] = f
		}
	}
	for t, list := range a.post {
		sg.post[t] = list // shared until b has the token too
	}
	for t, list := range b.post {
		if mine, ok := sg.post[t]; ok {
			list = append(slices.Clone(mine), list...)
			sortPostingList(list)
		}
		sg.post[t] = list
	}
	sg.toks = append(append(sg.toks, a.toks...), b.toks...)
	sort.Strings(sg.toks)
	sg.toks = slices.Compact(sg.toks)
	return sg
}

// mergeRatio is how many times larger a segment must be than the one
// after it for the two to stay apart: sizes fall geometrically along the
// list, so an index of n literals has O(log n) segments and a literal is
// copied into a larger segment O(log n) times over its life.
const mergeRatio = 4

// extend returns the index over v, a later view of the same models, built
// from ix and what the models' change feeds say the view gained since;
// nil when it cannot be: the feed of a member does not reach back to ix
// (store.Changes answers "everything"), the members are not the same
// models, or a literal left the view, which a segment cannot express. ix
// is not modified, and the successor shares its segments.
func (ix *Index) extend(v *store.View, st *store.Store) *Index {
	t0 := time.Now()
	cuts := v.Cuts()
	if len(cuts) != len(ix.cuts) {
		return nil
	}
	var posts []Posting
	for i, upto := range cuts {
		added, removed, ok := st.Changes("textindex", ix.cuts[i], upto)
		if !ok {
			return nil
		}
		for _, t := range removed {
			// A triple that only moved between members (derived before,
			// asserted now) is still in the view and stays indexed.
			if _, indexed := ix.field[t.P]; indexed && !v.Contains(t) {
				return nil
			}
		}
		for _, t := range added {
			if _, indexed := ix.field[t.P]; indexed {
				posts = append(posts, Posting{Subject: t.S, Pred: t.P, Object: t.O})
			}
		}
	}
	next := &Index{model: ix.model, gen: v.Cut(ix.model).Gen, version: v.Version(), cuts: cuts,
		dict: ix.dict, field: ix.field, segs: ix.segs}
	if sg := newSegment(ix.dict, posts, ix.has); len(sg.lits) > 0 {
		segs := append(slices.Clone(ix.segs), sg)
		for n := len(segs); n >= 2 && len(segs[n-1].lits)*mergeRatio > len(segs[n-2].lits); n = len(segs) {
			segs = append(segs[:n-2], mergeSegments(segs[n-2], segs[n-1]))
		}
		next.segs = segs
	}
	obsDeltaHist.ObserveSince(t0)
	return next
}

// has reports whether the literal occurrence is indexed.
func (ix *Index) has(p Posting) bool {
	for _, sg := range ix.segs {
		if _, ok := sg.lits[p]; ok {
			return true
		}
	}
	return false
}

// Gen returns the model generation the index was built from.
func (ix *Index) Gen() uint64 { return ix.gen }

// tokensContaining returns the segment's tokens containing folded as a
// substring. This vocabulary scan — over tens of thousands of distinct
// tokens rather than millions of triples — is what turns the paper's
// substring semantics into an index lookup.
func (sg *segment) tokensContaining(folded string) []string {
	var out []string
	for _, t := range sg.toks {
		if strings.Contains(t, folded) {
			out = append(out, t)
		}
	}
	return out
}

// Search returns the postings of the given field whose literal text
// contains term under case-folded substring semantics — exactly the
// matches of the paper's regexp_like(text, term, 'i') scan. Results are
// sorted by (Subject, Pred, Object).
func (ix *Index) Search(term string, field Field) []Posting {
	folded := Fold(term)
	toks := uniqueTokens(Tokenize(folded))
	var out []Posting
	parts := 0 // segments that contributed
	for _, sg := range ix.segs {
		n := len(out)
		out = sg.search(out, folded, toks, field, ix.field)
		if len(out) > n {
			parts++
		}
	}
	if parts > 1 { // each segment's matches are sorted, their concatenation is not
		sortPostingList(out)
	}
	return out
}

// search appends the segment's matches for the folded term, whose tokens
// are toks, to out, sorted among themselves.
func (sg *segment) search(out []Posting, folded string, toks []string, field Field, fieldOf map[store.ID]Field) []Posting {
	n := len(out)
	if len(toks) == 1 && toks[0] == folded {
		// Fast path: the term is one pure letter/digit run. Text tokens
		// are contiguous runs of the folded text, so any posting whose
		// vocabulary token contains the term already contains the term in
		// its text — candidates ARE matches, no verification needed.
		vts := sg.tokensContaining(folded)
		if len(vts) == 1 {
			list := sg.post[vts[0]] // pre-sorted
			out = slices.Grow(out, len(list))
			for _, p := range list {
				if fieldOf[p.Pred] == field {
					out = append(out, p)
				}
			}
			return out
		}
		seen := map[Posting]struct{}{}
		for _, vt := range vts {
			for _, p := range sg.post[vt] {
				if fieldOf[p.Pred] != field {
					continue
				}
				if _, dup := seen[p]; !dup {
					seen[p] = struct{}{}
					out = append(out, p)
				}
			}
		}
	} else {
		for _, p := range sg.candidates(toks, field, fieldOf) {
			if strings.Contains(sg.ftext[p.Object], folded) {
				out = append(out, p)
			}
		}
	}
	sortPostingList(out[n:])
	return out
}

func sortPostingList(list []Posting) {
	sort.Slice(list, func(i, j int) bool {
		a, b := list[i], list[j]
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Pred != b.Pred {
			return a.Pred < b.Pred
		}
		return a.Object < b.Object
	})
}

// candidates returns a superset of the field's postings whose text can
// contain a term with the given tokens: when the term occurs in a text,
// every token of the term is a substring of some token of that text, so
// intersecting the token-level candidate sets per term token is complete.
func (sg *segment) candidates(toks []string, field Field, fieldOf map[store.ID]Field) []Posting {
	if len(toks) == 0 {
		// No indexable characters (a term of separators only, or empty):
		// every literal of the field is a candidate.
		var out []Posting
		for p := range sg.lits {
			if fieldOf[p.Pred] == field {
				out = append(out, p)
			}
		}
		return out
	}
	var cand map[Posting]struct{}
	for i, tk := range toks {
		set := map[Posting]struct{}{}
		for _, vt := range sg.tokensContaining(tk) {
			for _, p := range sg.post[vt] {
				if fieldOf[p.Pred] != field {
					continue
				}
				if i == 0 {
					set[p] = struct{}{}
				} else if _, ok := cand[p]; ok {
					set[p] = struct{}{}
				}
			}
		}
		cand = set
		if len(cand) == 0 {
			return nil
		}
	}
	out := make([]Posting, 0, len(cand))
	for p := range cand {
		out = append(out, p)
	}
	return out
}

// SearchAny runs a multi-term OR query (the synonym-expansion shape of
// Section V): each literal is reported once, attributed to the first
// term in terms order that matches it. Results are ordered by term
// index, then (Subject, Pred, Object).
func (ix *Index) SearchAny(terms []string, field Field) []Match {
	seen := map[Posting]bool{}
	var out []Match
	for i, t := range terms {
		for _, p := range ix.Search(t, field) {
			if !seen[p] {
				seen[p] = true
				out = append(out, Match{Posting: p, Term: i})
			}
		}
	}
	return out
}

// Stats summarizes one index for monitoring (the /api/stats endpoint).
type Stats struct {
	Model      string `json:"model"`
	Gen        uint64 `json:"generation"`
	Predicates int    `json:"predicates"`
	Literals   int    `json:"literals"`
	Tokens     int    `json:"tokens"`
	Postings   int    `json:"postings"`
}

// Stats returns the index's size counters.
func (ix *Index) Stats() Stats {
	s := Stats{Model: ix.model, Gen: ix.gen, Predicates: len(ix.field)}
	for i, sg := range ix.segs {
		s.Literals += len(sg.lits)
		for t, list := range sg.post {
			s.Postings += len(list)
			if !slices.ContainsFunc(ix.segs[:i], func(older *segment) bool { _, ok := older.post[t]; return ok }) {
				s.Tokens++
			}
		}
	}
	return s
}
