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
//   - a sorted token list supports prefix and substring vocabulary
//     lookups, which is what makes the paper's *substring* match
//     semantics answerable from an index at all;
//   - queries are multi-term OR lookups (the synonym-expansion path of
//     Section V) whose candidates are verified against the original
//     literal text, so results are exactly those of the regexp scan;
//   - every index is keyed to a (model, generation) pair. The store
//     counts model mutations; when the underlying model has moved, the
//     index is rebuilt or delta-updated to the new generation, so the
//     current model and each historized release (internal/history) get
//     their own consistent index.
//
// Index values are immutable once published: UpdateWith returns a new Index
// sharing unchanged posting lists with its predecessor, so readers can
// keep querying an old generation lock-free while a writer installs the
// next one.
package textindex

import (
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

// Index is an immutable inverted full-text index over one model
// generation.
type Index struct {
	model string
	gen   uint64
	dict  *store.Dict
	field map[store.ID]Field   // indexed predicate -> field
	post  map[string][]Posting // token -> postings, sorted
	lits  map[Posting]struct{} // every indexed literal occurrence
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

// Collect gathers every (subject, predicate, object) occurrence of a
// field predicate in the view — possibly with duplicates when the view
// spans overlapping models; indexing is idempotent per occurrence.
// Objects are collected by their term value whatever their kind —
// exactly the text the scan path matches against — though in a
// well-formed warehouse they are literals. v is a pinned view
// (store.Snapshot), so neither this nor the tokenization that works from
// the returned slice (BuildPostings, UpdateWith) holds any store lock.
func Collect(v *store.View, field map[store.ID]Field) []Posting {
	var out []Posting
	for predID := range field {
		v.ForEach(store.Wildcard, predID, store.Wildcard, func(t store.ETriple) bool {
			out = append(out, Posting{Subject: t.S, Pred: t.P, Object: t.O})
			return true
		})
	}
	return out
}

// BuildPostings tokenizes the collected occurrences into a fresh index.
// It reads only dict (which has its own lock) and its arguments.
func BuildPostings(model string, gen uint64, dict *store.Dict, field map[store.ID]Field, posts []Posting) *Index {
	defer obsBuildHist.ObserveSince(time.Now())
	ix := &Index{
		model: model,
		gen:   gen,
		dict:  dict,
		field: field,
		post:  map[string][]Posting{},
		lits:  map[Posting]struct{}{},
		ftext: map[store.ID]string{},
	}
	for _, p := range posts {
		ix.add(p)
	}
	ix.rebuildTokens()
	ix.sortPostings(nil)
	return ix
}

// add inserts one literal occurrence (idempotent).
func (ix *Index) add(p Posting) {
	if _, dup := ix.lits[p]; dup {
		return
	}
	ix.lits[p] = struct{}{}
	folded := Fold(ix.dict.Term(p.Object).Value)
	ix.ftext[p.Object] = folded
	for _, tok := range uniqueTokens(Tokenize(folded)) {
		ix.post[tok] = append(ix.post[tok], p)
	}
}

// remove deletes one literal occurrence. Affected posting lists must be
// private to ix (UpdateWith copies them before calling remove). The ftext
// entry is kept: a dictionary ID never changes its term, so the cached
// folded text stays correct even if another posting still references it.
func (ix *Index) remove(p Posting) {
	delete(ix.lits, p)
	for _, tok := range uniqueTokens(Tokenize(Fold(ix.dict.Term(p.Object).Value))) {
		list := ix.post[tok]
		for i, q := range list {
			if q == p {
				list = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(list) == 0 {
			delete(ix.post, tok)
		} else {
			ix.post[tok] = list
		}
	}
}

func (ix *Index) rebuildTokens() {
	ix.toks = make([]string, 0, len(ix.post))
	for t := range ix.post {
		ix.toks = append(ix.toks, t)
	}
	sort.Strings(ix.toks)
}

// sortPostings orders the posting lists of the given tokens (all tokens
// when nil) by (Subject, Pred, Object) for deterministic query output.
func (ix *Index) sortPostings(tokens map[string]bool) {
	if tokens == nil {
		for _, list := range ix.post {
			sortPostingList(list)
		}
		return
	}
	for t := range tokens {
		if list, ok := ix.post[t]; ok {
			sortPostingList(list)
		}
	}
}

// UpdateWith returns an index at generation gen over posts — the complete
// occurrence set of the field predicates, as returned by Collect — reusing
// the receiver's postings for unchanged literals: the incremental
// maintenance path for the additive growth the paper describes (§III.A:
// meta-data only ever accumulates between releases). The receiver is not
// modified; in-flight queries against it stay valid. field becomes the
// successor's predicate map (it may be a superset of the receiver's —
// predicates configured but unseen when the receiver was built). It also
// reports how many literal occurrences were added and removed.
func (ix *Index) UpdateWith(gen uint64, field map[store.ID]Field, posts []Posting) (*Index, int, int) {
	defer obsDeltaHist.ObserveSince(time.Now())
	cur := make(map[Posting]struct{}, len(posts))
	for _, p := range posts {
		cur[p] = struct{}{}
	}

	var added, removed []Posting
	for p := range cur {
		if _, ok := ix.lits[p]; !ok {
			added = append(added, p)
		}
	}
	for p := range ix.lits {
		if _, ok := cur[p]; !ok {
			removed = append(removed, p)
		}
	}

	next := &Index{model: ix.model, gen: gen, dict: ix.dict, field: field}
	if len(added) == 0 && len(removed) == 0 {
		next.post, next.lits, next.ftext, next.toks = ix.post, ix.lits, ix.ftext, ix.toks
		return next, 0, 0
	}

	// Copy the containers; copy each touched posting list once, so the
	// untouched majority stays shared with the predecessor.
	next.lits = make(map[Posting]struct{}, len(ix.lits))
	for p := range ix.lits {
		next.lits[p] = struct{}{}
	}
	next.ftext = make(map[store.ID]string, len(ix.ftext))
	for id, f := range ix.ftext {
		next.ftext[id] = f
	}
	next.post = make(map[string][]Posting, len(ix.post))
	for t, list := range ix.post {
		next.post[t] = list
	}
	touched := map[string]bool{}
	copyTouched := func(p Posting) {
		for _, tok := range uniqueTokens(Tokenize(Fold(ix.dict.Term(p.Object).Value))) {
			if !touched[tok] {
				touched[tok] = true
				next.post[tok] = append([]Posting(nil), next.post[tok]...)
			}
		}
	}
	for _, p := range removed {
		copyTouched(p)
		next.remove(p)
	}
	for _, p := range added {
		copyTouched(p)
		next.add(p)
	}
	next.rebuildTokens()
	next.sortPostings(touched)
	return next, len(added), len(removed)
}

// Gen returns the model generation the index was built from.
func (ix *Index) Gen() uint64 { return ix.gen }

// TokensWithPrefix returns the indexed tokens starting with prefix
// (folded), in sorted order — the prefix-lookup path over the sorted
// vocabulary.
func (ix *Index) TokensWithPrefix(prefix string) []string {
	prefix = Fold(prefix)
	i := sort.SearchStrings(ix.toks, prefix)
	var out []string
	for ; i < len(ix.toks) && strings.HasPrefix(ix.toks[i], prefix); i++ {
		out = append(out, ix.toks[i])
	}
	return out
}

// TokensContaining returns the indexed tokens containing sub (folded) as
// a substring, in sorted order. This vocabulary scan — over tens of
// thousands of distinct tokens rather than millions of triples — is what
// turns the paper's substring semantics into an index lookup.
func (ix *Index) TokensContaining(sub string) []string {
	sub = Fold(sub)
	var out []string
	for _, t := range ix.toks {
		if strings.Contains(t, sub) {
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
	obsSearches.Inc()
	folded := Fold(term)
	if toks := uniqueTokens(Tokenize(folded)); len(toks) == 1 && toks[0] == folded {
		// Fast path: the term is one pure letter/digit run. Text tokens
		// are contiguous runs of the folded text, so any posting whose
		// vocabulary token contains the term already contains the term in
		// its text — candidates ARE matches, no verification needed.
		vts := ix.TokensContaining(folded)
		if len(vts) == 1 {
			list := ix.post[vts[0]] // pre-sorted
			out := make([]Posting, 0, len(list))
			for _, p := range list {
				if ix.field[p.Pred] == field {
					out = append(out, p)
				}
			}
			return out
		}
		seen := map[Posting]struct{}{}
		var out []Posting
		for _, vt := range vts {
			for _, p := range ix.post[vt] {
				if ix.field[p.Pred] != field {
					continue
				}
				if _, dup := seen[p]; !dup {
					seen[p] = struct{}{}
					out = append(out, p)
				}
			}
		}
		sortPostingList(out)
		return out
	}
	cands := ix.candidates(folded, field)
	out := cands[:0]
	for _, p := range cands {
		if strings.Contains(ix.ftext[p.Object], folded) {
			out = append(out, p)
		}
	}
	sortPostingList(out)
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
// contain the folded term: when the term occurs in a text, every token
// of the term is a substring of some token of that text, so intersecting
// the token-level candidate sets per term token is complete.
func (ix *Index) candidates(folded string, field Field) []Posting {
	toks := uniqueTokens(Tokenize(folded))
	if len(toks) == 0 {
		// No indexable characters (a term of separators only, or empty):
		// every literal of the field is a candidate.
		var out []Posting
		for p := range ix.lits {
			if ix.field[p.Pred] == field {
				out = append(out, p)
			}
		}
		return out
	}
	var cand map[Posting]struct{}
	for i, tk := range toks {
		set := map[Posting]struct{}{}
		for _, vt := range ix.TokensContaining(tk) {
			for _, p := range ix.post[vt] {
				if ix.field[p.Pred] != field {
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

// Stats summarizes one index for monitoring (the /api/stats endpoint and
// `mdw index`).
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
	n := 0
	for _, list := range ix.post {
		n += len(list)
	}
	return Stats{
		Model:      ix.model,
		Gen:        ix.gen,
		Predicates: len(ix.field),
		Literals:   len(ix.lits),
		Tokens:     len(ix.toks),
		Postings:   n,
	}
}
