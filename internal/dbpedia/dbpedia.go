// Package dbpedia provides the synonym and homonym meta-data collections
// that the warehouse integrates per Section III.B: "The Credit Suisse
// meta-data warehouse incorporates meta-data collections from the DBpedia
// project ... That additional meta-data is used to derive additional
// edges between synonyms and homonyms in the meta-data graph."
//
// The real DBpedia dumps are external downloads; this package ships a
// synthetic banking-domain extract in the same RDF shape (redirect links
// for synonyms, disambiguation links for homonyms) and a Thesaurus that
// the search service uses to expand terms — the "semantic search" lesson
// of Section V.
package dbpedia

import (
	"sort"
	"strings"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// DBpedia-style link properties.
const (
	// Redirects marks synonym links (wiki redirects point alternate
	// titles at the canonical article).
	Redirects = "http://dbpedia.org/ontology/wikiPageRedirects"
	// Disambiguates marks homonym links (a disambiguation page lists the
	// different meanings of one term).
	Disambiguates = "http://dbpedia.org/ontology/wikiPageDisambiguates"
)

func res(name string) rdf.Term { return rdf.IRI(rdf.DBPNS + name) }

// Banking returns the synthetic banking-domain DBpedia extract: synonym
// clusters around the paper's running example (customer / client /
// partner) plus common financial vocabulary, and homonym links for
// ambiguous terms.
func Banking() []rdf.Triple {
	var out []rdf.Triple
	link := func(p string, a, b string) {
		out = append(out, rdf.T(res(a), rdf.IRI(p), res(b)))
	}
	label := func(a string) {
		out = append(out, rdf.T(res(a), rdf.Label, rdf.Literal(strings.ReplaceAll(a, "_", " "))))
	}
	syn := func(names ...string) {
		canonical := names[0]
		label(canonical)
		for _, n := range names[1:] {
			label(n)
			link(Redirects, n, canonical)
		}
	}
	hom := func(page string, meanings ...string) {
		label(page)
		for _, m := range meanings {
			label(m)
			link(Disambiguates, page, m)
		}
	}

	// Synonym clusters. The first name is the canonical article.
	syn("customer", "client", "patron", "account_holder")
	syn("partner", "counterparty", "business_partner")
	syn("transaction", "payment", "transfer")
	syn("account", "bank_account", "ledger_account")
	syn("instrument", "security", "financial_instrument")
	syn("portfolio", "holdings")
	syn("trade", "deal")
	syn("address", "domicile")
	syn("branch", "subsidiary", "office")
	syn("loan", "credit", "lending")
	syn("fee", "charge", "commission")
	syn("rating", "score")

	// Homonyms: the same surface term with different meanings.
	hom("interest", "interest_rate", "interest_stake")
	hom("position", "position_trading", "position_job")
	hom("margin", "margin_finance", "margin_profit")
	hom("security", "security_finance", "security_protection")

	return out
}

// Thesaurus answers synonym and homonym questions for plain terms.
type Thesaurus struct {
	syn map[string]map[string]bool
	hom map[string]map[string]bool
}

// FromTriples builds a thesaurus from a DBpedia-style extract. Synonymy
// is the symmetric-transitive closure of redirect links; homonymy links
// a disambiguation term to its meanings.
func FromTriples(ts []rdf.Triple) *Thesaurus {
	t := &Thesaurus{
		syn: map[string]map[string]bool{},
		hom: map[string]map[string]bool{},
	}
	// Union-find over redirect clusters.
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) { parent[find(a)] = find(b) }

	for _, tr := range ts {
		switch tr.P.Value {
		case Redirects:
			union(termOf(tr.S), termOf(tr.O))
		case Disambiguates:
			a, b := termOf(tr.S), termOf(tr.O)
			addPair(t.hom, a, b)
			addPair(t.hom, b, a)
		}
	}
	clusters := map[string][]string{}
	for x := range parent {
		r := find(x)
		clusters[r] = append(clusters[r], x)
	}
	for _, members := range clusters {
		for _, a := range members {
			for _, b := range members {
				if a != b {
					addPair(t.syn, a, b)
				}
			}
		}
	}
	return t
}

func termOf(t rdf.Term) string {
	return strings.ReplaceAll(strings.ToLower(rdf.LocalName(t.Value)), "_", " ")
}

func addPair(m map[string]map[string]bool, a, b string) {
	set, ok := m[a]
	if !ok {
		set = map[string]bool{}
		m[a] = set
	}
	set[b] = true
}

// Synonyms returns the synonyms of term (term itself excluded), sorted.
func (t *Thesaurus) Synonyms(term string) []string {
	return sorted(t.syn[normalize(term)])
}

// Homonyms returns the alternative meanings linked to term, sorted.
func (t *Thesaurus) Homonyms(term string) []string {
	return sorted(t.hom[normalize(term)])
}

// Expand returns the search expansion of term: the term itself plus all
// synonyms.
func (t *Thesaurus) Expand(term string) []string {
	out := []string{normalize(term)}
	return append(out, t.Synonyms(term)...)
}

func normalize(term string) string {
	return strings.ReplaceAll(strings.ToLower(strings.TrimSpace(term)), "_", " ")
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Integrate loads the extract into the named model of st and derives the
// warehouse's own synonym/homonym edges (mdw:synonymOf, mdw:homonymOf)
// between the DBpedia resource nodes, all of them in one write, increasing
// graph density exactly as Section III.B describes. It returns the number
// of triples added.
func Integrate(st *store.Store, model string, extract []rdf.Triple) int {
	n := st.AddAll(model, extract)
	th := FromTriples(extract)
	var edges []rdf.Triple
	link := func(pred string, rel map[string]map[string]bool) {
		for term, others := range rel {
			for o := range others {
				edges = append(edges, rdf.T(resFor(term), rdf.IRI(pred), resFor(o)))
			}
		}
	}
	link(rdf.MDWSynonymOf, th.syn)
	link(rdf.MDWHomonymOf, th.hom)
	return n + st.AddAll(model, edges)
}

func resFor(term string) rdf.Term {
	return res(strings.ReplaceAll(term, " ", "_"))
}
