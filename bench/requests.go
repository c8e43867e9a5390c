package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"net/url"
	"strings"
)

// Classes of timed operations: every latency is reported under one of
// these names. All but the last are requests.
const (
	ClassSearch     = "search"
	ClassLineage    = "lineage"
	ClassAudit      = "audit"
	ClassListing1   = "listing1"
	ClassListing2   = "listing2"
	ClassQueryPoint = "query_point"
	ClassQueryJoin  = "query_join"
	ClassQueryScan  = "query_scan"
	ClassLoad       = "load_batch"
	ClassVisible    = "release_visible"
	ClassCheckpoint = "checkpoint"
	ClassRecovery   = "recovery" // kill -9 to /readyz 200 on the data directory alone
)

// Classes lists every class in reporting order.
var Classes = []string{
	ClassSearch, ClassLineage, ClassAudit, ClassListing1, ClassListing2,
	ClassQueryPoint, ClassQueryJoin, ClassQueryScan,
	ClassLoad, ClassVisible, ClassCheckpoint, ClassRecovery,
}

// Request is one HTTP request plus what its reply must satisfy.
type Request struct {
	Class  string
	Method string
	// Path is the request target, query string included.
	Path string
	Body string
	// Verify is the per-reply check the timed loop runs: cheap (no JSON
	// decoding) and independent of JSON formatting and row order.
	Verify func(body []byte) error
	// Ordered is set when the query has an ORDER BY, so the golden digest
	// must keep the row order.
	Ordered bool
}

func get(class, path string, q url.Values, verify func([]byte) error) Request {
	return Request{Class: class, Method: "GET", Path: path + "?" + q.Encode(), Verify: verify}
}

// ClassCount is how many requests of a class one deal of a mix holds.
type ClassCount struct {
	Class string
	N     int
}

// A basket is the unit of work: one deal of a mix, a fixed number of
// requests of each class in seeded order, so that every run measures the
// same mix whatever its seed and a timed phase always ends on a basket
// boundary.
var (
	// PortalMix is one deal of portal_read: 45% search, 30% lineage, 10%
	// audit, 10% Listing 1, 5% Listing 2.
	PortalMix = []ClassCount{{ClassSearch, 9}, {ClassLineage, 6}, {ClassAudit, 2}, {ClassListing1, 2}, {ClassListing2, 1}}
	// AdhocMix is one deal of adhoc_query: 20 point lookups, 12 joins
	// and one full scan (61% / 36% / 3%).
	AdhocMix = []ClassCount{{ClassQueryPoint, 20}, {ClassQueryJoin, 12}, {ClassQueryScan, 1}}
)

// deck deals card numbers in seeded order: card i occurs weights[i]
// times per pass through the deck, and the deck is reshuffled when it
// runs out. Over a run every card comes up in proportion to its weight
// whatever the seed, which a seeded draw per request would only do on
// average: the seed chooses the order of the work, not its amount.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, weights []int) *deck {
	d := &deck{rng: rng}
	for card, w := range weights {
		for i := 0; i < w; i++ {
			d.cards = append(d.cards, card)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// zipfWeights returns n weights proportional to 1/rank^1.1, the first
// being top, none below 1.
func zipfWeights(n, top int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = max(1, int(math.Round(float64(top)/math.Pow(float64(i+1), 1.1))))
	}
	return w
}

// uniform returns n weights of 1.
func uniform(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Gen generates one connection's request sequence from the seed. Two
// generators with the same truth, seed and stream produce the same
// sequence.
type Gen struct {
	t   *Truth
	rng *rand.Rand
	// search deals (term, semantic) pairs: card 2k is term k plain, card
	// 2k+1 term k with synonym expansion.
	search, listing1, listing2, lineage, point, join *deck
	nonce                                            string
	n                                                int
	seqDigest                                        hash.Hash
}

// NewGen returns the generator of connection number stream.
func NewGen(t *Truth, seed int64, stream int) *Gen {
	rng := rand.New(rand.NewSource(seed*7919 + int64(stream)))
	var search []int
	for _, w := range zipfWeights(len(t.SearchTerms), 40) {
		search = append(search, (w+1)/2, w/2)
	}
	return &Gen{
		t:         t,
		rng:       rng,
		search:    newDeck(rng, search),
		listing1:  newDeck(rng, zipfWeights(len(t.ListingTerms), 8)),
		listing2:  newDeck(rng, uniform(len(t.ListingClasses))),
		lineage:   newDeck(rng, uniform(4)),
		point:     newDeck(rng, uniform(3)),
		join:      newDeck(rng, uniform(3)),
		nonce:     fmt.Sprintf("n%d.%d.", seed, stream),
		seqDigest: sha256.New(),
	}
}

// SequenceHash digests every request generated so far.
func (g *Gen) SequenceHash() string {
	return hex.EncodeToString(g.seqDigest.Sum(nil))
}

func (g *Gen) record(reqs []Request) []Request {
	for _, r := range reqs {
		io.WriteString(g.seqDigest, r.Method+" "+r.Path+"\n"+r.Body+"\n")
	}
	return reqs
}

// deal builds one deal of the given mix in seeded order.
func (g *Gen) deal(mix []ClassCount) []Request {
	var out []Request
	seen := map[string]bool{}
	for _, m := range mix {
		for i := 0; i < m.N; i++ {
			// No SEM_MATCH call twice in a deal, where the deck allows
			// it: after a load the second would be a results-cache hit,
			// and a deal would cost one or two misses by chance.
			r := g.request(m.Class)
			for try := 0; try < 8 && r.Body != "" && seen[r.Body]; try++ {
				r = g.request(m.Class)
			}
			seen[r.Body] = true
			out = append(out, r)
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return g.record(out)
}

// PortalDeal returns the next deal of the portal_read mix.
func (g *Gen) PortalDeal() []Request { return g.deal(PortalMix) }

// AdhocDeal returns the next deal of the adhoc_query mix.
func (g *Gen) AdhocDeal() []Request { return g.deal(AdhocMix) }

func (g *Gen) request(class string) Request {
	switch class {
	case ClassSearch:
		card := g.search.draw()
		return Search(g.t, g.t.SearchTerms[card/2], card%2 == 1)
	case ClassLineage:
		card := g.lineage.draw()
		return Lineage(g.t, g.rng.Intn(len(g.t.Chains)), card%2 == 0, card/2 == 0)
	case ClassAudit:
		return Audit(g.t, g.t.AuditChains[g.rng.Intn(len(g.t.AuditChains))])
	case ClassListing1:
		return Listing1(g.t.ListingTerms[g.listing1.draw()])
	case ClassListing2:
		return Listing2(g.t.ListingClasses[g.listing2.draw()])
	case ClassQueryPoint:
		return g.queryPoint()
	case ClassQueryJoin:
		return g.queryJoin()
	case ClassQueryScan:
		return g.queryScan()
	}
	panic("bench: no generator for class " + class)
}

// Search is GET /api/search: Figure 6.
func Search(t *Truth, term string, semantic bool) Request {
	q := url.Values{"term": []string{term}}
	if semantic {
		q.Set("semantic", "1")
	}
	return get(ClassSearch, "/api/search", q, func(body []byte) error {
		n, ok := fieldInt(body, "instances")
		switch {
		case !ok:
			return fmt.Errorf("search %q: no instances field", term)
		case t.NoHit[term] && n != 0:
			return fmt.Errorf("search %q: %d instances, want none", term, n)
		case !t.NoHit[term] && !semantic && n == 0:
			return fmt.Errorf("search %q: no instances", term)
		}
		return nil
	})
}

// Lineage is GET /api/lineage: Figure 8. Backward starts at the mart
// column of the chain and must reach its source; forward starts at the
// source and must reach the mart. At application level the same must
// hold for the applications that own the two columns.
func Lineage(t *Truth, chain int, backward, rollup bool) Request {
	c := t.Chains[chain]
	from, to, dir := c[len(c)-1], c[0], "backward"
	if !backward {
		from, to, dir = to, from, "forward"
	}
	q := url.Values{"item": []string{from}, "dir": []string{dir}, "level": []string{"attribute"}}
	if rollup {
		q.Set("level", "application")
		to = strings.SplitN(to, "/", 2)[0]
	}
	want := IRI(to)
	return get(ClassLineage, "/api/lineage", q, func(body []byte) error {
		if !hasString(body, "iri", want) {
			return fmt.Errorf("lineage %s of %s: %s missing", dir, from, want)
		}
		return nil
	})
}

// Audit is GET /api/audit on the mart column of the chain, lineage
// included.
func Audit(t *Truth, chain int) Request {
	item := t.Marts[chain]
	return get(ClassAudit, "/api/audit", url.Values{"item": []string{item}}, func(body []byte) error {
		if arrayEmpty(body, "users") {
			return fmt.Errorf("audit %s: no user", item)
		}
		return nil
	})
}

// The SEM_MATCH calls name one alias only: semmatch renders its aliases
// in map order, so a call with two aliases has two query texts and two
// results-cache entries, chosen at random per request.
const semTail = `,
  SEM_MODELS('DWH_CURR'),
  SEM_RULEBASES('OWLPRIME'),
  SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#')),
  null)`

// rowsMatch checks a Listing 1 reply: at least one row, and every term
// matches the regex, which is a plain word matched case-insensitively.
func rowsMatch(what, term string) func([]byte) error {
	lower := strings.ToLower(term)
	return func(body []byte) error {
		rows := 0
		var bad string
		eachString(body, "term", func(v []byte) {
			rows++
			if bad == "" && !strings.Contains(strings.ToLower(string(v)), lower) {
				bad = string(v)
			}
		})
		switch {
		case bad != "":
			return fmt.Errorf("%s %q: row term %q does not match", what, term, bad)
		case rows == 0:
			return fmt.Errorf("%s %q: no rows", what, term)
		}
		return nil
	}
}

// Listing1 is the paper's Listing 1 with its regexp_like condition as a
// FILTER, posted to /api/semmatch.
func Listing1(term string) Request {
	return Request{
		Class: ClassListing1, Method: "POST", Path: "/api/semmatch",
		Body: `SEM_MATCH(
  {?object rdf:type ?c .
   ?c rdfs:label ?class .
   ?object dm:hasName ?term .
   FILTER regex(?term, "` + term + `", "i")}` + semTail,
		Verify: rowsMatch("listing1", term),
	}
}

// Listing2 is the paper's Listing 2 bound to one target class.
func Listing2(class string) Request {
	return Request{
		Class: ClassListing2, Method: "POST", Path: "/api/semmatch",
		Body: `SEM_MATCH(
  {?source_id dt:isMappedTo ?target_id .
   ?target_id rdf:type dm:` + class + ` .
   ?target_id dm:hasName ?target_name}` + semTail,
		Verify: func(body []byte) error {
			if arrayEmpty(body, "rows") || !hasKey(body, "target_name") {
				return fmt.Errorf("listing2 %s: no rows", class)
			}
			return nil
		},
	}
}

// query is GET /api/query. Every adhoc_query text carries a constant no
// other request has, so no two share a results-cache key.
func (g *Gen) query(class, text, nonceVar string, verify func([]byte) error) Request {
	g.n++
	text = strings.Replace(text, "NONCE", fmt.Sprintf(`FILTER (STR(?%s) != "%s%d")`, nonceVar, g.nonce, g.n), 1)
	return get(class, "/api/query", url.Values{"q": []string{text}}, verify)
}

func wantValue(what, key, want string) func([]byte) error {
	return func(body []byte) error {
		if !hasString(body, key, want) {
			return fmt.Errorf("%s: %s missing", what, want)
		}
		return nil
	}
}

// queryPoint is one of three sub-millisecond shapes: all facts of one
// column, the transitive sources of a mart column, and the transitive
// targets of a source column.
func (g *Gen) queryPoint() Request {
	c := g.t.Chains[g.rng.Intn(len(g.t.Chains))]
	src, mart := c[0], c[len(c)-1]
	switch g.point.draw() {
	case 0:
		item := c[g.rng.Intn(len(c))]
		name := item[strings.LastIndexByte(item, '/')+1:]
		return g.query(ClassQueryPoint, "SELECT ?p ?o WHERE { <"+IRI(item)+"> ?p ?o . NONCE }", "o",
			wantValue("facts of "+item, "o", name))
	case 1:
		return g.query(ClassQueryPoint, "SELECT ?s WHERE { ?s dt:isMappedTo* <"+IRI(mart)+"> . NONCE }", "s",
			wantValue("sources of "+mart, "s", IRI(src)))
	default:
		return g.query(ClassQueryPoint, "SELECT ?o WHERE { <"+IRI(src)+"> dt:isMappedTo+ ?o . NONCE }", "o",
			wantValue("targets of "+src, "o", IRI(mart)))
	}
}

// queryJoin is one of three join shapes of a few milliseconds, bound to
// one application, schema or warehouse container: Listing 2 restricted
// to an application's columns, mapped columns counted per table of a
// schema, and the mapping rules that fill one warehouse container.
func (g *Gen) queryJoin() Request {
	nonEmpty := func(what string) func([]byte) error {
		return func(body []byte) error {
			if arrayEmpty(body, "rows") {
				return fmt.Errorf("%s: no rows", what)
			}
			return nil
		}
	}
	switch g.join.draw() {
	case 0:
		class := g.t.AppClasses[g.rng.Intn(len(g.t.AppClasses))]
		return g.query(ClassQueryJoin, "SELECT ?src ?tgt ?name WHERE { ?src rdf:type dm:"+class+
			" . ?src dt:isMappedTo ?in . ?in dt:isMappedTo ?tgt . ?tgt dm:hasName ?name . NONCE }", "name",
			func([]byte) error { return nil }) // an application may map nothing
	case 1:
		schema := g.t.Schemas[g.rng.Intn(len(g.t.Schemas))]
		return g.query(ClassQueryJoin, "SELECT ?tbl (COUNT(?col) AS ?n) WHERE { ?col dm:partOf ?tbl . ?tbl dm:partOf <"+
			IRI(schema)+"> . ?col dm:hasName ?name . NONCE } GROUP BY ?tbl", "name", nonEmpty("columns of "+schema))
	default:
		cont := g.t.Containers[g.rng.Intn(len(g.t.Containers))]
		return g.query(ClassQueryJoin, "SELECT ?tgt ?name ?rule WHERE { ?m dt:mapsTo ?tgt . ?tgt dm:partOf <"+
			IRI(cont)+"> . ?m dt:hasRuleCondition ?rule . ?tgt dm:hasName ?name . NONCE }", "name",
			func([]byte) error { return nil }) // a rule condition may be empty
	}
}

// queryScan matches an unanchored regex no other request uses, the name
// of one mart column, against every name in the graph and joins the
// classes of the matches. Nothing narrows the scan, and the planner
// starts it at the dm:hasName pattern, whose estimate is far above the
// threshold of the morsel-parallel plan. (Listing 1 itself is planned
// from its 264 class labels and stays serial; its uncached cost shows in
// release_cycle, where every load invalidates the cached result.)
func (g *Gen) queryScan() Request {
	mart := g.t.Marts[g.rng.Intn(len(g.t.Marts))]
	name := mart[strings.LastIndexByte(mart, '/')+1:]
	return g.query(ClassQueryScan, `SELECT ?object ?term ?c WHERE { ?object dm:hasName ?term . ?object rdf:type ?c . `+
		`FILTER regex(?term, "`+name+`", "i") . NONCE }`, "term", rowsMatch("scan", name))
}

// Load is POST /api/load of one N-Triples batch, all of whose triples
// are new.
func Load(batch string) Request {
	n := strings.Count(batch, "\n")
	return Request{Class: ClassLoad, Method: "POST", Path: "/api/load", Body: batch, Verify: func(body []byte) error {
		if added, ok := fieldInt(body, "added"); !ok || added != n {
			return fmt.Errorf("load: added %d of %d triples", added, n)
		}
		return nil
	}}
}

// Visible is the first read after a release is loaded: a search for a
// column name the release created. The search re-materializes the
// entailment index and updates the text index before it can answer.
func Visible(d *Delta) Request {
	return get(ClassVisible, "/api/search", url.Values{"term": []string{d.Probe}},
		wantValue(fmt.Sprintf("release %d", d.Release), "name", d.Probe))
}

// Checkpoint is POST /api/checkpoint.
func Checkpoint() Request {
	return Request{Class: ClassCheckpoint, Method: "POST", Path: "/api/checkpoint", Verify: func(body []byte) error {
		if n, ok := fieldInt(body, "triples"); !ok || n == 0 {
			return fmt.Errorf("checkpoint: no triples in snapshot")
		}
		return nil
	}}
}

// GoldenSet is the fixed request list of a workload whose replies are
// digested and compared with the committed digest. It does not depend on
// the seed. For portal_read it doubles as the warm-up: it issues every
// SEM_MATCH variant once, so the timed phase finds them in the results
// cache.
func GoldenSet(t *Truth, workload string) []Request {
	g := NewGen(t, 0, 0)
	g.nonce = "golden."
	var out []Request
	reads := func(listing1, listing2 int) {
		for _, term := range t.ListingTerms[:min(listing1, len(t.ListingTerms))] {
			out = append(out, Listing1(term))
		}
		for _, class := range t.ListingClasses[:min(listing2, len(t.ListingClasses))] {
			out = append(out, Listing2(class))
		}
		for i, term := range t.SearchTerms[:min(12, len(t.SearchTerms))] {
			// All hits, not the first ten of each group: which of several
			// items of one name make the first ten differs from one
			// server process to the next.
			s := Search(t, term, i%2 == 1)
			s.Path += "&hits=0"
			out = append(out, s)
		}
		for i := 0; i < 8; i++ {
			out = append(out, Lineage(t, i*len(t.Chains)/8, i%2 == 0, i%4 >= 2))
		}
		out = append(out, Audit(t, t.AuditChains[0]), Audit(t, t.AuditChains[len(t.AuditChains)/2]))
	}
	switch workload {
	case PortalRead:
		reads(len(t.ListingTerms), len(t.ListingClasses))
	case AdhocQuery:
		out = g.AdhocDeal()
	case ReleaseCycle:
		reads(1, 1)
	}
	return out
}
