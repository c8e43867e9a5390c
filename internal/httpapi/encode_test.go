package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mdw/internal/core"
	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/rescache"
	"mdw/internal/sparql"
)

// nastyStrings are the values the escaper must get exactly right: the
// JSON metacharacters, encoding/json's HTML escapes, every kind of
// control byte, the two JavaScript line separators, invalid UTF-8 in
// several positions, and runes outside the BMP.
var nastyStrings = []string{
	"", "plain", "customer_id", `say "hi"`, `back\slash`, `\"`, "<script>&amp;</script>",
	"tab\there", "line\nfeed", "cr\rlf\n", "bell\a", "\b\f", "\x00", "\x1f", "\x7f",
	"z\u00fcrich", "\u65e5\u672c\u8a9e", "\u2028", "a\u2029b", "\u2027\u202a", "\ufffd", "\U0001F600", "\U0001D4B3 marks \U0001F3E6",
	"\xff", "ok\xc3", "\xc3\x28", "\xe2\x80", "\xe2\x80\xa8", "\xf0\x9f\x98", "\xed\xa0\x80", "a\x80b\xbfc",
	"http://www.credit-suisse.com/dwh/mdm/data_modeling#Attribute",
	`"Balance <CHF> & more"@en`,
}

func nasty(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return string(b)
	}
	s := nastyStrings[rng.Intn(len(nastyStrings))]
	if rng.Intn(3) == 0 {
		s += nastyStrings[rng.Intn(len(nastyStrings))]
	}
	return s
}

// oldResponse is the response path serveResult replaced, kept as the
// oracle: every row copied into a map[string]string, the whole
// QueryResponse handed to encoding/json. An engine result of a SELECT
// always has Vars; ASK and CONSTRUCT results have none and no rows.
func oldResponse(res *sparql.Result, stats *sparql.ExecStats) QueryResponse {
	resp := QueryResponse{Vars: res.Vars}
	if stats != nil {
		resp.Stats = stats
		resp.AnalyzedPlan = stats.String()
	}
	rows := res.Len()
	if len(res.Triples) > 0 {
		for _, tr := range res.Triples {
			resp.Triples = append(resp.Triples, tr.NTriple())
		}
	} else if len(res.Vars) == 0 && rows == 0 {
		ask := res.Ask
		resp.Ask = &ask
	}
	for i := 0; i < rows; i++ {
		row := map[string]string{}
		for v, t := range res.Row(i) {
			row[v] = t.Value
		}
		resp.Rows = append(resp.Rows, row)
	}
	return resp
}

// Predicates of the nasty warehouse: a name, a link between subjects, a
// number, and one that no triple uses.
var (
	pName = rdf.IRI(rdf.InstNS + "name")
	pLink = rdf.IRI(rdf.InstNS + "link")
	pNum  = rdf.IRI(rdf.InstNS + "num")
	pNone = rdf.IRI(rdf.InstNS + "none")
)

// nastyWarehouse holds 40 subjects, some with awkward IRIs, named with
// nasty strings (some twice, some not at all), linked at random and
// numbered.
func nastyWarehouse(rng *rand.Rand) *core.Warehouse {
	subj := make([]rdf.Term, 40)
	for i := range subj {
		subj[i] = rdf.IRI(rdf.InstNS + "s" + strconv.Itoa(i))
		if i%3 == 0 {
			subj[i] = rdf.IRI(nasty(rng))
		}
	}
	var ts []rdf.Triple
	for i, s := range subj {
		for k := rng.Intn(3); k > 0; k-- {
			ts = append(ts, rdf.T(s, pName, rdf.Literal(nasty(rng))))
		}
		if rng.Intn(2) == 0 {
			ts = append(ts, rdf.T(s, pLink, subj[rng.Intn(len(subj))]))
		}
		ts = append(ts, rdf.T(s, pNum, rdf.Integer(int64(i%7))))
	}
	w := core.New("")
	w.LoadTriples(ts)
	return w
}

// randomQuery draws a query whose result is of a random kind: SELECT
// (OPTIONAL-unbound columns, a variable projected twice, SELECT *,
// COUNTs, DISTINCT, ORDER BY with LIMIT, no solutions), ASK or
// CONSTRUCT.
func randomQuery(rng *rand.Rand) string {
	name, link, num, none := "<"+pName.Value+">", "<"+pLink.Value+">", "<"+pNum.Value+">", "<"+pNone.Value+">"
	qs := []string{
		`SELECT ?s ?n WHERE { ?s ` + name + ` ?n }`,
		`SELECT DISTINCT ?n ?s ?n WHERE { ?s ` + name + ` ?n }`,
		`SELECT ?s ?o ?n WHERE { ?s ` + link + ` ?o OPTIONAL { ?o ` + name + ` ?n } }`,
		`SELECT * WHERE { ?s ` + num + ` ?v OPTIONAL { ?s ` + link + ` ?o } }`,
		`SELECT ?s WHERE { ?s ` + none + ` ?o }`,
		`SELECT ?v (COUNT(?s) AS ?c) WHERE { ?s ` + num + ` ?v } GROUP BY ?v`,
		`SELECT DISTINCT (COUNT(?o) AS ?c) WHERE { ?s ` + link + ` ?o } GROUP BY ?s`,
		`SELECT ?n ?s WHERE { ?s ` + name + ` ?n } ORDER BY DESC(?n) LIMIT ` + strconv.Itoa(1+rng.Intn(8)),
		`ASK { ?s ` + link + ` ?o }`,
		`ASK { ?s ` + none + ` ?o }`,
		`CONSTRUCT { ?o ` + name + ` ?n } WHERE { ?s ` + link + ` ?o . ?s ` + name + ` ?n }`,
	}
	return qs[rng.Intn(len(qs))]
}

// analyzedStats runs a few queries under EXPLAIN ANALYZE so the
// differential test has real stats trees to attach.
func analyzedStats(t *testing.T) []*sparql.ExecStats {
	t.Helper()
	w := core.New("")
	w.LoadTriples([]rdf.Triple{
		rdf.T(rdf.IRI(rdf.InstNS+"a"), rdf.HasName, rdf.Literal("a <1> & \"2\"")),
		rdf.T(rdf.IRI(rdf.InstNS+"b"), rdf.HasName, rdf.Literal("b")),
		rdf.T(rdf.IRI(rdf.InstNS+"a"), rdf.IsMappedTo, rdf.IRI(rdf.InstNS+"b")),
	})
	var out []*sparql.ExecStats
	for _, q := range []string{
		`SELECT ?s ?n WHERE { ?s <` + rdf.HasName.Value + `> ?n }`,
		`SELECT DISTINCT ?s WHERE { ?s ?p ?o . OPTIONAL { ?o <` + rdf.HasName.Value + `> ?n } FILTER regex(?n, "<b>") }`,
		`ASK { ?s <` + rdf.IsMappedTo.Value + `>+ ?o }`,
	} {
		resp, err := w.Query(context.Background(), q, core.QueryOptions{Analyze: true})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, resp.Stats)
	}
	return out
}

// TestStreamedResultMatchesEncodingJSON is the differential test of the
// encoder: random queries of every kind over nasty data, each answered
// three ways — streamed (the miss), into the cached reply (the first
// hit) and written from it (a later hit) — with and without analyze
// stats. Every body is the compact encoding/json rendering of the old
// QueryResponse, byte for byte, and therefore decodes to the same value.
func TestStreamedResultMatchesEncodingJSON(t *testing.T) {
	stats := analyzedStats(t)
	rng := rand.New(rand.NewSource(14))
	w := nastyWarehouse(rng)
	kinds := map[string]int{}
	for i := 0; i < 300; i++ {
		q := randomQuery(rng)
		var st *sparql.ExecStats
		if i%4 == 3 {
			st = stats[rng.Intn(len(stats))]
		}
		rescache.Default().Purge()
		var first []byte
		for way, name := range []string{"streamed", "into the cached reply", "written from it"} {
			resp, err := w.Query(context.Background(), q, core.QueryOptions{})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			res := resp.Result
			if cached := res.EncodedJSON() != nil; cached != (way > 0 && !strings.Contains(q, "CONSTRUCT")) {
				t.Fatalf("%s, %s: result holds an encoded reply = %v", q, name, cached)
			}
			want, err := json.Marshal(oldResponse(res, st))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n') // json.Encoder ends the value with a newline

			rec := httptest.NewRecorder()
			serveResult(rec, httptest.NewRequest("GET", "/api/query", nil), res, st)
			got := rec.Body.Bytes()
			if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%s: status %d, content type %q", q, rec.Code, rec.Header().Get("Content-Type"))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %s:\ngot  %s\nwant %s", q, name, got, want)
			}
			if way == 0 {
				first = got
			} else if !bytes.Equal(got, first) {
				t.Fatalf("%s: %s differs from the streamed body", q, name)
			}
			if way > 0 {
				continue
			}
			switch {
			case len(res.Triples) > 0:
				kinds["construct"]++
			case res.Vars == nil:
				kinds["ask"]++
			case res.Len() == 0:
				kinds["no rows"]++
			default:
				kinds["rows"]++
				if strings.Contains(q, "COUNT") {
					kinds["computed"]++
				}
				keys := map[string]bool{}
				for _, v := range res.Vars {
					keys[v] = true
				}
				if len(res.Row(0)) < len(keys) {
					kinds["unbound"]++
				}
			}
			if st != nil {
				kinds["analyze"]++
			}
		}
	}
	t.Logf("results by kind: %v", kinds)
	for _, k := range []string{"construct", "ask", "no rows", "rows", "analyze", "computed", "unbound"} {
		if kinds[k] < 10 {
			t.Errorf("only %d generated results of kind %q: %v", kinds[k], k, kinds)
		}
	}
}

// TestStreamedResultSpansFlushes covers what the small generated results
// cannot: a body of many buffers, against the same oracle.
func TestStreamedResultSpansFlushes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ts := make([]rdf.Triple, 5000)
	for i := range ts {
		ts[i] = rdf.T(rdf.IRI(rdf.InstNS+"o"+strconv.Itoa(i)), pName, rdf.Literal(nasty(rng)+strconv.Itoa(i)))
	}
	w := core.New("")
	w.LoadTriples(ts)
	resp, err := w.Query(context.Background(), `SELECT ?object ?class ?term WHERE { ?object <`+pName.Value+`> ?term }`, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(oldResponse(resp.Result, nil))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	n, err := writeResult(&got, resp.Result, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != got.Len() || got.Len() < 4*streamFlushAt {
		t.Fatalf("reported %d bytes, wrote %d; want several buffers of %d", n, got.Len(), streamFlushAt)
	}
	if !bytes.Equal(got.Bytes(), append(want, '\n')) {
		t.Fatal("a multi-buffer body differs from encoding/json's")
	}
}

// TestEncodeStopsWhenFlushFails: once flush reports the reader gone,
// AppendJSON encodes no further row or triple, so a handler whose
// client left stops working.
func TestEncodeStopsWhenFlushFails(t *testing.T) {
	ts := make([]rdf.Triple, 100)
	for i := range ts {
		ts[i] = rdf.T(rdf.IRI(rdf.InstNS+"o"+strconv.Itoa(i)), pName, rdf.Literal("n"+strconv.Itoa(i)))
	}
	w := core.New("")
	w.LoadTriples(ts)
	for _, q := range []string{
		`SELECT ?o ?n WHERE { ?o <` + pName.Value + `> ?n }`,
		`CONSTRUCT { ?o <` + pName.Value + `> ?n } WHERE { ?o <` + pName.Value + `> ?n }`,
	} {
		resp, err := w.Query(context.Background(), q, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		flushes := 0
		_, ok := resp.Result.AppendJSON(nil, func(b []byte) ([]byte, bool) {
			flushes++
			return b[:0], flushes < 3
		})
		if ok || flushes != 3 {
			t.Errorf("%s: flush failed on call 3; AppendJSON went on to %d calls and reported ok=%v", q, flushes, ok)
		}
	}
}

func checkJSONString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := sparql.AppendJSONString(nil, s); !bytes.Equal(got, want) {
		t.Errorf("AppendJSONString(%q) = %s, encoding/json writes %s", s, got, want)
	}
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range nastyStrings {
		checkJSONString(t, s)
	}
	for b := 0; b < 256; b++ {
		checkJSONString(t, "x"+string([]byte{byte(b)})+"y")
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 2000; i++ {
		checkJSONString(t, nasty(rng)+nasty(rng))
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range nastyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkJSONString(t, s) })
}

// namesServer serves a warehouse of n named items; the returned path
// selects them all (n rows, two columns).
func namesServer(n int) (*Server, string) {
	w := core.New("")
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.T(rdf.IRI(rdf.InstNS+"item"+strconv.Itoa(i)), rdf.HasName, rdf.Literal("name <"+strconv.Itoa(i)+">"))
	}
	w.LoadTriples(ts)
	q := `SELECT ?s ?n WHERE { ?s <` + rdf.HasName.Value + `> ?n }`
	return NewServer(w), "/api/query?q=" + url.QueryEscape(q)
}

// discard is a ResponseWriter that counts the body and keeps nothing, so
// that the allocation test sees the server's allocations and not a
// recorder's growing buffer.
type discard struct {
	h      http.Header
	n      int
	writes int
	// failAfter, when positive, makes every Write past that many bytes
	// fail the way a closed connection does.
	failAfter int
}

func (d *discard) Header() http.Header { return d.h }
func (d *discard) WriteHeader(int)     {}
func (d *discard) Write(b []byte) (int, error) {
	d.writes++
	if d.failAfter > 0 && d.n+len(b) > d.failAfter {
		return 0, errors.New("write: broken pipe")
	}
	d.n += len(b)
	return len(b), nil
}

// TestCachedHitAllocationsIndependentOfRows serves a results-cache hit
// of 1k and of 10k rows through Server.ServeHTTP: the allocations per
// request are the same small number, whatever the row count. (The old
// path allocated a map and its strings per row: ~4 per row.)
func TestCachedHitAllocationsIndependentOfRows(t *testing.T) {
	allocs := func(rows int) (float64, int) {
		srv, path := namesServer(rows)
		req := httptest.NewRequest("GET", path, nil)
		rw := &discard{h: http.Header{}}
		srv.ServeHTTP(rw, req) // the miss that fills the results cache
		if rw.n < rows*40 {
			t.Fatalf("%d rows answered in %d bytes", rows, rw.n)
		}
		return testing.AllocsPerRun(20, func() {
			rw.n = 0
			srv.ServeHTTP(rw, req)
		}), rw.n
	}
	small, _ := allocs(1000)
	large, bytes := allocs(10000)
	t.Logf("allocations per cached hit: %.0f at 1k rows, %.0f at 10k rows (%d bytes)", small, large, bytes)
	const bound = 200 // the request's own parsing, span and metrics work; measured ~100
	if small > bound || large > bound {
		t.Errorf("allocations per cached hit: %.0f at 1k rows, %.0f at 10k rows; want both under %d", small, large, bound)
	}
	if large > small+10 {
		t.Errorf("allocations grow with the row count: %.0f at 1k rows, %.0f at 10k", small, large)
	}
}

// TestWriteErrorMidStream: a client that goes away while a large result
// streams ends the handler early, without a panic, and the truncated
// response is counted. A miss stops encoding at the failed write; a
// results-cache hit fails its one write of the kept reply and sends
// nothing after it.
func TestWriteErrorMidStream(t *testing.T) {
	srv, path := namesServer(10000)
	counter := obs.Default().Counter("mdw_http_write_errors_total", "route", "GET /api/query")
	before := counter.Value()

	whole := &discard{h: http.Header{}}
	srv.ServeHTTP(whole, httptest.NewRequest("GET", path, nil))
	if d := counter.Value() - before; d != 0 {
		t.Fatalf("a complete response counted %d write errors", d)
	}

	rescache.Default().Purge() // the next request misses and streams
	gone := &discard{h: http.Header{}, failAfter: 2 * streamFlushAt}
	srv.ServeHTTP(gone, httptest.NewRequest("GET", path, nil))
	if d := counter.Value() - before; d != 1 {
		t.Errorf("write error counter moved by %d, want 1", d)
	}
	if gone.writes >= whole.writes || gone.n > gone.failAfter {
		t.Errorf("handler kept writing to a dead client: %d writes (%d bytes) against %d for the whole body",
			gone.writes, gone.n, whole.writes)
	}

	hit := &discard{h: http.Header{}, failAfter: 2 * streamFlushAt} // the entry's first hit
	srv.ServeHTTP(hit, httptest.NewRequest("GET", path, nil))
	if d := counter.Value() - before; d != 2 {
		t.Errorf("write error counter moved by %d, want 2", d)
	}
	if hit.writes != 2 || hit.n != 1 { // "{", then the reply that failed
		t.Errorf("cached reply to a dead client took %d writes (%d bytes), want 2 (1)", hit.writes, hit.n)
	}

	// Every other route answers through writeJSON; its failed write is
	// counted the same way.
	searchErrs := obs.Default().Counter("mdw_http_write_errors_total", "route", "GET /api/search")
	before = searchErrs.Value()
	srv.ServeHTTP(&discard{h: http.Header{}, failAfter: 1}, httptest.NewRequest("GET", "/api/search?term=name", nil))
	if d := searchErrs.Value() - before; d != 1 {
		t.Errorf("writeJSON write error counter moved by %d, want 1", d)
	}
}

// TestEncodeSpan: the request's trace attributes the encode, with the
// row and byte counts as labels, and says whether the body was encoded
// (the miss) or written from the reply the cache entry kept (the hits).
func TestEncodeSpan(t *testing.T) {
	s, path := namesServer(25)
	srv := httptest.NewServer(s)
	defer srv.Close()
	for _, wire := range []string{"encoded", "cached", "cached"} {
		resp := get(t, srv.URL+path)
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		var trace obs.Trace
		if code := getJSON(t, srv, "/api/traces?id="+resp.Header.Get("X-Mdw-Trace"), &trace); code != 200 {
			t.Fatalf("traces?id status = %d", code)
		}
		i := slices.IndexFunc(trace.Spans, func(sp obs.SpanData) bool { return sp.Name == "http encode" })
		if i < 0 {
			t.Fatalf("no http encode span in the trace: %+v", trace.Spans)
		}
		sp := trace.Spans[i]
		labels := map[string]string{}
		for _, l := range sp.Labels {
			labels[l.Key] = l.Value
		}
		if labels["rows"] != "25" || labels["bytes"] != strconv.Itoa(body.Len()) || labels["wire"] != wire {
			t.Errorf("http encode labels = %v, want rows=25 bytes=%d wire=%s", labels, body.Len(), wire)
		}
		if sp.Parent != trace.ID {
			t.Errorf("http encode span hangs under %d, want the request's root %d", sp.Parent, trace.ID)
		}
	}
}

// BenchmarkWriteResult writes a result shaped like a cached paper-scale
// Listing 1 answer (9.6k rows of object IRI, class label and name,
// ~1.7 MB), the reply mdwbench's portal_read spends its time on: miss
// streams it from the ID rows, hit writes the reply a results-cache hit
// kept.
func BenchmarkWriteResult(b *testing.B) {
	var ts []rdf.Triple
	for i := 0; i < 9600; i++ {
		app := "application" + strconv.Itoa(i%72)
		obj := rdf.IRI(rdf.InstNS + app + "/db/schema/table" + strconv.Itoa(i) + "/customer_id")
		class := rdf.IRI(rdf.InstNS + app + "/TableColumn")
		ts = append(ts, rdf.T(obj, rdf.Type, class), rdf.T(class, rdf.Label, rdf.Literal(app+" Table Column")),
			rdf.T(obj, rdf.HasName, rdf.Literal("customer_identification_"+strconv.Itoa(i))))
	}
	w := core.New("")
	w.LoadTriples(ts)
	q := `SELECT ?object ?class ?term WHERE { ?object <` + rdf.RDFType + `> ?c . ?c <` + rdf.RDFSLabel +
		`> ?class . ?object <` + rdf.HasName.Value + `> ?term }`
	var results []*sparql.Result // the miss, then the first hit
	for len(results) < 2 {
		resp, err := w.Query(context.Background(), q, core.QueryOptions{FactsOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, resp.Result)
	}
	if results[0].Len() != 9600 || results[0].EncodedJSON() != nil || results[1].EncodedJSON() == nil {
		b.Fatalf("%d rows; want 9600, streamed on the miss and kept on the hit", results[0].Len())
	}
	for i, name := range []string{"miss", "hit"} {
		res := results[i]
		b.Run(name, func(b *testing.B) {
			n, err := writeResult(io.Discard, res, nil, "")
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := writeResult(io.Discard, res, nil, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
