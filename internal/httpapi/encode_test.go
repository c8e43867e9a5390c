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
	"strconv"
	"testing"

	"mdw/internal/core"
	"mdw/internal/obs"
	"mdw/internal/rdf"
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
// oracle: every binding copied into a map[string]string, the whole
// QueryResponse handed to encoding/json.
func oldResponse(res *sparql.Result, stats *sparql.ExecStats) QueryResponse {
	resp := QueryResponse{Vars: res.Vars}
	if stats != nil {
		resp.Stats = stats
		resp.AnalyzedPlan = stats.String()
	}
	if len(res.Triples) > 0 {
		for _, tr := range res.Triples {
			resp.Triples = append(resp.Triples, tr.NTriple())
		}
	} else if len(res.Vars) == 0 && len(res.Rows) == 0 {
		ask := res.Ask
		resp.Ask = &ask
	}
	for _, b := range res.Rows {
		row := map[string]string{}
		for v, t := range b {
			row[v] = t.Value
		}
		resp.Rows = append(resp.Rows, row)
	}
	return resp
}

// randomResult generates one result of a random kind: SELECT (with
// OPTIONAL-unbound columns, empty rows, no rows, duplicate and awkward
// variable names), ASK or CONSTRUCT.
func randomResult(rng *rand.Rand) *sparql.Result {
	term := func() rdf.Term {
		switch rng.Intn(3) {
		case 0:
			return rdf.IRI(nasty(rng))
		case 1:
			return rdf.Literal(nasty(rng))
		}
		return rdf.Integer(rng.Int63n(1000) - 500)
	}
	switch rng.Intn(8) {
	case 0:
		return &sparql.Result{Ask: rng.Intn(2) == 0}
	case 1:
		res := &sparql.Result{}
		for i := rng.Intn(5) + 1; i > 0; i-- {
			res.Triples = append(res.Triples, rdf.T(rdf.IRI(nasty(rng)), rdf.IRI(nasty(rng)), term()))
		}
		return res
	}
	pool := []string{"object", "class", "term", "n", "x", "x", "a<b", `q"uote`, "\u00fcn\u00ef", "\u2028", ""}
	res := &sparql.Result{Vars: []string{}}
	for i := rng.Intn(5); i > 0; i-- {
		res.Vars = append(res.Vars, pool[rng.Intn(len(pool))])
	}
	if rng.Intn(6) == 0 {
		res.Rows = []sparql.Binding{} // no solutions, slice not nil
	}
	for i := rng.Intn(7); i > 0 && rng.Intn(6) > 0; i-- {
		row := sparql.Binding{}
		for _, v := range res.Vars {
			if rng.Intn(4) > 0 { // else: unbound under OPTIONAL
				row[v] = term()
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
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
// encoder: for generated results of every kind, with and without
// analyze stats, the streamed body is the compact encoding/json
// rendering of the old QueryResponse — byte for byte, and therefore
// decodes to the same value.
func TestStreamedResultMatchesEncodingJSON(t *testing.T) {
	stats := analyzedStats(t)
	rng := rand.New(rand.NewSource(14))
	kinds := map[string]int{}
	for i := 0; i < 400; i++ {
		res := randomResult(rng)
		var st *sparql.ExecStats
		if i%4 == 3 {
			st = stats[rng.Intn(len(stats))]
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
			t.Fatalf("result %d: status %d, content type %q", i, rec.Code, rec.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("result %d (%+v):\nstreamed %s\nwant     %s", i, res, got, want)
		}
		switch {
		case len(res.Triples) > 0:
			kinds["construct"]++
		case len(res.Vars) == 0 && len(res.Rows) == 0:
			kinds["ask"]++
		case len(res.Rows) == 0:
			kinds["no rows"]++
		default:
			kinds["rows"]++
		}
		if st != nil {
			kinds["analyze"]++
		}
	}
	for _, k := range []string{"construct", "ask", "no rows", "rows", "analyze"} {
		if kinds[k] < 10 {
			t.Errorf("only %d generated results of kind %q: %v", kinds[k], k, kinds)
		}
	}
}

// TestStreamedResultSpansFlushes covers what the small generated results
// cannot: a body of many buffers, against the same oracle.
func TestStreamedResultSpansFlushes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	res := &sparql.Result{Vars: []string{"object", "class", "term"}}
	for i := 0; i < 5000; i++ {
		res.Rows = append(res.Rows, sparql.Binding{
			"object": rdf.IRI(rdf.InstNS + "o" + strconv.Itoa(i)),
			"term":   rdf.Literal(nasty(rng)),
		})
	}
	want, err := json.Marshal(oldResponse(res, nil))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	n, err := writeResult(&got, res, nil, "")
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

func checkJSONString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
		t.Errorf("appendJSONString(%q) = %s, encoding/json writes %s", s, got, want)
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
// response is counted.
func TestWriteErrorMidStream(t *testing.T) {
	srv, path := namesServer(10000)
	counter := obs.Default().Counter("mdw_http_write_errors_total", "route", "GET /api/query")
	before := counter.Value()

	whole := &discard{h: http.Header{}}
	srv.ServeHTTP(whole, httptest.NewRequest("GET", path, nil))
	if d := counter.Value() - before; d != 0 {
		t.Fatalf("a complete response counted %d write errors", d)
	}

	gone := &discard{h: http.Header{}, failAfter: 2 * streamFlushAt}
	srv.ServeHTTP(gone, httptest.NewRequest("GET", path, nil))
	if d := counter.Value() - before; d != 1 {
		t.Errorf("write error counter moved by %d, want 1", d)
	}
	if gone.writes >= whole.writes || gone.n > gone.failAfter {
		t.Errorf("handler kept writing to a dead client: %d writes (%d bytes) against %d for the whole body",
			gone.writes, gone.n, whole.writes)
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
// row and byte counts as labels.
func TestEncodeSpan(t *testing.T) {
	s, path := namesServer(25)
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp := get(t, srv.URL+path)
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var trace obs.Trace
	if code := getJSON(t, srv, "/api/traces?id="+resp.Header.Get("X-Mdw-Trace"), &trace); code != 200 {
		t.Fatalf("traces?id status = %d", code)
	}
	for _, sp := range trace.Spans {
		if sp.Name != "http encode" {
			continue
		}
		labels := map[string]string{}
		for _, l := range sp.Labels {
			labels[l.Key] = l.Value
		}
		if labels["rows"] != "25" || labels["bytes"] != strconv.Itoa(body.Len()) {
			t.Errorf("http encode labels = %v, want rows=25 bytes=%d", labels, body.Len())
		}
		if sp.Parent != trace.ID {
			t.Errorf("http encode span hangs under %d, want the request's root %d", sp.Parent, trace.ID)
		}
		return
	}
	t.Errorf("no http encode span in the trace: %+v", trace.Spans)
}

// BenchmarkWriteResult encodes a result shaped like a cached paper-scale
// Listing 1 answer (9.6k rows of object IRI, class label and name,
// ~1.7 MB), the reply mdwbench's portal_read spends its time on.
func BenchmarkWriteResult(b *testing.B) {
	res := &sparql.Result{Vars: []string{"object", "class", "term"}}
	for i := 0; i < 9600; i++ {
		app := "application" + strconv.Itoa(i%72)
		res.Rows = append(res.Rows, sparql.Binding{
			"object": rdf.IRI(rdf.InstNS + app + "/db/schema/table" + strconv.Itoa(i) + "/customer_id"),
			"class":  rdf.Literal(app + " Table Column"),
			"term":   rdf.Literal("customer_identification_" + strconv.Itoa(i)),
		})
	}
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
}
