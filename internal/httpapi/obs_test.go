package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"mdw/internal/core"
	"mdw/internal/obs"
	"mdw/internal/rdf"
)

// get issues a plain GET and returns the response with its body already
// read to EOF (and replayable from resp.Body). The middleware counts and
// publishes the trace after the handler returns; only the reply's last
// chunk is sent later than that, so a caller that closed the body early
// could look before the middleware had finished.
func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp
}

// TestTraceHeaderAndSingleTrace is the end-to-end propagation test of
// the acceptance criterion: one HTTP query request yields ONE trace —
// http → warehouse.query → sparql parse/plan/exec — retrievable through
// GET /api/traces?id= with the X-Mdw-Trace value.
func TestTraceHeaderAndSingleTrace(t *testing.T) {
	srv := testServer(t)
	startedBefore := obs.DefaultTracer().Started()

	resp := get(t, srv.URL+"/api/query?q="+url.QueryEscape(
		`SELECT ?x WHERE { ?x <`+rdf.MDWHasName+`> ?n . FILTER CONTAINS(LCASE(?n), "customer") }`))
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	hdr := resp.Header.Get("X-Mdw-Trace")
	if hdr == "" {
		t.Fatal("no X-Mdw-Trace response header")
	}
	id, err := strconv.ParseUint(hdr, 10, 64)
	if err != nil || id == 0 {
		t.Fatalf("X-Mdw-Trace = %q, want a positive decimal trace ID", hdr)
	}

	// Exactly one trace started for the whole request: the services and
	// the query engine joined the HTTP root instead of starting their own.
	if started := obs.DefaultTracer().Started() - startedBefore; started != 1 {
		t.Errorf("request started %d traces, want 1", started)
	}

	var trace obs.Trace
	if code := getJSON(t, srv, "/api/traces?id="+hdr, &trace); code != 200 {
		t.Fatalf("traces?id status = %d", code)
	}
	if trace.ID != id || trace.Name != "http GET /api/query" {
		t.Fatalf("trace = id %d name %q", trace.ID, trace.Name)
	}

	// Verify the nesting chain http → warehouse.query → sparql exec by
	// walking Parent links up from the exec span to the root.
	byID := map[uint64]obs.SpanData{}
	var root obs.SpanData
	for _, sp := range trace.Spans {
		byID[sp.ID] = sp
		if sp.Parent == 0 {
			root = sp
		}
	}
	if root.Name != "http GET /api/query" {
		t.Fatalf("root span = %q", root.Name)
	}
	names := map[string]bool{}
	for _, sp := range trace.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"warehouse.query", "sparql parse", "sparql plan", "sparql exec"} {
		if !names[want] {
			t.Errorf("trace lacks a %q span; spans: %v", want, names)
		}
	}
	for _, sp := range trace.Spans {
		if sp.Name != "sparql exec" {
			continue
		}
		sawService := false
		cur := sp
		for cur.Parent != 0 {
			cur = byID[cur.Parent]
			if cur.Name == "warehouse.query" {
				sawService = true
			}
		}
		if !sawService {
			t.Errorf("sparql exec span not nested under the warehouse.query span")
		}
		if cur.ID != root.ID {
			t.Errorf("sparql exec span does not chain up to the http root")
		}
	}

	// Unknown and malformed IDs.
	if code := getJSON(t, srv, "/api/traces?id=999999999", nil); code != 404 {
		t.Errorf("unknown trace id status = %d, want 404", code)
	}
	if code := getJSON(t, srv, "/api/traces?id=bogus", nil); code != 400 {
		t.Errorf("malformed trace id status = %d, want 400", code)
	}
}

func TestTracesLimitParam(t *testing.T) {
	srv := testServer(t)
	for i := 0; i < 3; i++ {
		get(t, srv.URL+"/healthz").Body.Close()
	}
	var all TracesResponse
	if code := getJSON(t, srv, "/api/traces", &all); code != 200 {
		t.Fatalf("traces status = %d", code)
	}
	if len(all.Traces) < 3 {
		t.Fatalf("ring has %d traces, want >= 3", len(all.Traces))
	}
	var limited TracesResponse
	if code := getJSON(t, srv, "/api/traces?n=2", &limited); code != 200 {
		t.Fatalf("traces?n status = %d", code)
	}
	if len(limited.Traces) != 2 {
		t.Fatalf("traces?n=2 returned %d traces", len(limited.Traces))
	}
	// Newest first: the limited list is the head of the full list shifted
	// by the /api/traces request in between; just check ordering.
	if len(limited.Traces) == 2 && limited.Traces[0].Start.Before(limited.Traces[1].Start) {
		t.Error("traces not newest-first")
	}
	if code := getJSON(t, srv, "/api/traces?n=0", &limited); code != 200 || len(limited.Traces) != 0 {
		t.Errorf("traces?n=0: code %d, %d traces", code, len(limited.Traces))
	}
}

func TestStatementsEndpoint(t *testing.T) {
	srv := testServer(t)
	// Two executions of the same query shape with different literals must
	// aggregate under one fingerprint.
	for _, term := range []string{"customer", "branch"} {
		resp := get(t, srv.URL+"/api/query?q="+url.QueryEscape(
			`SELECT ?x WHERE { ?x <`+rdf.MDWHasName+`> ?n . FILTER CONTAINS(LCASE(?n), "`+term+`") }`))
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("query for %q status = %d", term, resp.StatusCode)
		}
	}
	var stmts StatementsResponse
	if code := getJSON(t, srv, "/api/statements", &stmts); code != 200 {
		t.Fatalf("statements status = %d", code)
	}
	if stmts.Statements == nil {
		t.Fatal("statements is null, want at least []")
	}
	var hit *obs.StatementStat
	for i := range stmts.Statements {
		st := &stmts.Statements[i]
		if st.Calls >= 2 && st.Fingerprint != "" && st.Query != "" &&
			st.Total > 0 && st.Mean > 0 && st.Max >= st.Min {
			hit = st
			break
		}
	}
	if hit == nil {
		t.Fatalf("no aggregated statement row with >= 2 calls; rows: %d", len(stmts.Statements))
	}
	if hit.MaxPlan == "" {
		t.Error("aggregated row lacks a rendered plan")
	}

	var limited StatementsResponse
	if code := getJSON(t, srv, "/api/statements?n=1", &limited); code != 200 || len(limited.Statements) != 1 {
		t.Errorf("statements?n=1: code %d, %d rows", code, len(limited.Statements))
	}
}

// TestObserveMiddlewareMetrics exercises the timing middleware directly:
// requests aggregate by route pattern (including the "(unmatched)"
// fallback) and by status class. The registry is process-global, so the
// test asserts deltas, not absolute values.
func TestObserveMiddlewareMetrics(t *testing.T) {
	srv := testServer(t)
	reg := obs.Default()

	searchOK := reg.Counter("mdw_http_requests_total", "route", "GET /api/search", "class", "2xx")
	searchBad := reg.Counter("mdw_http_requests_total", "route", "GET /api/search", "class", "4xx")
	unmatched := reg.Counter("mdw_http_requests_total", "route", "(unmatched)", "class", "4xx")
	okBefore, badBefore, unmatchedBefore := searchOK.Value(), searchBad.Value(), unmatched.Value()
	_, histBefore := reg.Histogram("mdw_http_request_seconds", nil, "route", "GET /api/search").Buckets()
	countBefore := histBefore[len(histBefore)-1]

	for i := 0; i < 2; i++ {
		get(t, srv.URL+"/api/search?term=customer").Body.Close()
	}
	resp := get(t, srv.URL+"/api/search") // missing ?term → 400
	if resp.StatusCode != 400 {
		t.Fatalf("missing-term status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = get(t, srv.URL+"/no/such/route")
	if resp.StatusCode != 404 {
		t.Fatalf("unmatched route status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	if d := searchOK.Value() - okBefore; d != 2 {
		t.Errorf("2xx search counter delta = %d, want 2", d)
	}
	if d := searchBad.Value() - badBefore; d != 1 {
		t.Errorf("4xx search counter delta = %d, want 1", d)
	}
	if d := unmatched.Value() - unmatchedBefore; d != 1 {
		t.Errorf("(unmatched) 4xx counter delta = %d, want 1", d)
	}
	_, histAfter := reg.Histogram("mdw_http_request_seconds", nil, "route", "GET /api/search").Buckets()
	if d := histAfter[len(histAfter)-1] - countBefore; d != 3 {
		t.Errorf("search route histogram observation delta = %d, want 3 (2xx and 4xx alike)", d)
	}
}

// TestQueryRoutesOneTraceEach: every way of asking the two SPARQL routes
// — entailed, ?facts=only, ?analyze=1, both, and a SEM_MATCH call — yields
// one trace, http → warehouse.query → sparql parse / sparql exec. The
// facts-only and analyzed variants used to run outside the
// warehouse.query span.
func TestQueryRoutesOneTraceEach(t *testing.T) {
	srv := testServer(t)
	q := url.QueryEscape(`PREFIX dm: <` + rdf.DMNS + `> SELECT ?x WHERE { ?x a dm:Attribute }`)
	call := `SEM_MATCH({?x rdf:type dm:Attribute}, SEM_MODELS('DWH_CURR'), SEM_RULEBASES('OWLPRIME'),
		SEM_ALIASES(SEM_ALIAS('dm', '` + rdf.DMNS + `')), null)`
	requests := map[string]func() (*http.Response, error){
		"entailed":      func() (*http.Response, error) { return http.Get(srv.URL + "/api/query?q=" + q) },
		"facts":         func() (*http.Response, error) { return http.Get(srv.URL + "/api/query?facts=only&q=" + q) },
		"analyze":       func() (*http.Response, error) { return http.Get(srv.URL + "/api/query?analyze=1&q=" + q) },
		"facts+analyze": func() (*http.Response, error) { return http.Get(srv.URL + "/api/query?facts=only&analyze=1&q=" + q) },
		"semmatch": func() (*http.Response, error) {
			return http.Post(srv.URL+"/api/semmatch", "text/plain", strings.NewReader(call))
		},
		"semmatch+analyze": func() (*http.Response, error) {
			return http.Post(srv.URL+"/api/semmatch?analyze=1", "text/plain", strings.NewReader(call))
		},
	}
	for name, do := range requests {
		t.Run(name, func(t *testing.T) {
			startedBefore := obs.DefaultTracer().Started()
			resp, err := do()
			if err != nil {
				t.Fatal(err)
			}
			// Read to EOF: the middleware publishes the trace before the
			// reply's last chunk goes out.
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			if started := obs.DefaultTracer().Started() - startedBefore; started != 1 {
				t.Errorf("request started %d traces, want 1", started)
			}
			var trace obs.Trace
			if code := getJSON(t, srv, "/api/traces?id="+resp.Header.Get("X-Mdw-Trace"), &trace); code != 200 {
				t.Fatalf("traces?id status = %d", code)
			}
			byID := map[uint64]obs.SpanData{}
			for _, sp := range trace.Spans {
				byID[sp.ID] = sp
			}
			seen := map[string]bool{}
			for _, sp := range trace.Spans {
				if sp.Name != "sparql parse" && sp.Name != "sparql exec" {
					continue
				}
				seen[sp.Name] = true
				// sparql exec may sit below the sparql plan span of a replan.
				up := byID[sp.Parent]
				for up.Name != "warehouse.query" && up.Parent != 0 {
					up = byID[up.Parent]
				}
				if up.Name != "warehouse.query" || up.Parent != trace.ID {
					t.Errorf("%s is not below a warehouse.query span under the http root: %+v", sp.Name, trace.Spans)
				}
			}
			if !seen["sparql parse"] || !seen["sparql exec"] {
				t.Errorf("trace lacks sparql parse/exec spans: %+v", trace.Spans)
			}
		})
	}
}

// TestServiceRoutesOneTraceEach is TestQueryRoutesOneTraceEach for the
// routes that navigate the graph themselves: search, lineage with a
// roll-up, and audit (lineage on, the default) each yield one trace.
// Audit's two lineage traversals used to start a root "lineage.trace"
// trace each, on a background context.
func TestServiceRoutesOneTraceEach(t *testing.T) {
	srv := testServer(t)
	item := url.QueryEscape("application1/dwhdb/mart/v_customer/customer_id")
	for _, path := range []string{
		"/api/search?term=customer",
		"/api/lineage?level=application&item=" + item,
		"/api/audit?item=" + item,
	} {
		startedBefore := obs.DefaultTracer().Started()
		if code := getJSON(t, srv, path, nil); code != 200 {
			t.Fatalf("%s: status = %d", path, code)
		}
		if started := obs.DefaultTracer().Started() - startedBefore; started != 1 {
			t.Errorf("%s started %d traces, want 1", path, started)
		}
	}
}

// TestMountPprof: with MountPprof the server answers a CPU profile (a
// gzipped protobuf) and the heap profile; without it, neither route
// exists.
func TestMountPprof(t *testing.T) {
	for _, mounted := range []bool{false, true} {
		s := NewServer(core.New(""))
		if mounted {
			s.MountPprof()
		}
		srv := httptest.NewServer(s)
		for _, path := range []string{"/debug/pprof/profile?seconds=1", "/debug/pprof/heap"} {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case !mounted && resp.StatusCode != http.StatusNotFound:
				t.Errorf("without MountPprof, GET %s = %d, want 404", path, resp.StatusCode)
			case mounted && resp.StatusCode != http.StatusOK:
				t.Errorf("with MountPprof, GET %s = %d, want 200: %.200s", path, resp.StatusCode, body)
			case mounted && strings.HasPrefix(path, "/debug/pprof/profile") && !bytes.HasPrefix(body, []byte{0x1f, 0x8b}):
				t.Errorf("GET %s is not a gzipped profile: %.40q", path, body)
			}
		}
		srv.Close()
	}
}
