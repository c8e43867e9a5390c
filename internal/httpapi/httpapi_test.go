package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"mdw/internal/core"
	"mdw/internal/dbpedia"
	"mdw/internal/landscape"
	"mdw/internal/lineage"
	"mdw/internal/obs"
	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/sparql"
	"mdw/internal/staging"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	w := core.New("")
	if _, err := w.LoadOntology(ontology.DWH()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.LoadExports([]*staging.Export{landscape.Figure3Export()}); err != nil {
		t.Fatal(err)
	}
	w.IntegrateDBpedia(dbpedia.Banking())
	if _, err := w.Snapshot("2009-R1", time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(w))
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestSearchEndpoint(t *testing.T) {
	srv := testServer(t)
	var res SearchResponse
	if code := getJSON(t, srv, "/api/search?term=customer", &res); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if res.Instances == 0 || len(res.Groups) == 0 {
		t.Fatalf("res = %+v", res)
	}
	found := false
	for _, g := range res.Groups {
		if g.Label == "Attribute" && g.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("no Attribute group: %+v", res.Groups)
	}
}

func TestSearchEndpointSemantic(t *testing.T) {
	srv := testServer(t)
	var plain, semantic SearchResponse
	getJSON(t, srv, "/api/search?term=client", &plain)
	getJSON(t, srv, "/api/search?term=client&semantic=true", &semantic)
	if semantic.Instances <= plain.Instances {
		t.Errorf("semantic %d <= plain %d", semantic.Instances, plain.Instances)
	}
}

func TestSearchEndpointClassFilter(t *testing.T) {
	srv := testServer(t)
	var res SearchResponse
	getJSON(t, srv, "/api/search?term=customer&class=Application1_Item,Interface_Item", &res)
	if res.Instances != 1 {
		t.Errorf("instances = %d, want 1", res.Instances)
	}
}

func TestSearchEndpointErrors(t *testing.T) {
	srv := testServer(t)
	if code := getJSON(t, srv, "/api/search", nil); code != 400 {
		t.Errorf("missing term: status = %d", code)
	}
}

func TestLineageEndpoint(t *testing.T) {
	srv := testServer(t)
	item := url.QueryEscape("application1/dwhdb/mart/v_customer/customer_id")
	var res LineageResponse
	if code := getJSON(t, srv, "/api/lineage?item="+item, &res); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(res.Nodes) != 4 || len(res.Edges) != 3 {
		t.Fatalf("res = %+v", res)
	}
	if res.Direction != "backward" || res.Level != "attribute" {
		t.Errorf("dir/level = %s/%s", res.Direction, res.Level)
	}
	// Roll up to application level.
	getJSON(t, srv, "/api/lineage?item="+item+"&level=application", &res)
	if len(res.Nodes) != 2 || len(res.Edges) != 1 {
		t.Errorf("app level = %+v", res)
	}
	// Forward direction from the origin.
	origin := url.QueryEscape("pb_frontend/pbdb/clients/client_info/client_information_id")
	getJSON(t, srv, "/api/lineage?item="+origin+"&dir=forward", &res)
	if len(res.Nodes) != 4 {
		t.Errorf("forward = %+v", res)
	}
	// Rule filter.
	getJSON(t, srv, "/api/lineage?item="+item+"&rule=partner", &res)
	if len(res.Edges) != 1 {
		t.Errorf("rule filtered = %+v", res)
	}
}

func TestLineageEndpointErrors(t *testing.T) {
	srv := testServer(t)
	if code := getJSON(t, srv, "/api/lineage", nil); code != 400 {
		t.Errorf("missing item: %d", code)
	}
	if code := getJSON(t, srv, "/api/lineage?item=no/such/thing", nil); code != 404 {
		t.Errorf("unknown item: %d", code)
	}
	if code := getJSON(t, srv, "/api/lineage?item=x&dir=sideways", nil); code != 400 {
		t.Errorf("bad dir: %d", code)
	}
	item := url.QueryEscape("application1/dwhdb/mart/v_customer/customer_id")
	if code := getJSON(t, srv, "/api/lineage?item="+item+"&level=galaxy", nil); code != 400 {
		t.Errorf("bad level: %d", code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t)
	q := url.QueryEscape(`PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#>
		SELECT ?name WHERE { ?x a dm:Attribute . ?x dm:hasName ?name }`)
	var res QueryResponse
	if code := getJSON(t, srv, "/api/query?q="+q, &res); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Facts-only sees no inferred Attribute typings.
	getJSON(t, srv, "/api/query?facts=only&q="+q, &res)
	if len(res.Rows) != 0 {
		t.Errorf("facts-only rows = %d", len(res.Rows))
	}
	// ASK result shape.
	ask := url.QueryEscape(`ASK { ?s ?p ?o }`)
	getJSON(t, srv, "/api/query?q="+ask, &res)
	if res.Ask == nil || !*res.Ask {
		t.Errorf("ask = %+v", res)
	}
	if code := getJSON(t, srv, "/api/query?q=NOT+SPARQL", nil); code != 400 {
		t.Errorf("bad query: %d", code)
	}
	if code := getJSON(t, srv, "/api/query", nil); code != 400 {
		t.Errorf("missing q: %d", code)
	}
}

func TestStatsAndVersionsEndpoints(t *testing.T) {
	srv := testServer(t)
	var stats map[string]any
	if code := getJSON(t, srv, "/api/stats", &stats); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if stats["model"] != "DWH_CURR" {
		t.Errorf("stats = %v", stats)
	}
	var versions []map[string]any
	getJSON(t, srv, "/api/versions", &versions)
	if len(versions) != 1 || versions[0]["tag"] != "2009-R1" {
		t.Errorf("versions = %v", versions)
	}
}

func TestIndexAndHealth(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body[:n]), "Meta-data Warehouse") {
		t.Errorf("index page wrong: %d", resp.StatusCode)
	}
	if code := getJSON(t, srv, "/healthz", nil); code != 200 {
		t.Errorf("healthz = %d", code)
	}
}

func TestSemMatchEndpoint(t *testing.T) {
	srv := testServer(t)
	call := `SEM_MATCH(
		{?object rdf:type dm:Application1_View_Column .
		 ?object dm:hasName ?term},
		SEM_MODELS('DWH_CURR'),
		SEM_RULEBASES('OWLPRIME'),
		SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#')),
		null)`
	resp, err := http.Post(srv.URL+"/api/semmatch", "text/plain", strings.NewReader(call))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || len(res.Rows) != 1 || res.Rows[0]["term"] != "customer_id" {
		t.Errorf("status %d, rows %v", resp.StatusCode, res.Rows)
	}
	// Bad call errors.
	bad, err := http.Post(srv.URL+"/api/semmatch", "text/plain", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Errorf("bad call status = %d", bad.StatusCode)
	}
}

func TestSearchEndpointTagFilter(t *testing.T) {
	srv := testServer(t)
	var res SearchResponse
	getJSON(t, srv, "/api/search?term=customer&tag=no_such_tag", &res)
	if res.Instances != 0 {
		t.Errorf("tag filter ignored: %d", res.Instances)
	}
}

// TestLineageBadLevelValidatedUpFront is the regression test for the
// late-validation bug: handleLineage used to run the full Trace before
// looking at ?level, so a request with an unknown item AND a bad level
// answered 404 (from the wasted traversal) instead of 400. Parameters
// must be validated before any work runs.
func TestLineageBadLevelValidatedUpFront(t *testing.T) {
	srv := testServer(t)
	if code := getJSON(t, srv, "/api/lineage?item=no/such/thing&level=galaxy", nil); code != 400 {
		t.Errorf("bad level on unknown item: status = %d, want 400 (level must be validated before the trace runs)", code)
	}
	if code := getJSON(t, srv, "/api/lineage?item=no/such/thing&dir=sideways&level=galaxy", nil); code != 400 {
		t.Errorf("bad dir+level on unknown item: status = %d, want 400", code)
	}
}

// TestVersionsEmptyIsArray is the regression test for the JSON-null bug:
// /api/versions on a warehouse with no snapshots must serve [], not null.
func TestVersionsEmptyIsArray(t *testing.T) {
	w := core.New("")
	if _, err := w.LoadOntology(ontology.DWH()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(w))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/versions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := strings.TrimSpace(string(body))
	if trimmed != "[]" {
		t.Fatalf("empty versions body = %q, want []", trimmed)
	}
}

func TestVersionsMarkPruned(t *testing.T) {
	srv := testServer(t)
	var out []struct {
		Number int  `json:"number"`
		Pruned bool `json:"pruned"`
	}
	if code := getJSON(t, srv, "/api/versions", &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(out) != 1 || out[0].Pruned {
		t.Fatalf("versions = %+v, want one live version", out)
	}
}

// TestMetricsEndpoint asserts /api/metrics serves Prometheus text
// exposition covering every instrumented subsystem, and that it reflects
// a request made just before.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	// Drive each subsystem once so the counters move.
	getJSON(t, srv, "/api/search?term=customer", nil)
	item := url.QueryEscape("application1/dwhdb/mart/v_customer/customer_id")
	getJSON(t, srv, "/api/lineage?item="+item, nil)
	q := url.QueryEscape(`PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#>
		SELECT ?n WHERE { ?x a dm:Attribute . ?x dm:hasName ?n }`)
	getJSON(t, srv, "/api/query?q="+q, nil)

	resp, err := http.Get(srv.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, family := range []string{
		"mdw_store_adds_total",
		"mdw_store_lookups_total",
		"mdw_sparql_exec_seconds_count",
		"mdw_sparql_plan_seconds_count",
		"mdw_search_seconds_count",
		"mdw_lineage_trace_seconds_count",
		"mdw_http_requests_total",
		"mdw_http_request_seconds_bucket",
		"# TYPE mdw_store_adds_total counter",
		"# TYPE mdw_http_request_seconds histogram",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing %q", family)
		}
	}
	// The request made above must be reflected with route and status
	// class labels (counters are process-global, so assert presence, not
	// an exact count).
	if !strings.Contains(text, `mdw_http_requests_total{class="2xx",route="GET /api/search"}`) {
		t.Error("exposition does not reflect the /api/search request just made")
	}
}

// TestSlowQueryLogCapturesPlan: what the slow-query log used to capture
// of a query — its text, its row count and the rendered plan of its
// slowest execution — is on its /api/statements row, and an analyzed
// execution over HTTP adds the planner's worst misestimate with the
// analyzed plan it came from. The traces stay on /api/traces.
func TestSlowQueryLogCapturesPlan(t *testing.T) {
	srv := testServer(t)
	text := `PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#>
		SELECT ?n WHERE { ?x a dm:Attribute . ?x dm:hasName ?n }`
	q := url.QueryEscape(text)
	if code := getJSON(t, srv, "/api/query?q="+q, nil); code != 200 {
		t.Fatalf("query status = %d", code)
	}
	if code := getJSON(t, srv, "/api/query?analyze=1&q="+q, nil); code != 200 {
		t.Fatalf("analyzed query status = %d", code)
	}
	fp := sparql.MustParse(text).Fingerprint()
	var stmts StatementsResponse
	if code := getJSON(t, srv, "/api/statements", &stmts); code != 200 {
		t.Fatalf("statements status = %d", code)
	}
	var row *obs.StatementStat
	for i := range stmts.Statements {
		if stmts.Statements[i].Fingerprint == fp {
			row = &stmts.Statements[i]
		}
	}
	if row == nil {
		t.Fatalf("query not in the statement table (rows: %d)", len(stmts.Statements))
	}
	if !strings.Contains(row.Query, "dm:hasName") || row.Rows == 0 || row.Max <= 0 {
		t.Errorf("row lacks the query, its rows or its latency: %+v", *row)
	}
	if !strings.Contains(row.MaxPlan, "SELECT") {
		t.Errorf("row lacks the slowest execution's rendered plan: %q", row.MaxPlan)
	}
	if row.AnalyzedCalls == 0 || row.MaxRatio < 1 || row.WorstOp == "" || !strings.Contains(row.WorstPlan, "actual=") {
		t.Errorf("analyzed execution left no worst misestimate: x%v %q (%d analyzed)\n%s",
			row.MaxRatio, row.WorstOp, row.AnalyzedCalls, row.WorstPlan)
	}
	if code := getJSON(t, srv, "/api/misestimates", nil); code != 404 {
		t.Errorf("/api/misestimates status = %d, want 404", code)
	}

	var tr TracesResponse
	if code := getJSON(t, srv, "/api/traces", &tr); code != 200 {
		t.Fatalf("traces status = %d", code)
	}
	// The HTTP middleware roots the trace; the warehouse query nests
	// inside it as a child span rather than starting its own trace.
	if len(tr.Traces) == 0 {
		t.Fatal("trace ring empty after requests")
	}
	found := false
	for _, trace := range tr.Traces {
		if trace.Name != "http GET /api/query" {
			continue
		}
		for _, sp := range trace.Spans {
			if sp.Name == "warehouse.query" && sp.Parent != 0 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no http GET /api/query trace with a nested warehouse.query span in the ring")
	}
}

func TestCloneEndpoint(t *testing.T) {
	srv := testServer(t)
	post := func(path string, out any) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}
	if code := post("/api/clone", nil); code != 400 {
		t.Errorf("missing dst: status = %d, want 400", code)
	}
	var res CloneResponse
	if code := post("/api/clone?dst=SANDBOX", &res); code != 200 {
		t.Fatalf("clone: status = %d", code)
	}
	if res.Src != core.DefaultModel || res.Dst != "SANDBOX" || res.Triples == 0 {
		t.Fatalf("clone response = %+v", res)
	}
	// The destination name is now taken.
	if code := post("/api/clone?dst=SANDBOX", nil); code != 409 {
		t.Errorf("duplicate dst: status = %d, want 409", code)
	}
	// A destination in the warehouse's own '$' namespace is refused before
	// the next Snapshot could drop it (the meta model) or trip over it (the
	// next release's name).
	for _, dst := range []string{"MDW$META", "DWH_CURR$HIST0002"} {
		if code := post("/api/clone?dst="+url.QueryEscape(dst), nil); code != 400 {
			t.Errorf("reserved dst %s: status = %d, want 400", dst, code)
		}
	}
	// An unknown source model is a conflict too, not a 500.
	if code := post("/api/clone?src=nope&dst=OTHER", nil); code != 409 {
		t.Errorf("unknown src: status = %d, want 409", code)
	}
	// A clone of the clone goes through ?src.
	if code := post("/api/clone?src=SANDBOX&dst=SANDBOX2", &res); code != 200 || res.Src != "SANDBOX" {
		t.Errorf("chained clone: status = %d, res = %+v", code, res)
	}
}

func TestLoadEndpointInvalidatesCache(t *testing.T) {
	srv := testServer(t)
	postBody := func(path, body string, out any) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/n-triples", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}
	if code := postBody("/api/load", "", nil); code != 400 {
		t.Errorf("empty body: status = %d, want 400", code)
	}
	if code := postBody("/api/load", "not ntriples", nil); code != 400 {
		t.Errorf("garbage body: status = %d, want 400", code)
	}
	var res struct {
		Parsed int `json:"parsed"`
		Added  int `json:"added"`
	}
	nt := "<http://x/s> <http://x/p> <http://x/o> .\n<http://x/s> <http://x/p> <http://x/o> .\n"
	if code := postBody("/api/load", nt, &res); code != 200 {
		t.Fatalf("load: status = %d", code)
	}
	if res.Parsed != 2 || res.Added != 1 {
		t.Errorf("load response = %+v, want parsed=2 added=1 (duplicate dropped)", res)
	}
}

// TestServiceErrorStatuses: every route that calls a service answers a
// failure through serveError — under the status the error's kind
// deserves, with the error's message as the body — and search validates
// its term like every other parameter, before the service runs.
func TestServiceErrorStatuses(t *testing.T) {
	w := core.New("")
	_, reserved := w.CloneModel("", "A$B")
	_, unknownLineage := w.LineageService().Trace(rdf.IRI("http://x/nothing"), lineage.Backward, lineage.Options{})
	_, unknownAudit := w.Audit(rdf.IRI("http://x/nothing"), false)
	for _, c := range []struct {
		name string
		err  error
		want int
	}{
		{"cancelled", fmt.Errorf("reindex: %w", context.Canceled), 503},
		{"deadline", fmt.Errorf("exec: %w", context.DeadlineExceeded), 503},
		{"caller's fault", reserved, 400},
		{"lineage of an unknown item", unknownLineage, 404},
		{"audit of an unknown item", unknownAudit, 404},
		{"anything else", errors.New("search: no such model \"DWH_CURR\""), 500},
	} {
		rec := httptest.NewRecorder()
		serveError(rec, c.err)
		var body map[string]string
		if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rec.Code != c.want || body["error"] != c.err.Error() {
			t.Errorf("%s: status %d body %v, want %d %q", c.name, rec.Code, body, c.want, c.err)
		}
	}

	srv := testServer(t)
	for path, want := range map[string]int{
		"/api/search?term=%20":               400,
		"/api/search?term=":                  400,
		"/api/audit?item=no/such/thing":      404,
		"/api/lineage?item=no/such/thing":    404,
		"/api/search?term=customer&via=scan": 200,
	} {
		if code := getJSON(t, srv, path, nil); code != want {
			t.Errorf("GET %s: status %d, want %d", path, code, want)
		}
	}
	// There is no ?via=: like any unknown parameter it changes nothing.
	var plain, via SearchResponse
	getJSON(t, srv, "/api/search?term=customer", &plain)
	getJSON(t, srv, "/api/search?term=customer&via=anything", &via)
	if !reflect.DeepEqual(plain, via) || plain.Instances == 0 {
		t.Errorf("?via=anything changed the reply:\n%+v\nwithout:\n%+v", via, plain)
	}
}

// TestQueryErrorStatuses: the two SPARQL routes answer 400 only for what
// the client can fix — with the parser's message as the body, as before —
// and not for a request that was cancelled.
func TestQueryErrorStatuses(t *testing.T) {
	srv := testServer(t)
	_, parseErr := sparql.Parse("NOT SPARQL")
	var body map[string]string
	if code := getJSON(t, srv, "/api/query?q=NOT+SPARQL", &body); code != 400 || body["error"] != parseErr.Error() {
		t.Errorf("malformed query: status %d body %v, want 400 %q", code, body, parseErr)
	}
	if code := getJSON(t, srv, "/api/query?facts=only&analyze=1&q=NOT+SPARQL", nil); code != 400 {
		t.Errorf("malformed facts-only analyzed query: status %d, want 400", code)
	}
	badFlag := url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o FILTER regex(?o, "a", "x") }`)
	if code := getJSON(t, srv, "/api/query?q="+badFlag, &body); code != 400 || !strings.Contains(body["error"], "regex flag") {
		t.Errorf("unsupported regex flag: status %d body %v, want 400 naming the flag", code, body)
	}
	for name, call := range map[string]string{
		"malformed call":    `SEM_MATCH no parens`,
		"malformed pattern": `SEM_MATCH({?s ?p}, SEM_MODELS('DWH_CURR'), null)`,
		"unknown model":     `SEM_MATCH({?s ?p ?o}, SEM_MODELS('NOPE'), null)`,
		"unknown rulebase":  `SEM_MATCH({?s ?p ?o}, SEM_MODELS('DWH_CURR'), SEM_RULEBASES('RDFS'), null)`,
		"bad regex flag":    `SEM_MATCH({?s ?p ?o FILTER regex(?o, "a", "bogus")}, SEM_MODELS('DWH_CURR'), null)`,
	} {
		resp, err := http.Post(srv.URL+"/api/semmatch", "text/plain", strings.NewReader(call))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, req := range []*http.Request{
		httptest.NewRequest("GET", "/api/query?q="+url.QueryEscape(`SELECT ?cancelled WHERE { ?cancelled ?p ?o }`), nil),
		httptest.NewRequest("POST", "/api/semmatch", strings.NewReader(`SEM_MATCH({?cancelled ?p ?o}, SEM_MODELS('DWH_CURR'), null)`)),
	} {
		rec := httptest.NewRecorder()
		srv.Config.Handler.ServeHTTP(rec, req.WithContext(ctx))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("cancelled %s %s: status %d, want 503: %s", req.Method, req.URL.Path, rec.Code, rec.Body)
		}
	}
}
