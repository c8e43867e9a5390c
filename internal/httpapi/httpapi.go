// Package httpapi exposes the meta-data warehouse services over HTTP —
// the role of the web frontend whose screenshots are Figures 6 and 7 of
// the paper. The JSON API mirrors the two use cases (search and
// lineage/provenance) plus direct SPARQL access and the statistics
// reports; GET / serves a minimal single-page frontend.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"mdw/internal/core"
	"mdw/internal/durable"
	"mdw/internal/lineage"
	"mdw/internal/ntriples"
	"mdw/internal/rdf"
	"mdw/internal/search"
	"mdw/internal/sparql"
	"mdw/internal/staging"
)

// Server wraps a warehouse with HTTP handlers.
type Server struct {
	w   *core.Warehouse
	mux *http.ServeMux
	// mgr is the durability manager when the server runs with a data
	// directory; nil otherwise (POST /api/checkpoint then answers 503).
	mgr *durable.Manager
	// readiness gates GET /readyz. nil means always ready (embedded and
	// test servers); mdwd installs a probe that flips once recovery and
	// index builds finish. Set before serving; the probe itself must be
	// safe for concurrent calls.
	readiness func() (bool, string)
}

// NewServer returns a server for the given warehouse.
func NewServer(w *core.Warehouse) *Server {
	s := &Server{w: w, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /api/search", s.handleSearch)
	s.mux.HandleFunc("GET /api/lineage", s.handleLineage)
	s.mux.HandleFunc("GET /api/audit", s.handleAudit)
	s.mux.HandleFunc("GET /api/query", s.handleQuery)
	s.mux.HandleFunc("POST /api/semmatch", s.handleSemMatch)
	s.mux.HandleFunc("GET /api/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/versions", s.handleVersions)
	s.mux.HandleFunc("GET /api/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/traces", s.handleTraces)
	s.mux.HandleFunc("GET /api/statements", s.handleStatements)
	s.mux.HandleFunc("POST /api/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("POST /api/clone", s.handleClone)
	s.mux.HandleFunc("POST /api/load", s.handleLoad)
	// Liveness: the process is up and serving. Always 200 — a wedged
	// recovery is a readiness problem, not a liveness one.
	s.mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
		fmt.Fprintln(rw, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	return s
}

// ServeHTTP implements http.Handler. Every request passes through the
// observe middleware, which times it and feeds the per-route metrics.
func (s *Server) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	s.observe(rw, r)
}

// SetDurable attaches the durability manager backing the warehouse, which
// enables POST /api/checkpoint.
func (s *Server) SetDurable(mgr *durable.Manager) { s.mgr = mgr }

// SetReadiness installs the probe behind GET /readyz: not-ready answers
// 503 with the probe's reason, ready answers 200. Call before serving;
// the probe runs on request goroutines and must be concurrency-safe
// (mdwd's reads an atomic flag flipped when startup work completes).
func (s *Server) SetReadiness(probe func() (bool, string)) { s.readiness = probe }

// handleReadyz serves the readiness probe: 200 once the warehouse can
// answer queries (durable recovery replayed, entailment and text indexes
// built), 503 with the blocking stage before that. Load balancers and
// orchestration hold traffic until the flip; /healthz stays 200 all the
// while.
func (s *Server) handleReadyz(rw http.ResponseWriter, _ *http.Request) {
	if s.readiness != nil {
		if ok, reason := s.readiness(); !ok {
			rw.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(rw, "not ready: "+reason)
			return
		}
	}
	rw.WriteHeader(http.StatusOK)
	fmt.Fprintln(rw, "ready")
}

// handleCheckpoint forces a checkpoint: a consistent snapshot of the
// whole store is written and the WAL segments it covers are removed. The
// response is the checkpoint's CheckpointStats.
func (s *Server) handleCheckpoint(rw http.ResponseWriter, r *http.Request) {
	if s.mgr == nil {
		writeError(rw, http.StatusServiceUnavailable, fmt.Errorf("durability not enabled (start mdwd with -data-dir)"))
		return
	}
	stats, err := s.mgr.Checkpoint()
	if err != nil {
		writeError(rw, http.StatusInternalServerError, err)
		return
	}
	writeJSON(rw, http.StatusOK, stats)
}

// CloneResponse is the JSON shape of a completed model clone.
type CloneResponse struct {
	Src     string `json:"src"`
	Dst     string `json:"dst"`
	Triples int    `json:"triples"`
}

// handleClone clones a model (?src, defaulting to the base model) into
// ?dst through the store's copy-on-write path. The clone starts at a
// fresh generation, so results cached for the source never leak into
// queries over the clone, and vice versa.
func (s *Server) handleClone(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	dst := q.Get("dst")
	if dst == "" {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("missing ?dst"))
		return
	}
	n, err := s.w.CloneModel(q.Get("src"), dst)
	if err != nil {
		// A reserved destination name is the caller's to fix; a taken
		// destination or a missing source conflicts with the store's state.
		status := http.StatusConflict
		if errors.Is(err, core.ErrBadQuery) {
			status = http.StatusBadRequest
		}
		writeError(rw, status, err)
		return
	}
	src := q.Get("src")
	if src == "" {
		src = s.w.Model()
	}
	writeJSON(rw, http.StatusOK, CloneResponse{Src: src, Dst: dst, Triples: n})
}

// maxLoadBytes bounds the body of one /api/load request, and
// loadPrealloc the room reserved for it before its first byte arrives:
// a release's 200-triple batch fits, and a declared length beyond it
// costs memory only as its bytes come in.
const (
	maxLoadBytes = 16 << 20
	loadPrealloc = 64 << 10
)

// handleLoad adds raw triples to the base model, posted as N-Triples
// text (the auxiliary-triples path of `mdw generate`). The write bumps
// the model generation, so cached query results and the entailment
// index are invalidated implicitly. A body that declares a length up to
// loadPrealloc is read without regrowing the buffer.
func (s *Server) handleLoad(rw http.ResponseWriter, r *http.Request) {
	var body bytes.Buffer
	body.Grow(int(min(max(r.ContentLength, 0), loadPrealloc)) + bytes.MinRead)
	if _, err := body.ReadFrom(http.MaxBytesReader(rw, r.Body, maxLoadBytes)); err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	ts, err := ntriples.Unmarshal(body.String())
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if len(ts) == 0 {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("no triples in request body"))
		return
	}
	added := s.w.LoadTriples(ts)
	writeJSON(rw, http.StatusOK, map[string]int{"parsed": len(ts), "added": added})
}

// writeJSON answers every route but the two SPARQL ones and search (see
// serveEncoded) with v as compact JSON; pipe through `jq .` to read it.
func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	// The status line is out, so a failed write (client gone) has no one
	// left to tell; the observe middleware counts it.
	_ = json.NewEncoder(rw).Encode(v)
}

// presized returns an empty slice with room for n elements, or nil when
// n is 0: an empty list has always been encoded as null (a lineage
// without edges answers "edges":null), and stays so.
func presized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

func writeError(rw http.ResponseWriter, status int, err error) {
	writeJSON(rw, status, map[string]string{"error": err.Error()})
}

// countParam reads the optional count parameter name: -1 when it is
// absent or empty, an error naming it when it is not a non-negative
// integer.
func countParam(q url.Values, name string) (int, error) {
	v := q.Get(name)
	if v == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad ?%s=%q (want a non-negative integer)", name, v)
	}
	return n, nil
}

// serveError answers a failed service call under the status its kind
// deserves: 503 when the request was cancelled or ran out of time, 400
// when the request is the client's to fix, 404 when it names an item the
// graph does not hold, 500 otherwise.
func serveError(rw http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusServiceUnavailable
	case errors.Is(err, core.ErrBadQuery):
		status = http.StatusBadRequest
	case errors.Is(err, lineage.ErrUnknownItem):
		status = http.StatusNotFound
	}
	writeError(rw, status, err)
}

// --- search ---

// SearchHit is the JSON shape of one search hit.
type SearchHit struct {
	IRI     string `json:"iri"`
	Name    string `json:"name"`
	Matched string `json:"matched"`
}

// SearchGroup is one class bucket of the Figure 6 result list.
type SearchGroup struct {
	Class string      `json:"class"`
	Label string      `json:"label"`
	Count int         `json:"count"`
	Hits  []SearchHit `json:"hits,omitempty"`
}

// SearchResponse is the JSON shape of a search result, for clients to
// decode into (with SearchGroup and SearchHit). The server never builds
// one: serveSearch writes the same members straight from the
// search.Result, a group listing no hit without "hits" and a term
// matching nothing with "groups":null.
type SearchResponse struct {
	Term      string        `json:"term"`
	Expanded  []string      `json:"expanded"`
	Instances int           `json:"instances"`
	Groups    []SearchGroup `json:"groups"`
}

func (s *Server) handleSearch(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	term := q.Get("term")
	if strings.TrimSpace(term) == "" {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("missing ?term"))
		return
	}
	opt := search.Options{
		Area:              q.Get("area"),
		Layer:             q.Get("layer"),
		Tag:               q.Get("tag"),
		Semantic:          q.Get("semantic") == "true" || q.Get("semantic") == "1",
		MatchDescriptions: q.Get("desc") == "true" || q.Get("desc") == "1",
		MaxHitsPerGroup:   10,
	}
	hits, err := countParam(q, "hits")
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if hits >= 0 {
		opt.MaxHitsPerGroup = hits // 0 lists every hit
	}
	for _, c := range strings.Split(q.Get("class"), ",") {
		if c = strings.TrimSpace(c); c != "" {
			if !strings.Contains(c, "://") {
				c = rdf.DMNS + c
			}
			opt.FilterClasses = append(opt.FilterClasses, c)
		}
	}
	res, err := s.w.SearchCtx(r.Context(), term, opt)
	if err != nil {
		serveError(rw, err)
		return
	}
	serveSearch(rw, r, res)
}

// --- lineage ---

// LineageNode is the JSON shape of one lineage node.
type LineageNode struct {
	IRI     string   `json:"iri"`
	Name    string   `json:"name"`
	Depth   int      `json:"depth"`
	Classes []string `json:"classes,omitempty"`
}

// LineageEdge is one mapping hop.
type LineageEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Rule string `json:"rule,omitempty"`
}

// LineageResponse is the JSON shape of a lineage graph.
type LineageResponse struct {
	Root      string        `json:"root"`
	Direction string        `json:"direction"`
	Level     string        `json:"level"`
	Nodes     []LineageNode `json:"nodes"`
	Edges     []LineageEdge `json:"edges"`
}

func (s *Server) handleLineage(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	itemPath := q.Get("item")
	if itemPath == "" {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("missing ?item (slash-separated path or full IRI)"))
		return
	}
	var item rdf.Term
	if strings.Contains(itemPath, "://") {
		item = rdf.IRI(itemPath)
	} else {
		item = staging.InstanceIRI(strings.Split(itemPath, "/")...)
	}
	// Validate every parameter before running the traversal: a bad
	// ?level must cost a 400, not a full lineage trace plus a 400.
	dir := lineage.Backward
	switch q.Get("dir") {
	case "", "backward":
	case "forward":
		dir = lineage.Forward
	default:
		writeError(rw, http.StatusBadRequest, fmt.Errorf("bad ?dir (want backward or forward)"))
		return
	}
	level := lineage.LevelAttribute
	switch q.Get("level") {
	case "", "attribute":
	case "relation":
		level = lineage.LevelRelation
	case "schema":
		level = lineage.LevelSchema
	case "application":
		level = lineage.LevelApplication
	default:
		writeError(rw, http.StatusBadRequest, fmt.Errorf("bad ?level (want attribute, relation, schema, or application)"))
		return
	}
	depth, err := countParam(q, "depth")
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	opt := lineage.Options{MaxDepth: max(depth, 0)} // 0 is unbounded
	if rule := q.Get("rule"); rule != "" {
		opt.RuleFilter = func(r string) bool { return strings.Contains(r, rule) }
	}
	svc := s.w.LineageService()
	g, err := svc.TraceCtx(r.Context(), item, dir, opt)
	if err == nil {
		g, err = svc.RollupCtx(r.Context(), g, level)
	}
	if err != nil {
		serveError(rw, err)
		return
	}
	resp := LineageResponse{
		Root:      g.Root.Value,
		Direction: g.Direction.String(),
		Level:     level.String(),
		Nodes:     presized[LineageNode](len(g.Nodes)),
		Edges:     presized[LineageEdge](len(g.Edges)),
	}
	for _, n := range g.Nodes {
		node := LineageNode{IRI: n.IRI.Value, Name: n.Name, Depth: n.Depth}
		node.Classes = presized[string](len(n.Classes))
		for _, c := range n.Classes {
			node.Classes = append(node.Classes, rdf.LocalName(c))
		}
		resp.Nodes = append(resp.Nodes, node)
	}
	for _, e := range g.Edges {
		resp.Edges = append(resp.Edges, LineageEdge{From: e.From.Value, To: e.To.Value, Rule: e.Rule})
	}
	writeJSON(rw, http.StatusOK, resp)
}

// --- audit ---

// AuditGrant is one access relationship in the JSON report.
type AuditGrant struct {
	User      string `json:"user"`
	Role      string `json:"role"`
	RoleClass string `json:"roleClass,omitempty"`
	App       string `json:"app"`
	Via       string `json:"via"`
}

// AuditResponse is the JSON shape of an access audit.
type AuditResponse struct {
	Item   string       `json:"item"`
	Apps   []string     `json:"apps"`
	Users  []string     `json:"users"`
	Grants []AuditGrant `json:"grants"`
}

func (s *Server) handleAudit(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	itemPath := q.Get("item")
	if itemPath == "" {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("missing ?item"))
		return
	}
	var item rdf.Term
	if strings.Contains(itemPath, "://") {
		item = rdf.IRI(itemPath)
	} else {
		item = staging.InstanceIRI(strings.Split(itemPath, "/")...)
	}
	withLineage := q.Get("lineage") != "false"
	rep, err := s.w.Audit(item, withLineage)
	if err != nil {
		serveError(rw, err)
		return
	}
	resp := AuditResponse{
		Item:   rep.Item.Value,
		Users:  rep.Users(),
		Apps:   presized[string](len(rep.Apps)),
		Grants: presized[AuditGrant](len(rep.Grants)),
	}
	for _, a := range rep.Apps {
		resp.Apps = append(resp.Apps, a.Value)
	}
	for _, g := range rep.Grants {
		resp.Grants = append(resp.Grants, AuditGrant{
			User: g.UserName, Role: g.RoleName, RoleClass: g.RoleClass,
			App: g.AppName, Via: g.Via,
		})
	}
	writeJSON(rw, http.StatusOK, resp)
}

// --- query ---

// QueryResponse is the JSON shape of a SPARQL result, for clients to
// decode into. The server never builds one: serveResult streams the same
// members straight from the sparql.Result.
type QueryResponse struct {
	Vars []string            `json:"vars"`
	Rows []map[string]string `json:"rows"`
	Ask  *bool               `json:"ask,omitempty"`
	// Triples carries CONSTRUCT results in N-Triples syntax.
	Triples []string `json:"triples,omitempty"`
	// Stats and AnalyzedPlan are present with ?analyze=1: the operator
	// stats tree of the execution that produced this result, and its
	// EXPLAIN ANALYZE rendering.
	Stats        *sparql.ExecStats `json:"stats,omitempty"`
	AnalyzedPlan string            `json:"analyzedPlan,omitempty"`
}

// queryOptions reads the options both SPARQL routes take from the URL:
// ?analyze=1 opts into EXPLAIN ANALYZE, ?facts=only leaves the entailment
// out.
func queryOptions(r *http.Request) core.QueryOptions {
	q := r.URL.Query()
	return core.QueryOptions{
		FactsOnly: q.Get("facts") == "only",
		Analyze:   q.Get("analyze") == "1" || q.Get("analyze") == "true",
	}
}

// serveQuery answers with the outcome of a Warehouse.Query or SemMatch
// call: the streamed result, or the error under the status its kind
// deserves (see serveError).
func serveQuery(rw http.ResponseWriter, r *http.Request, resp core.Response, err error) {
	if err != nil {
		serveError(rw, err)
		return
	}
	serveResult(rw, r, resp.Result, resp.Stats)
}

func (s *Server) handleQuery(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("missing ?q"))
		return
	}
	resp, err := s.w.Query(r.Context(), q, queryOptions(r))
	serveQuery(rw, r, resp, err)
}

// handleSemMatch executes an Oracle-style SEM_MATCH call posted as the
// request body (text/plain).
func (s *Server) handleSemMatch(rw http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, 1<<20))
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	resp, err := s.w.SemMatch(r.Context(), string(body), queryOptions(r))
	serveQuery(rw, r, resp, err)
}

// --- stats / versions ---

func (s *Server) handleStats(rw http.ResponseWriter, _ *http.Request) {
	st := s.w.Stats()
	writeJSON(rw, http.StatusOK, map[string]any{
		"model":    st.Model,
		"triples":  st.Triples,
		"derived":  st.Derived,
		"nodes":    st.Nodes,
		"versions": st.Versions,
		// Index health: whether the OWLPRIME entailment matches the base
		// model, and the cached full-text indexes powering /api/search.
		"indexCurrent": st.IndexCurrent,
		"textIndexes":  st.TextIndex,
	})
}

func (s *Server) handleVersions(rw http.ResponseWriter, _ *http.Request) {
	type ver struct {
		Number  int    `json:"number"`
		Tag     string `json:"tag"`
		At      string `json:"at"`
		Triples int    `json:"triples"`
		Pruned  bool   `json:"pruned,omitempty"`
	}
	// Initialized non-nil so an empty history marshals as [], not null.
	out := []ver{}
	for _, v := range s.w.History().Versions() {
		out = append(out, ver{Number: v.Number, Tag: v.Tag, At: v.At.Format("2006-01-02"), Triples: v.Triples, Pruned: v.Pruned})
	}
	writeJSON(rw, http.StatusOK, out)
}

func (s *Server) handleIndex(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = rw.Write([]byte(indexHTML))
}
