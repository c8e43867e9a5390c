package httpapi

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"mdw/internal/obs"
)

func init() {
	r := obs.Default()
	r.SetHelp("mdw_http_requests_total", "HTTP requests by route pattern and status class.")
	r.SetHelp("mdw_http_request_seconds", "HTTP request latency by route pattern.")
	r.SetHelp("mdw_http_write_errors_total", "Responses cut short by a failed body write (client gone), by route pattern.")
}

// statusRecorder captures the status code a handler writes so the
// middleware can attribute the request to a status class, and the first
// body write that failed: by then the status line is out, so the counter
// is the only place a truncated response shows.
type statusRecorder struct {
	http.ResponseWriter
	status   int
	writeErr error
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	if err != nil && sr.writeErr == nil {
		sr.writeErr = err
	}
	return n, err
}

// statusClass buckets a status code into "2xx"/"3xx"/"4xx"/"5xx" without
// allocating for the common cases.
func statusClass(code int) string {
	switch {
	case code >= 200 && code < 300:
		return "2xx"
	case code >= 300 && code < 400:
		return "3xx"
	case code >= 400 && code < 500:
		return "4xx"
	case code >= 500:
		return "5xx"
	}
	return strconv.Itoa(code)
}

// observe is the timing middleware every request passes through: it
// resolves the registered route pattern (so metrics aggregate by route,
// not by raw URL), times the handler, and records a per-route latency
// histogram plus a per-route, per-status-class request counter. Metric
// handles are looked up per request, but the registry's lookup is one
// RLock'd map probe on the steady state — routes and status classes are
// a small closed set.
//
// It also roots the request's trace: the "http <route>" span travels
// down through r.Context(), so every service and engine span of the
// request nests under one trace, and the trace's ID is returned in the
// X-Mdw-Trace response header — curl it back via GET /api/traces?id=.
func (s *Server) observe(rw http.ResponseWriter, r *http.Request) {
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		pattern = "(unmatched)"
	}
	sr := &statusRecorder{ResponseWriter: rw}
	sp := obs.StartSpan("http " + pattern)
	rw.Header().Set("X-Mdw-Trace", strconv.FormatUint(sp.TraceID(), 10))
	r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
	t0 := time.Now()
	s.mux.ServeHTTP(sr, r)
	d := time.Since(t0)
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	class := statusClass(sr.status)
	sp.SetLabel("status", strconv.Itoa(sr.status)).Finish()
	reg := obs.Default()
	reg.Histogram("mdw_http_request_seconds", nil, "route", pattern).Observe(d)
	reg.Counter("mdw_http_requests_total", "route", pattern, "class", class).Inc()
	if sr.writeErr != nil {
		reg.Counter("mdw_http_write_errors_total", "route", pattern).Inc()
	}
}

// MountPprof serves the runtime's profiles under /debug/pprof/ on the
// server's mux: the named ones (heap, goroutine, allocs, block, mutex,
// threadcreate) through the index, and beside it a CPU profile
// (profile?seconds=N), an execution trace (trace?seconds=N), symbol
// lookup and the command line. Off by default — mdwd enables it behind
// the -pprof flag, since profile endpoints expose internals.
func (s *Server) MountPprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// handleMetrics serves the default registry in the Prometheus text
// exposition format (version 0.0.4).
func (s *Server) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().WritePrometheus(rw)
}

// TracesResponse is the JSON shape of GET /api/traces.
type TracesResponse struct {
	Started int64       `json:"started"`
	Traces  []obs.Trace `json:"traces"`
}

// handleTraces serves the recent-trace ring. ?id=<trace id> (the
// X-Mdw-Trace value) returns that single trace, 404 when it never existed
// or has aged out of the ring; ?n= limits the number of traces listed,
// newest first.
func (s *Server) handleTraces(rw http.ResponseWriter, r *http.Request) {
	tr := obs.DefaultTracer()
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("bad ?id %q", idStr))
			return
		}
		t, ok := tr.Get(id)
		if !ok {
			writeError(rw, http.StatusNotFound, fmt.Errorf("trace %d not found (unfinished, or evicted from the %d-trace ring)", id, obs.DefaultTraceCapacity))
			return
		}
		writeJSON(rw, http.StatusOK, t)
		return
	}
	n, err := countParam(r.URL.Query(), "n")
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	resp := TracesResponse{Started: tr.Started(), Traces: tr.Recent()}
	if n >= 0 && n < len(resp.Traces) {
		resp.Traces = resp.Traces[:n]
	}
	if resp.Traces == nil {
		resp.Traces = []obs.Trace{}
	}
	writeJSON(rw, http.StatusOK, resp)
}

// StatementsResponse is the JSON shape of GET /api/statements.
type StatementsResponse struct {
	Evicted    int64               `json:"evicted"`
	Statements []obs.StatementStat `json:"statements"`
}

// handleStatements serves the per-fingerprint query statistics, sorted
// by total time descending (pg_stat_statements over HTTP). ?n= limits
// the number of rows.
func (s *Server) handleStatements(rw http.ResponseWriter, r *http.Request) {
	n, err := countParam(r.URL.Query(), "n")
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	tbl := obs.DefaultStatements()
	resp := StatementsResponse{
		Evicted:    tbl.Evicted(),
		Statements: tbl.Snapshot(),
	}
	if n >= 0 && n < len(resp.Statements) {
		resp.Statements = resp.Statements[:n]
	}
	if resp.Statements == nil {
		resp.Statements = []obs.StatementStat{}
	}
	writeJSON(rw, http.StatusOK, resp)
}
