package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mdw/internal/core"
	"mdw/internal/durable"
	"mdw/internal/httpapi"
	"mdw/internal/lineage"
	"mdw/internal/ntriples"
	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/search"
	"mdw/internal/semmatch"
	"mdw/internal/sparql"
	"mdw/internal/staging"
	"mdw/internal/store"
	"mdw/internal/textindex"
)

// maxReplay bounds the requests the ladder replays.
const maxReplay = 2000

// The ladder attributes a request's latency to the repository's packages
// without instrumenting them. The requests the live phase sent on its
// first connection are replayed, in order, inside this process against a
// warehouse built the way mdwd builds its own. Each request runs once,
// alternately per class on one of two rungs: httpapi.Server.ServeHTTP on
// a recorder, or the core.Warehouse call that handler makes. Once, so
// that the results cache, the entailment index and the store see what
// they saw live. Below the core call the layers time themselves: the
// histograms of the sparql, search and lineage packages are read before
// and after each call. A self time is taken per request, the call's
// duration minus what the layers below it timed during that call, and
// reported as the median over the class's requests. The medians of a
// class's column need not add up to its live median: ladder_closure_pct
// says how far they are from it.

// timers reads the layers' own busy-time histograms, in milliseconds.
type timers struct {
	parse, plan, exec, search, trace, rollup, fsync float64
}

func readTimers() timers {
	h := func(name string) float64 { return 1000 * obs.Default().Histogram(name, nil).Sum() }
	return timers{
		parse: h("mdw_sparql_parse_seconds"), plan: h("mdw_sparql_plan_seconds"), exec: h("mdw_sparql_exec_seconds"),
		search: h("mdw_search_seconds"), trace: h("mdw_lineage_trace_seconds"), rollup: h("mdw_lineage_rollup_seconds"),
		fsync: h("mdw_wal_fsync_seconds"),
	}
}

// leaves picks, from the timers' advance over one call, the layers a
// request of the class runs through, by metric name, and returns their
// sum.
func (t timers) leaves(class string, into map[string]float64) float64 {
	switch class {
	case ClassSearch, ClassVisible:
		into["search.busy_ms"] = t.search
		return t.search
	case ClassLineage:
		into["lineage.trace_ms"], into["lineage.rollup_ms"] = t.trace, t.rollup
		return t.trace + t.rollup
	case ClassListing1, ClassListing2, ClassQueryPoint, ClassQueryJoin, ClassQueryScan:
		into["sparql.parse_ms"], into["sparql.plan_ms"], into["sparql.exec_ms"] = t.parse, t.plan, t.exec
		return t.parse + t.plan + t.exec
	case ClassLoad:
		into["durable.fsync_ms"] = t.fsync
		return t.fsync
	}
	return 0
}

// minReplayed is how many replayed requests a class needs before its
// closure counts: below that a rung is a handful of samples.
const minReplayed = 20

// classLadder is what the replay measured for one request class. Every
// time is a median in milliseconds.
type classLadder struct {
	N         int     `json:"requests"`
	LiveP50   float64 `json:"live_p50_ms"`
	ServeHTTP float64 `json:"httpapi.ServeHTTP_ms"`
	Core      float64 `json:"core_call_ms"`
	// Leaves are the layers below the core call.
	Leaves map[string]float64 `json:"leaves_ms"`
	// Transport is the live median minus the ServeHTTP median: the two
	// run in different processes. HTTPAPI and CoreSelf are medians of
	// per-request self times. None is below zero.
	Transport float64 `json:"transport.self_ms"`
	HTTPAPI   float64 `json:"httpapi.self_ms"`
	CoreSelf  float64 `json:"core.self_ms"`
	// ClosurePct is |live median - (self times + leaves)| / live median.
	ClosurePct float64 `json:"ladder_closure_pct"`

	rung [2][]float64 // ServeHTTP and core call durations
	// aboveTimers is, per rung, the call minus the layers that time
	// themselves, which both rungs see alike; coreSelf the core call minus
	// every leaf.
	aboveTimers [2][]float64
	coreSelf    []float64
	mallocs     [2][]float64
	respBytes   []float64
	leaf        map[string][]float64
	units       []float64 // postings per search, nodes per lineage graph
}

// inproc is a warehouse built inside the benchmark process, with the
// HTTP handler mdwd would put in front of it.
type inproc struct {
	w   *core.Warehouse
	mgr *durable.Manager
	srv *httpapi.Server
}

func (p *inproc) close() {
	if p.mgr != nil {
		p.mgr.Close() //mdwlint:allow syncerr the replay is over and its directory is removed next
	}
}

// buildInproc builds a warehouse the way mdwd does: durable when dir is
// set (-fsync always, no background checkpoints), seeded from the data
// set unless the directory brought a graph back, then the entailment
// index unless recovery brought a current one back, then the text index.
func buildInproc(seed, dir string) (*inproc, error) {
	p := &inproc{w: core.New("")}
	if dir != "" {
		w, mgr, err := core.OpenDurable("", durable.Options{Dir: dir, Fsync: durable.FsyncAlways})
		if err != nil {
			return nil, err
		}
		p.w, p.mgr = w, mgr
	}
	st, model := p.w.Store(), p.w.Model()
	err := error(nil)
	if st.Len(model) == 0 {
		err = core.LoadDirInto(p.w, seed)
	}
	if err == nil && !st.Current(model, reason.IndexModelName(model, reason.RulebaseOWLPrime)) {
		_, err = p.w.Reindex()
	}
	if err == nil {
		_, err = p.w.TextIndex()
	}
	if err != nil {
		p.close()
		return nil, err
	}
	p.srv = httpapi.NewServer(p.w)
	if p.mgr != nil {
		p.srv.SetDurable(p.mgr)
	}
	return p, nil
}

func item(path string) rdf.Term { return staging.InstanceIRI(strings.Split(path, "/")...) }

// coreCall makes the core.Warehouse call (or, where the handler goes to
// a service directly, the service calls) that the request's handler
// makes. It returns the size of the result in the class's own unit and
// adds to parts the steps it can time apart.
func (p *inproc) coreCall(ctx context.Context, r Request, parts map[string]float64) (units int, err error) {
	u, err := url.Parse(r.Path)
	if err != nil {
		return 0, err
	}
	q := u.Query()
	switch r.Class {
	case ClassSearch, ClassVisible:
		_, err := p.w.SearchCtx(ctx, q.Get("term"), search.Options{Semantic: q.Get("semantic") == "1", MaxHitsPerGroup: 10})
		return 0, err
	case ClassLineage:
		dir, level := lineage.Backward, lineage.LevelAttribute
		if q.Get("dir") == "forward" {
			dir = lineage.Forward
		}
		if q.Get("level") == "application" {
			level = lineage.LevelApplication
		}
		svc := p.w.LineageService()
		g, err := svc.TraceCtx(ctx, item(q.Get("item")), dir, lineage.Options{})
		if err != nil {
			return 0, err
		}
		n := len(g.Nodes)
		_, err = svc.RollupCtx(ctx, g, level)
		return n, err
	case ClassAudit:
		_, err := p.w.Audit(item(q.Get("item")), true)
		return 0, err
	case ClassListing1, ClassListing2:
		_, err := p.w.SemMatchCtx(ctx, r.Body)
		return 0, err
	case ClassQueryPoint, ClassQueryJoin, ClassQueryScan:
		_, err := p.w.QueryCtx(ctx, q.Get("q"))
		return 0, err
	case ClassLoad:
		s := time.Now()
		ts, err := ntriples.Unmarshal(r.Body)
		if err != nil {
			return 0, err
		}
		parsed := time.Now()
		p.w.LoadTriples(ts)
		parts["ntriples.parse_ms"], parts["store.add_ms"] = ms(parsed.Sub(s)), ms(time.Since(parsed))
		return 0, nil
	case ClassCheckpoint:
		_, err := p.mgr.Checkpoint()
		return 0, err
	}
	return 0, fmt.Errorf("ladder: no core call for class %s", r.Class)
}

// lookup times textindex.Index.SearchAny for the terms a search request
// expands to, and counts the postings it returns.
func (p *inproc) lookup(r Request) (postings int, dur float64, err error) {
	u, err := url.Parse(r.Path)
	if err != nil {
		return 0, 0, err
	}
	term := u.Query().Get("term")
	terms := []string{strings.ToLower(term)}
	if th := p.w.Thesaurus(); th != nil && u.Query().Get("semantic") == "1" {
		terms = th.Expand(term)
	}
	ix, err := p.w.TextIndex()
	if err != nil {
		return 0, 0, err
	}
	s := time.Now()
	n := len(ix.SearchAny(terms, textindex.FieldName))
	return n, ms(time.Since(s)), nil
}

// mallocs is the process's cumulative heap allocation count. The replay
// is single-threaded, so a difference belongs to the call in between.
func mallocs() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}

// ladder replays the live phase's requests in-process, fills the ladder
// metrics of res and writes trace-<workload>.json.
func (cfg Config) ladder(ctx context.Context, res *Result, live *liveRun) (err error) {
	reqs := live.requests
	if len(reqs) > maxReplay {
		reqs = reqs[:maxReplay]
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eph, err := buildInproc(cfg.seed, "")
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st, model := eph.w.Store(), eph.w.Model()
	res.PerLayer["store.bytes_per_triple"] = ratio(float64(after.HeapInuse)-float64(before.HeapInuse),
		float64(st.Len(model)+st.Len(reason.IndexModelName(model, reason.RulebaseOWLPrime))))

	target := eph
	if cfg.Workload == ReleaseCycle {
		dir, mkErr := os.MkdirTemp(cfg.Work, "ladder-")
		if mkErr != nil {
			return mkErr
		}
		defer func() {
			if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
				err = rmErr
			}
		}()
		if target, err = buildInproc(cfg.seed, dir); err != nil {
			return err
		}
		defer target.close()
	} else {
		// Bring the results cache to where the live phase found it.
		for _, r := range GoldenSet(cfg.truth, cfg.Workload) {
			if _, err := target.coreCall(ctx, r, map[string]float64{}); err != nil {
				return fmt.Errorf("ladder warm-up: %w", err)
			}
		}
	}

	epoch := time.Now()
	us := func(t time.Time) float64 { return float64(t.Sub(epoch).Microseconds()) }
	spans := append([]Span(nil), live.rec.spans...)
	classes := map[string]*classLadder{}
	rungNames := [2]string{"httpapi.Server.ServeHTTP", "core.Warehouse"}
	for i, r := range reqs {
		c := classes[r.Class]
		if c == nil {
			c = &classLadder{Leaves: map[string]float64{}, leaf: map[string][]float64{}}
			classes[r.Class] = c
		}
		rung := c.N % 2
		c.N++
		parts := map[string]float64{}
		units := 0
		// Counting allocations stops the world and empties the allocator's
		// caches, which the call after it pays for: count on one request
		// in eight of each rung.
		counted := (c.N-1)/2%8 == 0
		var m0 float64
		if counted {
			m0 = mallocs()
		}
		t0, start := readTimers(), time.Now()
		if rung == 0 {
			rw := httptest.NewRecorder()
			target.srv.ServeHTTP(rw, httptest.NewRequest(r.Method, r.Path, strings.NewReader(r.Body)))
			if rw.Code != http.StatusOK {
				return fmt.Errorf("ladder: %s %s: status %d: %.200s", r.Method, r.Path, rw.Code, rw.Body.Bytes())
			}
			if err := r.Verify(rw.Body.Bytes()); err != nil {
				return fmt.Errorf("ladder: %w", err)
			}
			c.respBytes = append(c.respBytes, float64(rw.Body.Len()))
		} else if units, err = target.coreCall(ctx, r, parts); err != nil {
			return fmt.Errorf("ladder: %s %s: %w", r.Method, r.Path, err)
		}
		end := time.Now()
		t1 := readTimers()
		if counted {
			c.mallocs[rung] = append(c.mallocs[rung], mallocs()-m0)
		}
		dur := ms(end.Sub(start))
		c.rung[rung] = append(c.rung[rung], dur)
		selfTimed := timers{t1.parse - t0.parse, t1.plan - t0.plan, t1.exec - t0.exec, t1.search - t0.search,
			t1.trace - t0.trace, t1.rollup - t0.rollup, t1.fsync - t0.fsync}.leaves(r.Class, parts)
		c.aboveTimers[rung] = append(c.aboveTimers[rung], dur-selfTimed)
		if rung == 1 {
			// Two handlers call one function that is a layer by itself.
			switch r.Class {
			case ClassAudit:
				parts["audit.busy_ms"] = dur
			case ClassCheckpoint:
				parts["durable.checkpoint_ms"] = dur
			case ClassLineage:
				c.units = append(c.units, float64(units))
			}
		}
		// Two leaves have neither a timer of their own nor a side effect,
		// so they are called once more, apart.
		switch r.Class {
		case ClassListing1, ClassListing2:
			s := time.Now()
			if _, err := semmatch.ParseCall(r.Body); err != nil {
				return err
			}
			parts["semmatch.parse_ms"] = ms(time.Since(s))
		case ClassSearch:
			n, d, err := target.lookup(r)
			if err != nil {
				return err
			}
			parts["textindex.lookup_ms"] = d
			c.units = append(c.units, float64(n))
		}
		// Two timers include a layer that is timed apart as well.
		nested := func(outer, inner string) {
			if _, ok := parts[outer]; ok {
				parts[outer] = max(0, parts[outer]-parts[inner])
			}
		}
		nested("search.busy_ms", "textindex.lookup_ms")
		nested("store.add_ms", "durable.fsync_ms")
		if rung == 1 {
			below := 0.0
			for _, d := range parts {
				below += d
			}
			c.coreSelf = append(c.coreSelf, dur-below)
		}
		spans = append(spans, Span{Req: i + 1, Class: r.Class, Name: rungNames[rung], Start: us(start), End: us(end)})
		for name, d := range parts {
			c.leaf[name] = append(c.leaf[name], d)
			// A layer that timed itself does not say when in the call it ran.
			spans = append(spans, Span{Req: i + 1, Class: r.Class, Parent: rungNames[rung], Name: strings.TrimSuffix(name, "_ms"),
				Start: us(start), End: us(start) + 1000*d})
		}
	}

	cfg.ladderMetrics(res, live, classes)
	cfg.analyzeSample(ctx, res, target, reqs)
	if err := cfg.storeMicro(res, eph); err != nil {
		return err
	}

	out, err := json.MarshalIndent(map[string]any{
		"workload": cfg.Workload, "seed": cfg.Seed, "classes": classes, "spans": spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.Work, "trace-"+cfg.Workload+".json"), out, 0o644)
}

// ladderMetrics turns the per-class measurements into self times and the
// workload's per-layer metrics. A class's times are medians; a per-layer
// metric is the mean over the replayed requests of their class's median,
// so that the layers add up to the cost of a typical request of the mix.
func (cfg Config) ladderMetrics(res *Result, live *liveRun, classes map[string]*classLadder) {
	p := res.PerLayer
	rungs := []string{"transport.self_ms", "httpapi.self_ms", "core.self_ms", "httpapi.resp_kb", "httpapi.allocs_per_req"}
	leaves := []string{"textindex.lookup_ms", "search.busy_ms", "lineage.trace_ms", "lineage.rollup_ms", "audit.busy_ms",
		"semmatch.parse_ms", "sparql.parse_ms", "sparql.plan_ms", "sparql.exec_ms"}
	var total, closure float64
	for class, c := range classes {
		n := float64(c.N)
		total += n
		c.LiveP50 = quantile(live.rec.lat[class], 0.5)
		c.ServeHTTP, c.Core = quantile(c.rung[0], 0.5), quantile(c.rung[1], 0.5)
		for name, samples := range c.leaf {
			c.Leaves[name] = quantile(samples, 0.5)
		}
		var below float64
		for _, v := range c.Leaves {
			below += v
		}
		c.Transport = max(0, c.LiveP50-c.ServeHTTP)
		c.HTTPAPI = max(0, quantile(c.aboveTimers[0], 0.5)-quantile(c.aboveTimers[1], 0.5))
		c.CoreSelf = max(0, quantile(c.coreSelf, 0.5))
		c.ClosurePct = 100 * ratio(math.Abs(c.LiveP50-(c.Transport+c.HTTPAPI+c.CoreSelf+below)), c.LiveP50)
		if c.LiveP50 >= 1 && c.N >= minReplayed {
			closure = max(closure, c.ClosurePct)
		}
		p["transport.self_ms"] += n * c.Transport
		p["httpapi.self_ms"] += n * c.HTTPAPI
		p["core.self_ms"] += n * c.CoreSelf
		p["httpapi.resp_kb"] += n * quantile(c.respBytes, 0.5) / 1024
		p["httpapi.allocs_per_req"] += n * max(0, quantile(c.mallocs[0], 0.5)-quantile(c.mallocs[1], 0.5))
		for _, name := range leaves {
			p[name] += n * c.Leaves[name]
		}
		switch class {
		case ClassSearch:
			p["textindex.postings_per_req"] = mean(c.units)
		case ClassLineage:
			p["lineage.nodes_per_req"] = mean(c.units)
		}
	}
	for _, name := range append(rungs, leaves...) {
		p[name] = ratio(p[name], total)
	}
	p["ladder_closure_pct"] = closure
}

// analyzeSample runs the first few SPARQL requests of each class once
// more under EXPLAIN ANALYZE, which bypasses the results cache, and
// reports what the executor examined per row it returned.
func (cfg Config) analyzeSample(ctx context.Context, res *Result, p *inproc, reqs []Request) {
	const perClass = 4
	seen := map[string]int{}
	var scanned, decoded, rows float64
	for _, r := range reqs {
		if seen[r.Class] >= perClass {
			continue
		}
		var stats *sparql.ExecStats
		var err error
		switch r.Class {
		case ClassListing1, ClassListing2:
			_, stats, err = p.w.SemMatchAnalyzeCtx(ctx, r.Body)
		case ClassQueryPoint, ClassQueryJoin, ClassQueryScan:
			var u *url.URL
			if u, err = url.Parse(r.Path); err == nil {
				_, stats, err = p.w.QueryAnalyzeCtx(ctx, u.Query().Get("q"))
			}
		default:
			continue
		}
		seen[r.Class]++
		if err == nil {
			scanned, decoded, rows = scanned+float64(stats.RowsScanned), decoded+float64(stats.TermDecodes), rows+float64(stats.Rows)
		}
	}
	res.PerLayer["sparql.rows_scanned_per_row"] = ratio(scanned, rows)
	res.PerLayer["sparql.terms_decoded_per_row"] = ratio(decoded, rows)
}

// storeMicro times the store calls the services are built on. Pattern
// counts on sampled columns and the first release delta, parsed and
// added batch by batch, run against the full-size ephemeral warehouse;
// the adds mutate it and therefore come last. The cost of the commit
// hook is the same batches added to two empty stores, one of them
// write-ahead logged without fsync.
func (cfg Config) storeMicro(res *Result, eph *inproc) (err error) {
	st := eph.w.Store()
	dict := st.Dict()
	view := st.ViewOf(eph.w.Model(), reason.IndexModelName(eph.w.Model(), reason.RulebaseOWLPrime))
	mapped, _ := dict.Lookup(rdf.IRI(rdf.MDWIsMappedTo))
	var calls int
	start := time.Now()
	for i := 0; i < len(cfg.truth.Chains) && calls < 2000; i += max(1, len(cfg.truth.Chains)/1000) {
		if id, ok := dict.Lookup(item(cfg.truth.Chains[i][0])); ok {
			_ = view.Count(id, store.Wildcard, store.Wildcard)
			_ = view.Count(store.Wildcard, mapped, id)
			calls += 2
		}
	}
	res.PerLayer["store.match_us"] = ratio(1000*ms(time.Since(start)), float64(calls))

	var batches [][]rdf.Triple
	var triples float64
	start = time.Now()
	for _, b := range cfg.deltas[0].Batches() {
		ts, err := ntriples.Unmarshal(b)
		if err != nil {
			return err
		}
		batches = append(batches, ts)
		triples += float64(len(ts))
	}
	res.PerLayer["ntriples.parse_us_per_triple"] = ratio(1000*ms(time.Since(start)), triples)
	addAll := func(s *store.Store) float64 {
		start := time.Now()
		for _, ts := range batches {
			s.AddAll(eph.w.Model(), ts)
		}
		return ratio(1000*ms(time.Since(start)), triples)
	}
	res.PerLayer["store.add_us_per_triple"] = addAll(st)
	if cfg.Workload != ReleaseCycle {
		return nil // durable does none of the work of the read workloads
	}
	dir, err := os.MkdirTemp(cfg.Work, "ladder-")
	if err != nil {
		return err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
	}()
	mgr, logged, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncNone})
	if err != nil {
		return err
	}
	res.PerLayer["durable.wal_append_us_per_triple"] = max(0, addAll(logged)-addAll(store.New()))
	return mgr.Close()
}
