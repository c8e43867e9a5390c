package bench

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Workload names.
const (
	PortalRead   = "portal_read"
	AdhocQuery   = "adhoc_query"
	ReleaseCycle = "release_cycle"
)

// Workloads lists the workloads in running order.
var Workloads = []string{PortalRead, AdhocQuery, ReleaseCycle}

// setupRuns is how many times a run starts the server from scratch;
// setup_s is the median. The last start serves the workload.
const setupRuns = 2

// cycleSeconds sizes release_cycle: one cycle per cycleSeconds of
// --seconds, at least two. The count is fixed by --seconds, not by the
// clock, so that the WAL, fsync and checkpoint counts of two runs are
// identical.
const cycleSeconds = 5

// Instance is one running server. The benchmark's instances are mdwd
// processes; the smoke test serves the same handler in-process.
type Instance interface {
	BaseURL() string
	SetupTime() time.Duration
	Alive() bool
	// Kill ends the server with no chance to flush anything.
	Kill()
	PeakRSSMB() float64
	CPUSeconds() float64
	// Settle waits until the server has finished what it does after it
	// turns ready. The seed's mdwd takes a census of the store for its
	// log line then, unsynchronized with writers: a load that arrives
	// during it aborts the process (ROADMAP, snapshot-isolated reads).
	Settle() error
}

// Host starts instances on the data set under seedDir. With dataDir the
// instance is durable (-fsync always, no background checkpoints) and a
// later Start on the same directory recovers it.
type Host interface {
	Start(seedDir, dataDir string) (Instance, error)
}

// BaseURL implements Instance.
func (s *Server) BaseURL() string { return s.URL }

// SetupTime implements Instance.
func (s *Server) SetupTime() time.Duration { return s.Setup }

// ProcHost starts mdwd processes.
type ProcHost struct {
	Mdwd string // path of the mdwd binary
	Log  string // file the servers' output is appended to
}

// Start implements Host.
func (h ProcHost) Start(seedDir, dataDir string) (Instance, error) {
	flags := []string{"-data", seedDir}
	if dataDir != "" {
		flags = append(flags, "-data-dir", dataDir, "-fsync", "always", "-checkpoint-every", "0")
	}
	return StartServer(h.Mdwd, h.Log, flags...)
}

// Config is one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	Seconds  int
	// Trace adds the in-process ladder replay and writes trace-<workload>.json.
	Trace bool
	Scale string
	// Work is the directory for generated data, server logs, temporary
	// durable directories and trace files.
	Work string
	// GoldenDir holds the committed digests; UpdateGolden rewrites them.
	GoldenDir    string
	UpdateGolden bool
	Host         Host
	// host-independent inputs, filled by Run.
	truth  *Truth
	deltas []Delta
	seed   string
}

// Span is one timed call of the trace: which request, on which rung of
// the ladder, in which layer function.
type Span struct {
	Req    int     `json:"req"`
	Class  string  `json:"class"`
	Parent string  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// Result is what one run measured.
type Result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Correct   bool               `json:"correct"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	// Samples counts the latencies behind each class percentile.
	Samples      map[string]int `json:"samples"`
	SequenceHash string         `json:"sequence_hash"`
	Golden       string         `json:"golden"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of vals by nearest rank (of two values
// the median is the lower), 0 if empty.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// recorder collects what one connection observes.
type recorder struct {
	lat   map[string][]float64 // class -> latencies, ms
	bytes map[string]int64     // class -> reply bytes
	ok    int                  // verified requests in timed baskets
	busy  time.Duration        // time spent in timed baskets
	// attempted and failed count every request, warm-up included.
	attempted, failed int
	errs              []string
	spans             []Span // live spans, kept only when tracing
	trace             bool
	epoch             time.Time
}

func newRecorder(trace bool, epoch time.Time) *recorder {
	return &recorder{lat: map[string][]float64{}, bytes: map[string]int64{}, trace: trace, epoch: epoch}
}

func (r *recorder) fail(n int, err error) {
	r.failed += n
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// count adds o's attempts and failures, but none of its samples.
func (r *recorder) count(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

func (r *recorder) merge(o *recorder) {
	for c, l := range o.lat {
		r.lat[c] = append(r.lat[c], l...)
		r.bytes[c] += o.bytes[c]
	}
	r.ok += o.ok
	r.count(o)
	r.spans = append(r.spans, o.spans...)
}

// Conn is one keep-alive connection driven in a closed loop: the next
// request is written when the previous reply has been read to the end.
type Conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

// NewConn returns a connection to the server at base.
func NewConn(base string) *Conn {
	return &Conn{base: base, client: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// Close drops the connection.
func (c *Conn) Close() { c.client.CloseIdleConnections() }

// Do sends one request and checks the reply. Latency runs from writing
// the request to reading the last byte of the body; the check runs after
// it. The reply stays valid until the next Do.
func (c *Conn) Do(r Request, rec *recorder) ([]byte, bool) {
	rec.attempted++
	hr, err := http.NewRequest(r.Method, c.base+r.Path, strings.NewReader(r.Body))
	if err != nil {
		rec.fail(1, err)
		return nil, false
	}
	start := time.Now()
	resp, err := c.client.Do(hr)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	body := c.buf.Bytes()
	switch {
	case err != nil:
		err = fmt.Errorf("%s %s: %w", r.Method, r.Path, err)
	case resp.StatusCode/100 != 2:
		err = fmt.Errorf("%s %s: %s: %.200s", r.Method, r.Path, resp.Status, body)
	default:
		err = r.Verify(body)
	}
	if err != nil {
		rec.fail(1, err)
		return nil, false
	}
	rec.lat[r.Class] = append(rec.lat[r.Class], ms(end.Sub(start)))
	rec.bytes[r.Class] += int64(len(body))
	if rec.trace {
		rec.spans = append(rec.spans, Span{
			Req: rec.attempted, Class: r.Class, Name: "client.http",
			Start: float64(start.Sub(rec.epoch).Microseconds()), End: float64(end.Sub(rec.epoch).Microseconds()),
		})
	}
	return body, true
}

// basket sends the requests in order and records the basket as timed. If
// the server dies it counts the requests not yet sent as failed and
// reports false.
func (c *Conn) basket(reqs []Request, rec *recorder, alive func() bool) bool {
	t0 := time.Now()
	ok := 0
	for i, r := range reqs {
		if _, good := c.Do(r, rec); good {
			ok++
		} else if !alive() {
			rest := len(reqs) - i - 1
			rec.attempted += rest
			rec.fail(rest, fmt.Errorf("server exited; %d requests of the basket not sent", rest))
			return false
		}
	}
	rec.busy += time.Since(t0)
	rec.ok += ok
	return true
}

// rate is the verified requests per second of one connection's timed
// baskets.
func (r *recorder) rate() float64 {
	if r.busy == 0 {
		return 0
	}
	return float64(r.ok) / r.busy.Seconds()
}

// Run executes one workload and returns what it measured. An error means
// the harness could not run; failed requests and failed checks are in
// the result.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	t, l, err := NewTruth(cfg.Scale)
	if err != nil {
		return nil, err
	}
	cfg.truth = t
	nDeltas := 0
	switch {
	case cfg.Workload == ReleaseCycle:
		nDeltas = cfg.cycles() + 1
	case cfg.Trace:
		nDeltas = 1 // the ladder times the store's add path with one
	}
	if cfg.seed, cfg.deltas, err = EnsureData(filepath.Join(cfg.Work, "data-"+cfg.Scale), t, l, nDeltas); err != nil {
		return nil, err
	}
	res := &Result{
		Workload: cfg.Workload, Seed: cfg.Seed,
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}, Samples: map[string]int{},
	}
	for _, m := range PerLayer {
		res.PerLayer[m.Name] = 0
	}
	var live *liveRun
	switch cfg.Workload {
	case PortalRead, AdhocQuery:
		live, err = cfg.runRead(res)
	case ReleaseCycle:
		live, err = cfg.runRelease(res)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.Workload, strings.Join(Workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		if err := cfg.ladder(ctx, res, live); err != nil {
			return nil, err
		}
	}
	if err := cfg.checkGolden(res); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	return res, nil
}

func (cfg Config) cycles() int { return max(2, cfg.Seconds/cycleSeconds) }

// goldenState names the store state a golden digest was taken in.
func (cfg Config) goldenState() string {
	if cfg.Workload == ReleaseCycle {
		return fmt.Sprintf("%s+%d", cfg.Scale, cfg.cycles()+1)
	}
	return cfg.Scale
}

func (cfg Config) checkGolden(res *Result) error {
	if cfg.GoldenDir == "" || res.Failed > 0 {
		return nil
	}
	if cfg.UpdateGolden {
		return WriteGolden(cfg.GoldenDir, cfg.Workload, cfg.goldenState(), res.Golden)
	}
	want, err := ReadGolden(cfg.GoldenDir, cfg.Workload, cfg.goldenState())
	if err != nil {
		return err
	}
	if want == "" {
		fmt.Fprintf(os.Stderr, "mdwbench: no golden digest recorded for %s at %s; replies not compared\n", cfg.Workload, cfg.goldenState())
	} else if want != res.Golden {
		res.Errors = append(res.Errors, fmt.Sprintf("golden digest %s, want %s: some reply of the golden set changed", res.Golden, want))
	}
	return nil
}

// liveRun is what the live phase hands to the ladder: the requests it
// sent on the first connection, in order, and their class latencies.
type liveRun struct {
	requests []Request
	rec      *recorder
	seconds  float64 // timed phase wall time
	delta    Metrics // server metrics over the timed phase
	end      Metrics // server metrics at its end
}

// setups starts the server setupRuns times and returns the last
// instance with every setup time.
func (cfg Config) setups(dataDir func() (string, error)) (Instance, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dir, err := dataDir()
		if err != nil {
			return nil, nil, err
		}
		inst, err := cfg.Host.Start(cfg.seed, dir)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, inst.SetupTime().Seconds())
		if i == setupRuns-1 || cfg.Trace {
			return inst, times, nil // a traced run reports no setup_s: one start is enough
		}
		inst.Kill()
	}
}

// golden sends the workload's golden set and digests the replies.
func (cfg Config) golden(c *Conn, rec *recorder, res *Result) {
	var d Digest
	for _, r := range GoldenSet(cfg.truth, cfg.Workload) {
		body, ok := c.Do(r, rec)
		if !ok {
			continue
		}
		if err := d.Add(r, body); err != nil {
			rec.fail(1, err)
		}
	}
	res.Golden = d.String()
}

// runRead runs portal_read or adhoc_query against a quiescent store.
func (cfg Config) runRead(res *Result) (*liveRun, error) {
	inst, setups, err := cfg.setups(func() (string, error) { return "", nil })
	if err != nil {
		return nil, err
	}
	defer inst.Kill()

	conns, next := 2, (*Gen).PortalDeal
	if cfg.Workload == AdhocQuery {
		// One connection: the second core is left to the parallel plan
		// of query_scan.
		conns, next = 1, (*Gen).AdhocDeal
	}
	epoch := time.Now()
	total := newRecorder(cfg.Trace, epoch)
	cs := make([]*Conn, conns)
	gens := make([]*Gen, conns)
	for i := range cs {
		cs[i] = NewConn(inst.BaseURL())
		defer cs[i].Close()
		gens[i] = NewGen(cfg.truth, cfg.Seed, i)
	}

	// Untimed: the golden set, which for portal_read puts every
	// SEM_MATCH variant into the results cache, then one basket per
	// connection to open it and fault in whatever the first requests touch.
	warm := newRecorder(false, epoch)
	cfg.golden(cs[0], warm, res)
	for i, c := range cs {
		c.basket(next(NewGen(cfg.truth, cfg.Seed, 1000+i)), warm, inst.Alive)
	}
	total.count(warm)

	before, err := Scrape(inst.BaseURL())
	if err != nil {
		return nil, err
	}
	cpu0 := inst.CPUSeconds()
	recs := make([]*recorder, conns)
	var sent []Request
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range cs {
		recs[i] = newRecorder(cfg.Trace && i == 0, epoch)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for start := time.Now(); time.Since(start) < time.Duration(cfg.Seconds)*time.Second; {
				reqs := next(gens[i])
				if i == 0 {
					sent = append(sent, reqs...)
				}
				if !cs[i].basket(reqs, recs[i], inst.Alive) {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	cpu := inst.CPUSeconds() - cpu0
	res.EndToEnd["rss_mb"] = inst.PeakRSSMB()
	var rps float64
	for _, r := range recs {
		rps += r.rate()
		total.merge(r)
	}
	live := &liveRun{requests: sent, rec: total, seconds: wall}
	if inst.Alive() {
		after, err := Scrape(inst.BaseURL())
		if err != nil {
			return nil, err
		}
		live.delta, live.end = after.Sub(before), after
	}
	res.SequenceHash = gens[0].SequenceHash()
	cfg.report(res, live, setups, rps, cpu)
	cfg.assertLayers(res, live)
	return live, nil
}

// report fills the metrics every workload has.
func (cfg Config) report(res *Result, live *liveRun, setups []float64, rps, cpu float64) {
	rec := live.rec
	res.Attempted, res.Failed, res.Errors = rec.attempted, rec.failed, rec.errs
	res.EndToEnd["setup_s"] = quantile(setups, 0.5)
	res.EndToEnd["throughput_rps"] = rps
	res.EndToEnd["class_geomean_ms"] = classGeomean(rec.lat)
	if rec.ok > 0 {
		res.EndToEnd["server_cpu_ms_per_req"] = cpu * 1000 / float64(rec.ok)
	}
	for class, l := range rec.lat {
		res.Samples[class] = len(l)
	}
	p := res.PerLayer
	for _, class := range []string{ClassSearch, ClassLineage, ClassAudit, ClassListing1, ClassListing2,
		ClassQueryPoint, ClassQueryJoin, ClassQueryScan, ClassLoad} {
		p[class+"_p50_ms"] = quantile(rec.lat[class], 0.5)
	}
	p["search_p99_ms"] = quantile(rec.lat[ClassSearch], 0.99)
	p["release_visible_s"] = quantile(rec.lat[ClassVisible], 0.5) / 1000
	p["recovery_s"] = quantile(rec.lat[ClassRecovery], 0.5) / 1000
	if live.delta != nil {
		cfg.layerCounts(res, live)
	}
}

// classGeomean is the geometric mean of the median latencies of the
// classes the workload timed. Every class weighs the same whatever its
// share of the wall time: a class that gets k times slower moves the mean
// by k^(1/classes), where throughput moves by the class's share only.
func classGeomean(lat map[string][]float64) float64 {
	var logs []float64
	for _, class := range Classes {
		if l := lat[class]; len(l) > 0 {
			logs = append(logs, math.Log(quantile(l, 0.5)))
		}
	}
	if len(logs) == 0 {
		return 0
	}
	return math.Exp(mean(logs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts derives the per-layer counts, and the busy times of the
// layers no request class maps to, from what the server itself measures
// over the timed phase. Per-request values divide by the requests of the
// classes that reach the layer. (The busy times along a request's path
// come from the ladder.)
func (cfg Config) layerCounts(res *Result, live *liveRun) {
	d, end, p := live.delta, live.end, res.PerLayer
	n := func(classes ...string) float64 {
		var sum int
		for _, c := range classes {
			sum += res.Samples[c]
		}
		return float64(sum)
	}
	sparql := n(ClassListing1, ClassListing2, ClassQueryPoint, ClassQueryJoin, ClassQueryScan)

	hits, misses := d["mdw_rescache_hits_total"], d["mdw_rescache_misses_total"]
	p["rescache.hit_ratio"] = ratio(hits, hits+misses)
	p["rescache.evictions"] = d["mdw_rescache_evictions_total"]
	p["rescache.entries"] = end["mdw_rescache_entries"]
	p["rescache.mb"] = end["mdw_rescache_bytes"] / (1 << 20)

	execs := d["mdw_sparql_exec_seconds_count"]
	p["sparql.rows_per_req"] = ratio(d["mdw_sparql_rows_total"], sparql)
	pcHit := d[`mdw_sparql_plancache_total{result="hit"}`]
	p["sparql.plancache_hit_ratio"] = ratio(pcHit, pcHit+d[`mdw_sparql_plancache_total{result="miss"}`])
	p["sparql.parallel_exec_ratio"] = ratio(d.Sum("mdw_sparql_parallel_execs_total"), execs)

	p["store.lookups_per_req"] = ratio(d["mdw_store_lookups_total"], float64(live.rec.ok))
	p["store.installs"] = d["mdw_store_installs_total"]

	// Set-up work, from the counters as they stand at the end: what the
	// server spent loading, reasoning and indexing since it started.
	p["staging.pipeline_s"] = end["mdw_staging_bulkload_seconds_sum"]
	p["reason.materialize_s"] = ratio(end["mdw_reason_materialize_seconds_sum"], end["mdw_reason_materialize_seconds_count"])
	p["reason.derived_triples"] = ratio(end["mdw_reason_derived_total"], end["mdw_reason_materialize_seconds_count"])
	p["textindex.build_s"] = end[`mdw_textindex_build_seconds_sum{kind="full"}`]
	p["textindex.update_ms_per_batch"] = ratio(1000*d[`mdw_textindex_build_seconds_sum{kind="delta"}`],
		d[`mdw_textindex_build_seconds_count{kind="delta"}`])

	p["runtime.gc_pause_ms_per_s"] = ratio(d["mdw_runtime_gc_pause_ns_total"]/1e6, live.seconds)
	p["runtime.heap_inuse_mb"] = end["mdw_runtime_heap_inuse_bytes"] / (1 << 20)

	batches := n(ClassLoad)
	p["durable.fsync_ms"] = ratio(1000*d["mdw_wal_fsync_seconds_sum"], d["mdw_wal_fsync_seconds_count"])
	p["durable.fsyncs_per_batch"] = ratio(d["mdw_wal_fsync_seconds_count"], batches)
	p["durable.checkpoint_s"] = ratio(d["mdw_checkpoint_seconds_sum"], d["mdw_checkpoint_seconds_count"])
}

// assertLayers fails the run when a read workload no longer exercises
// the layer it was chosen for.
func (cfg Config) assertLayers(res *Result, live *liveRun) {
	if live.delta == nil || res.Failed > 0 {
		return
	}
	p := res.PerLayer
	bad := func(format string, args ...any) {
		res.Errors = append(res.Errors, "workload assertion: "+fmt.Sprintf(format, args...))
	}
	switch cfg.Workload {
	case PortalRead:
		if p["rescache.hit_ratio"] < 0.9 {
			bad("results-cache hit ratio %.3f, want >= 0.9: the SEM_MATCH set no longer fits the cache", p["rescache.hit_ratio"])
		}
		if p["rescache.evictions"] != 0 {
			bad("%v results-cache evictions, want 0", p["rescache.evictions"])
		}
	case AdhocQuery:
		if p["rescache.hit_ratio"] >= 0.01 {
			bad("results-cache hit ratio %.3f, want < 0.01: query texts repeat", p["rescache.hit_ratio"])
		}
		// The smoke test's graph is too small for the planner to choose
		// a parallel plan.
		if cfg.Scale == ScalePaper && p["sparql.parallel_exec_ratio"] == 0 {
			bad("no parallel execution: query_scan no longer reaches the morsel-parallel plan")
		}
	}
}
