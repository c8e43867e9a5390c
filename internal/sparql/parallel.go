package sparql

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mdw/internal/store"
)

// Intra-query parallelism: morsel-driven BGP scans. When the planner's
// cardinality estimate for the root group's first join step is large
// enough, that step's candidate triples are materialized once
// (store.Matcher), split into fixed-size morsels, and each worker runs the
// ordinary streaming depth-first pipeline over its morsel with a private
// binding env. A merger emits buffered solutions in morsel order, so
// downstream consumers (DISTINCT, LIMIT, aggregation) observe exactly the
// serial solution order. Everything else — UNION branches, property-path
// closures — runs on the serial pipeline: measured end to end, fanning
// those out never beat it (DESIGN.md "Parallel execution").
//
// Streaming semantics survive: ASK stops all workers at the first emitted
// solution, LIMIT-without-ORDER-BY stops after N merged rows, and context
// cancellation propagates through every worker. Small queries stay serial
// (SerialThreshold), so point lookups pay zero overhead — the decision is
// taken at plan time from the estimates the planner already has.

// ParOptions tunes intra-query parallelism for one plan. The zero value
// of any field means "use the default"; Query.Plan applies the zero
// value. It is the seam the differential tests use to force fan-out on
// tiny graphs.
type ParOptions struct {
	// MaxWorkers caps the worker pool (default: GOMAXPROCS, read when the
	// plan is built). 1 disables parallel execution.
	MaxWorkers int
	// MorselSize is the number of first-step candidate triples per morsel
	// (default 256): large enough that per-morsel overhead (one buffer,
	// one channel send) is noise against hundreds of index probes, small
	// enough that a skewed candidate's work spreads across workers.
	MorselSize int
	// SerialThreshold is the estimated row count below which execution
	// stays serial (default 4096): fan-out costs two goroutine wakeups
	// and a buffer per morsel, which only pays off when the scan is at
	// least thousands of probes.
	SerialThreshold int
}

const (
	defaultMorselSize      = 256
	defaultSerialThreshold = 4096
)

func (o ParOptions) normalized() ParOptions {
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if o.MorselSize <= 0 {
		o.MorselSize = defaultMorselSize
	}
	if o.SerialThreshold <= 0 {
		o.SerialThreshold = defaultSerialThreshold
	}
	return o
}

// parDecision is the plan-time parallelism choice, rendered by
// Plan.String and acted on by the evaluator's runRoot.
type parDecision struct {
	workers int     // 0 = serial
	morsel  int     // candidate triples per morsel
	est     float64 // estimate that justified the choice
}

// decidePar decides whether the plan's root group runs as a morsel scan.
// Only executable plans (src and dict present) with a worker budget of at
// least 2 whose root group starts with a large enough triple-pattern scan
// parallelize; everything else — including every Explain-only plan and
// every plan starting with a property path (the path engine materializes
// endpoint pairs itself, so morsels cannot partition it) — keeps the
// zero-value decision, serial.
func (p *Plan) decidePar(o ParOptions) {
	o = o.normalized()
	if p.src == nil || p.dict == nil || o.MaxWorkers < 2 || len(p.root.steps) == 0 {
		return
	}
	st, ok := p.root.steps[0].(*bgpStep)
	if !ok {
		return
	}
	pp := st.patterns[0]
	if pp.pk == pkPath || pp.est < float64(o.SerialThreshold) {
		return
	}
	w := min(int(math.Ceil(pp.est/float64(o.MorselSize))), o.MaxWorkers)
	if w >= 2 {
		p.par = parDecision{workers: w, morsel: o.MorselSize, est: pp.est}
	}
}

// Parallelism returns the degree of parallelism the plan may use: 1 for
// serial plans, the worker cap otherwise. Statement statistics record it
// per fingerprint (obs.ParallelPlan).
func (p *Plan) Parallelism() int {
	return max(1, p.par.workers)
}

// ---------------------------------------------------------------------
// Evaluator integration.

// runRoot streams the root group's solutions into emit, as a morsel scan
// when the plan chose one. Every solution passed to emit is already
// cloned when it crossed a worker boundary; emit runs exclusively on the
// calling goroutine, so downstream state (DISTINCT sets, LIMIT counters,
// aggregation maps) needs no locking.
func (ev *evaluator) runRoot(emit func(env) bool) {
	if ev.plan.par.workers > 1 {
		ev.runMorselRoot(emit)
		return
	}
	ev.runGroup(ev.plan.root, env{}, emit)
}

// runMorselRoot partitions the first join step's candidates into morsels
// and fans them out. When the live candidate count undershoots the
// plan-time estimate (stale statistics), it falls back to the serial
// pipeline — correctness never depends on the estimate.
func (ev *evaluator) runMorselRoot(emit func(env) bool) {
	p := ev.plan
	bgp := p.root.steps[0].(*bgpStep)
	pp := bgp.patterns[0]
	sid, svar, ok := derefNode(pp.s, nil)
	if !ok {
		return // constant unknown to the dictionary: zero matches
	}
	oid, ovar, ok := derefNode(pp.o, nil)
	if !ok {
		return
	}
	pid := store.Wildcard
	if pp.pk == pkSimple {
		if pp.pid == store.Wildcard {
			return // predicate IRI unknown to the dictionary
		}
		pid = pp.pid
	}
	if st := ev.stats; st != nil {
		// The first pattern runs as one logical scan over the candidate
		// set; its matches are counted per morsel as workers replay them.
		// Its time is the whole scan's, collecting the candidates included.
		op := &st.ops[pp.si]
		op.loops.Add(1)
		start := time.Now()
		defer func() { op.durNs.Add(int64(time.Since(start))) }()
	}
	cands := collectMatches(ev.src, sid, pid, oid)
	msize := p.par.morsel
	if len(cands) < 2*msize {
		obsParFallback.Inc()
		ev.runMorsel(bgp, p.root, cands, svar, ovar, emit)
		return
	}
	ntasks := (len(cands) + msize - 1) / msize
	workers := p.par.workers
	if workers > ntasks {
		workers = ntasks
	}
	obsParExecMorsel.Inc()
	obsParMorsels.Add(int64(ntasks))
	obsParWorkers.Add(int64(workers))
	ev.parWorkers, ev.parTasks = workers, ntasks
	ev.orderedRun(workers, ntasks, func(wev *evaluator, task int, bufEmit func(env) bool) {
		lo := task * msize
		hi := min(lo+msize, len(cands))
		wev.runMorsel(bgp, p.root, cands[lo:hi], svar, ovar, bufEmit)
	}, emit)
}

// runMorsel runs the ordinary streaming pipeline over one slice of the
// first pattern's candidate triples: it reproduces exactly what next(0)
// does, except that the index enumeration is replaced by the slice.
func (ev *evaluator) runMorsel(b *bgpStep, root *planGroup, cands []store.ETriple, svar, ovar string, emit func(env) bool) {
	if len(cands) == 0 {
		return
	}
	r := &bgpRun{ev: ev, b: b, s: env{}, emit: func(s env) bool {
		return ev.runSteps(root.steps, 1, s, emit)
	}, frames: make([]bgpFrame, len(b.patterns))}
	for i := range r.frames {
		idx := i
		r.frames[i].cb = func(t store.ETriple) bool { return r.onTriple(idx, t) }
	}
	f := &r.frames[0]
	f.svar, f.ovar, f.cont = svar, ovar, true
	f.pvarBound = false // a variable predicate is never bound at the root
	for _, t := range cands {
		if ev.err != nil || ev.stopped() {
			return
		}
		if !r.onTriple(0, t) {
			return
		}
	}
}

// collectMatches materializes the candidate triples of one pattern.
// Sources implementing store.Matcher enumerate deterministically (index
// order for slice-backed access paths, sorted-key order for map walks);
// anything else falls back to one ForEach pass.
func collectMatches(src store.Source, s, p, o store.ID) []store.ETriple {
	if m, ok := src.(store.Matcher); ok {
		return m.Matches(s, p, o)
	}
	out := make([]store.ETriple, 0, src.Count(s, p, o))
	src.ForEach(s, p, o, func(t store.ETriple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// ---------------------------------------------------------------------
// The ordered worker pool.

// parRun is the shared state of one parallel execution: a stop flag the
// merger raises on early termination, an abort channel that wakes
// blocked workers, and the first worker error. The sync.Once guarantees
// the channel closes exactly once whether the run ends by completion,
// early stop, or error.
type parRun struct {
	stop  atomic.Bool
	abort chan struct{}
	once  sync.Once
	err   error
}

func (pr *parRun) fail(err error) {
	pr.once.Do(func() {
		pr.err = err
		pr.stop.Store(true)
		close(pr.abort)
	})
}

func (pr *parRun) finish() {
	pr.once.Do(func() {
		pr.stop.Store(true)
		close(pr.abort)
	})
}

// stopped reports whether a parallel merger asked this (worker)
// evaluator to stop producing.
func (ev *evaluator) stopped() bool {
	return ev.parStop != nil && ev.parStop.Load()
}

// orderedRun executes ntasks task bodies on a pool of workers and emits
// their buffered solutions strictly in task order on the calling
// goroutine. Tasks are claimed from an atomic counter; a semaphore keeps
// at most 2×workers tasks materialized ahead of the merger, bounding
// memory on large scans while keeping every worker busy. The function
// returns only after every worker has exited (the cancellation
// guarantee: no goroutine outlives the call).
func (ev *evaluator) orderedRun(workers, ntasks int, task func(wev *evaluator, task int, emit func(env) bool), emit func(env) bool) {
	pr := &parRun{abort: make(chan struct{})}
	inflight := min(workers*2, ntasks)
	sem := make(chan struct{}, inflight)
	for i := 0; i < inflight; i++ {
		sem <- struct{}{}
	}
	results := make([]chan []env, ntasks)
	for i := range results {
		results[i] = make(chan []env, 1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wev := &evaluator{src: ev.src, dict: ev.dict, ctx: ev.ctx, parStop: &pr.stop, stats: ev.stats}
			for {
				select {
				case <-sem:
				case <-pr.abort:
					return
				}
				if pr.stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= ntasks {
					return
				}
				var buf []env
				task(wev, i, func(s env) bool {
					if pr.stop.Load() {
						return false
					}
					buf = append(buf, s.clone())
					return true
				})
				if wev.err != nil {
					pr.fail(wev.err)
					return
				}
				results[i] <- buf
			}
		}()
	}
merge:
	for i := 0; i < ntasks; i++ {
		var buf []env
		select {
		case buf = <-results[i]:
		case <-pr.abort:
			break merge
		}
		sem <- struct{}{}
		for _, s := range buf {
			if !emit(s) {
				break merge
			}
		}
	}
	pr.finish()
	wg.Wait()
	if pr.err != nil && ev.err == nil {
		ev.err = pr.err
	}
}

// cancelled reports whether the execution's context was cancelled. The
// check is amortized: the context is probed once every cancelTick calls,
// so the per-triple cost on the match hot path is one branch and one
// increment. Once cancelled (or any error is set), it stays true and the
// pipeline unwinds.
const cancelTick = 1024

func (ev *evaluator) cancelled() bool {
	if ev.err != nil {
		return true
	}
	if ev.ctx == nil {
		return false
	}
	ev.tick++
	if ev.tick%cancelTick != 0 {
		return false
	}
	if err := ev.ctx.Err(); err != nil {
		ev.err = err
		return true
	}
	return false
}
