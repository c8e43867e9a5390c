package sparql

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mdw/internal/store"
)

// Intra-query parallelism: morsel-driven BGP scans. When the planner's
// cardinality estimate for the root group's first join step is large
// enough, that step's matches are split into parts of about a morsel each
// (store.View.Split: one bucketing pass over the walked index keys, by ID
// range, on the calling goroutine), and each worker sorts and walks its
// own parts through the ordinary streaming depth-first pipeline with a
// private slot row. A merger emits the buffered solutions in part order,
// so downstream consumers (DISTINCT, LIMIT, aggregation) observe one
// solution order at every worker count. Everything else — UNION branches,
// property-path closures — runs on the serial pipeline: measured end to
// end, fanning those out never beat it (DESIGN.md "Parallel execution").
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
	// MorselSize is the number of first-step matches per morsel (default
	// 256): large enough that per-morsel overhead (one key sort, one
	// channel send) is noise against hundreds of index probes, small
	// enough that a skewed key range's work spreads across workers.
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
	morsel  int     // first-step matches per morsel
	est     float64 // estimate that justified the choice
}

// decidePar decides whether the plan's root group runs as a morsel scan.
// Only executable plans (src and dict present) over a store.View, whose
// matches split into parts, with a worker budget of at least 2 and a root
// group that starts with a large enough triple-pattern scan parallelize;
// everything else — including every
// Explain-only plan and every plan starting with a property path (the
// path engine materializes endpoint pairs itself, so morsels cannot
// partition it) — keeps the zero-value decision, serial.
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
	if _, ok := p.src.(*store.View); !ok || pp.pk == pkPath || pp.est < float64(o.SerialThreshold) {
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
func (ev *evaluator) runRoot(emit func([]store.ID) bool) {
	if ev.plan.par.workers > 1 {
		ev.runMorselRoot(emit)
		return
	}
	ev.runGroup(ev.plan.root, make([]store.ID, len(ev.plan.query.vars)), emit)
}

// runMorselRoot splits the first join step's matches into parts and fans
// them out. When the live matches fill fewer than two parts (stale
// statistics), the calling goroutine scans them itself — correctness
// never depends on the estimate.
func (ev *evaluator) runMorselRoot(emit func([]store.ID) bool) {
	p := ev.plan
	pp := p.root.steps[0].(*bgpStep).patterns[0]
	row := make([]store.ID, len(p.query.vars))
	sid, svar, ok := derefNode(pp.s, row)
	if !ok {
		return // constant unknown to the dictionary: zero matches
	}
	oid, ovar, ok := derefNode(pp.o, row)
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
		// The first pattern runs as one logical scan over its matches,
		// counted per part as the workers walk them. Its time is the
		// whole scan's, the split included.
		op := &st.ops[pp.si]
		op.loops.Add(1)
		start := time.Now()
		defer func() { op.durNs.Add(int64(time.Since(start))) }()
	}
	parts := p.src.(*store.View).Split(sid, pid, oid, p.par.morsel)
	ntasks := parts.Len()
	if ntasks < 2 {
		scan := ev.partScanner(p.root, row, parts, svar, ovar, emit)
		for i := 0; i < ntasks && scan(i); i++ {
		}
		return
	}
	workers := min(p.par.workers, ntasks)
	obsParExecMorsel.Inc()
	ev.parWorkers, ev.parTasks = workers, ntasks
	ev.orderedRun(workers, ntasks, func(wev *evaluator, emit func([]store.ID) bool) func(int) bool {
		return wev.partScanner(p.root, make([]store.ID, len(row)), parts, svar, ovar, emit)
	}, emit)
}

// partScanner returns the pipeline one goroutine runs over parts of the
// driving scan: the root group over the goroutine's own row, with its
// first pattern's index enumeration replaced by a part's triples. Built
// once per goroutine, it scans a part without allocating.
func (ev *evaluator) partScanner(root *planGroup, row []store.ID, parts *store.Parts, svar, ovar int, emit func([]store.ID) bool) func(task int) bool {
	r := ev.newBGPRun(root.steps[0].(*bgpStep), row, func(s []store.ID) bool {
		return ev.runSteps(root.steps, 1, s, emit)
	})
	f := &r.frames[0]
	f.svar, f.ovar = svar, ovar // a variable predicate is never bound at the root
	return func(task int) bool {
		f.cont = true
		return parts.Scan(task, f.cb)
	}
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

// orderedRun executes ntasks tasks on a pool of workers and emits their
// buffered solutions strictly in task order on the calling goroutine;
// newWorker builds one worker's task runner around the worker's
// evaluator and buffering emit. Tasks are claimed from an atomic counter,
// and a semaphore keeps at most inflight = 2×workers tasks materialized
// ahead of the merger, bounding memory on large scans while keeping every
// worker busy. The same bound lets task i hand its buffer over in slot
// i mod inflight of a ring: task i is claimed only after the merger took
// task i−inflight's buffer, so no task costs an allocation of its own.
// The function returns only after every worker has exited (the
// cancellation guarantee: no goroutine outlives the call).
func (ev *evaluator) orderedRun(workers, ntasks int, newWorker func(wev *evaluator, emit func([]store.ID) bool) func(task int) bool, emit func([]store.ID) bool) {
	pr := &parRun{abort: make(chan struct{})}
	inflight := min(workers*2, ntasks)
	sem := make(chan struct{}, inflight)
	ring := make([]chan [][]store.ID, inflight)
	for i := range ring {
		sem <- struct{}{}
		ring[i] = make(chan [][]store.ID, 1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wev := &evaluator{src: ev.src, dict: ev.dict, ctx: ev.ctx, parStop: &pr.stop, stats: ev.stats}
			var buf [][]store.ID
			run := newWorker(wev, func(s []store.ID) bool {
				if pr.stop.Load() {
					return false
				}
				buf = append(buf, slices.Clone(s))
				return true
			})
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
				run(i)
				if wev.err != nil {
					pr.fail(wev.err)
					return
				}
				ring[i%inflight] <- buf
				buf = nil
			}
		}()
	}
merge:
	for i := 0; i < ntasks; i++ {
		var buf [][]store.ID
		select {
		case buf = <-ring[i%inflight]:
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
