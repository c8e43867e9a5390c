package sparql

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"mdw/internal/store"
)

// Morsel-driven root scans. When the planner's estimate for the root
// group's first join step is large enough, that step's matches are split
// into parts of about a morsel each (store.View.Split: one bucketing pass
// over the walked index keys, by ID range, on the calling goroutine), and
// each worker tests, sorts and walks its own parts through the ordinary
// streaming depth-first pipeline with a private slot row; a filter that
// reads only the walked key's variable is tested once per key (keyOnly),
// and a name match among those may take the keys it can pass from a
// KeyIndex. A merger emits the buffered solutions in part order, so the
// rows, their order and (without LIMIT) the work counted are the same at
// every worker count, one included: one worker scans the parts itself.
// UNION branches and property-path closures run on the serial pipeline:
// measured end to end, fanning those out never beat it (DESIGN.md
// "Parallel execution").
//
// Streaming semantics survive: ASK stops all workers at the first emitted
// solution, LIMIT-without-ORDER-BY after N merged rows, and cancellation
// reaches every worker. Small scans stay on the serial pipeline, decided
// at plan time from the planner's estimates (SerialThreshold).

// ParOptions tunes intra-query parallelism for one plan. The zero value
// of any field means "use the default"; Query.Plan applies the zero
// value. It is the seam the differential tests use to force morsel scans
// on tiny graphs.
type ParOptions struct {
	// MaxWorkers caps the worker pool (default: GOMAXPROCS, read when the
	// plan is built). At 1 the calling goroutine scans one morsel.
	MaxWorkers int
	// MorselSize is the number of first-step matches per morsel (default
	// 256): large enough that per-morsel overhead (one key sort, one
	// channel send) is noise against hundreds of index probes, small
	// enough that a skewed key range's work spreads across workers.
	MorselSize int
	// SerialThreshold is the estimated row count below which the root
	// stays on the serial pipeline (default 4096): a morsel scan pays a
	// bucketing pass and a key sort, and fan-out two goroutine wakeups
	// and a buffer per morsel, only worth it over thousands of probes.
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
	morsel  int     // first-step matches per morsel; all of them at 1 worker
	est     float64 // estimate that justified the choice
	// keyed counts the driving pattern's leading pushed constraints that
	// the scan tests once per walked key (keyOnly).
	keyed int
	// lit is the text the first of them, a name match (nameMatch), needs
	// the walked object to contain; "" when there is no such constraint.
	// A KeyIndex may then answer which keys can hold it.
	lit string
}

// decidePar decides whether the plan's root group runs as a morsel scan:
// an executable plan (src and dict present) over a store.View, whose
// matches split into parts, does at any worker budget when its root group
// starts with a triple-pattern scan estimated at SerialThreshold or more.
// Every other plan — every Explain-only plan, every plan starting with a
// property path (the path engine materializes endpoint pairs itself, so
// morsels cannot partition it) — keeps the zero-value decision, serial.
func (p *Plan) decidePar(o ParOptions) {
	o = o.normalized()
	if p.src == nil || p.dict == nil || len(p.root.steps) == 0 {
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
	morsel := o.MorselSize
	if w < 2 {
		morsel = int(math.Ceil(pp.est)) // no worker to share parts with
	}
	keyed, lit := keyOnly(pp)
	p.par = parDecision{workers: w, morsel: morsel, est: pp.est, keyed: keyed, lit: lit}
}

// keyOnly moves the driving pattern's key-only constraints to the front
// of its pushed list, marks them per key, and returns how many there are.
// A key-only constraint is a plain FILTER whose one variable is the one
// the scan's walked index keys bind (store.KeyPos): it holds for all of a
// key's triples or for none, so the scan tests it once per key. The
// constraints are a conjunction of side-effect-free tests, so testing
// these first changes no answer. A pattern that repeats a variable gets
// none: its triples must also agree with themselves, so a key's triple
// count would no longer be the rows it binds.
//
// When the walked keys are objects, the first key-only name match
// (nameMatch) goes to the very front, and its text is returned: the
// execution may take the keys that can pass it from a KeyIndex.
func keyOnly(pp *patternPlan) (int, string) {
	var vars [3]string // by position; "" for a constant
	if pp.tp.S.IsVar() {
		vars[0] = pp.tp.S.Var
	}
	if v, ok := pp.tp.P.(PathVar); ok {
		vars[1] = v.Name
	}
	if pp.tp.O.IsVar() {
		vars[2] = pp.tp.O.Var
	}
	pos := store.KeyPos(vars[0] == "", vars[1] == "", vars[2] == "")
	if pos < 0 {
		return 0, ""
	}
	for i, v := range vars {
		for _, w := range vars[i+1:] {
			if v != "" && v == w {
				return 0, ""
			}
		}
	}
	var keyed, rest []*plannedConstraint
	lit := ""
	for _, c := range pp.pushed {
		if c.filter == nil || !slices.Equal(exprVars(c.filter.Expr), vars[pos:pos+1]) {
			rest = append(rest, c)
			continue
		}
		c.perKey = true
		if l := nameMatch(c.filter.Expr, vars[pos]); pos == 2 && lit == "" && l != "" {
			lit = l
			keyed = slices.Insert(keyed, 0, c)
		} else {
			keyed = append(keyed, c)
		}
	}
	pp.pushed = append(keyed, rest...)
	return len(keyed), lit
}

// nameMatch returns the text a name match on variable v needs its value
// to contain, or "" when e is none: REGEX(?v, "lit"[, "i"]) whose pattern
// takes the substring kernel (regexExpr.lit), or CONTAINS(?v, "lit")
// with a valid UTF-8 lit, whose containment case folding rune by rune
// (textindex.Fold) preserves.
func nameMatch(e Expr, v string) string {
	switch e := e.(type) {
	case regexExpr:
		if x, ok := e.text.(varExpr); ok && x.name == v {
			return e.lit
		}
	case binStrFuncExpr:
		x, ok := e.a.(varExpr)
		c, lit := e.b.(constExpr)
		if e.fn == "CONTAINS" && ok && x.name == v && lit && utf8.ValidString(c.term.Value) {
			return c.term.Value
		}
	}
	return ""
}

// KeyIndex tells a morsel scan over pred's triples that walks their
// objects which objects can pass a name match (RunOptions.Keys): Keys
// returns, sorted and distinct, a superset of those whose text contains
// lit — under strings.Contains and, for an ASCII lit, Go's (?i) regexp —
// or false when it cannot say within limit entries.
type KeyIndex interface {
	Keys(pred store.ID, lit string, limit int) ([]store.ID, bool)
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
	if ev.plan.par.workers > 0 {
		ev.runMorselRoot(emit)
		return
	}
	ev.runGroup(ev.plan.root, make([]store.ID, len(ev.plan.query.vars)), emit)
}

// runMorselRoot splits the first join step's matches into parts and fans
// them out. With one worker, or when the live matches fill fewer than two
// parts, the calling goroutine scans the parts in order itself.
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
	// The keys that can pass the name match, when the index can say; the
	// scan rejects every other key unread. A broad name trips the limit
	// and every key is tested, which beats reading most of the index.
	var in func(store.ID) bool
	if p.par.lit != "" && ev.keys != nil {
		if keys, ok := ev.keys.Keys(pid, p.par.lit, int(pp.est/4)); ok {
			in = func(k store.ID) bool {
				_, found := slices.BinarySearch(keys, k)
				return found
			}
			if ev.stats != nil {
				ev.stats.indexed = pp.pushed[0]
			}
		}
	}
	parts := p.src.(*store.View).Split(sid, pid, oid, p.par.morsel)
	ntasks := parts.Len()
	workers := min(p.par.workers, ntasks)
	obsParExecMorsel.Inc()
	ev.parWorkers, ev.parTasks = max(workers, 1), ntasks
	if workers < 2 {
		r := ev.partScanner(p.root, row, parts, svar, ovar, in, emit)
		for i := 0; i < ntasks && r.scanPart(i); i++ {
		}
		return
	}
	ev.orderedRun(workers, ntasks, func(wev *evaluator, emit func([]store.ID) bool) func(int) bool {
		return wev.partScanner(p.root, make([]store.ID, len(row)), parts, svar, ovar, in, emit).scanPart
	}, emit)
}

// partScanner returns the pipeline one goroutine runs over parts of the
// driving scan (scanPart): the root group over the goroutine's own row,
// with its first pattern's index enumeration replaced by a part's
// triples. A non-nil in is the set of keys the name match can pass.
func (ev *evaluator) partScanner(root *planGroup, row []store.ID, parts *store.Parts, svar, ovar int, in func(store.ID) bool, emit func([]store.ID) bool) *bgpRun {
	r := ev.newBGPRun(root.steps[0].(*bgpStep), row, func(s []store.ID) bool {
		return ev.runSteps(root.steps, 1, s, emit)
	})
	f := &r.frames[0]
	f.svar, f.ovar = svar, ovar // a variable predicate is never bound at the root
	r.parts, r.in, r.perKey = parts, in, ev.plan.par.keyed
	return r
}

// scanPart streams part task through the pipeline without allocating.
func (r *bgpRun) scanPart(task int) bool {
	f, keep := &r.frames[0], r.keep
	if r.perKey == 0 {
		keep = nil
	}
	f.cont = true
	return r.parts.Scan(task, keep, f.cb)
}

// keep is the scan's per-key test: the driving pattern's key-only
// constraints run on the row with only the walked key bound, and the run
// skips them per triple (matched). A key outside in, when in is set,
// fails the name match in front of them unread. It probes cancellation
// and the merger's stop flag as onTriple does, so a scan whose filter
// rejects every key still stops.
func (r *bgpRun) keep(key store.ID, n int) bool {
	ev, pp := r.ev, r.b.patterns[0]
	cs := pp.pushed[:r.perKey]
	if ev.cancelled() || ev.stopped() {
		return false
	}
	if r.in != nil && !r.in(key) {
		ev.keyRejected(cs, pp, 0, n)
		return false
	}
	slot := [3]int{pp.s.slot, pp.pvar, pp.o.slot}[r.parts.KeyPos()]
	r.s[slot] = key
	ok := ev.keyHolds(cs, pp, r.s, n)
	r.s[slot] = store.Wildcard
	return ok
}

// keyHolds tests the key-only constraints cs on row s. An accepted key's
// triples are counted as they are visited (matched), a rejected key's by
// keyRejected.
func (ev *evaluator) keyHolds(cs []*plannedConstraint, pp *patternPlan, s []store.ID, n int) bool {
	st := ev.stats
	for i, c := range cs {
		if st == nil {
			if !ev.constraintEval(c, s) {
				return false
			}
			continue
		}
		start := time.Now()
		ok := ev.constraintEval(c, s)
		st.ops[c.si].durNs.Add(int64(time.Since(start)))
		if !ok {
			ev.keyRejected(cs, pp, i, n)
			return false
		}
	}
	return true
}

// keyRejected counts under analyze the n triples of a key that cs[i]
// rejected, which are never visited, as a per-triple run counts them:
// bound by the pattern pp, tested by each constraint up to cs[i], passed
// by those before it.
func (ev *evaluator) keyRejected(cs []*plannedConstraint, pp *patternPlan, i, n int) {
	st := ev.stats
	if st == nil {
		return
	}
	st.ops[pp.si].rows.Add(int64(n))
	for j, d := range cs[:i+1] {
		st.ops[d.si].loops.Add(int64(n))
		if j < i {
			st.ops[d.si].rows.Add(int64(n))
		}
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
			wev := &evaluator{src: ev.src, dict: ev.dict, ctx: ev.ctx, plan: ev.plan, parStop: &pr.stop, stats: ev.stats}
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
