package sparql

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/rescache"
	"mdw/internal/store"
)

// RunOptions selects how one execution runs.
type RunOptions struct {
	// Analyze arms operator-level instrumentation (EXPLAIN ANALYZE): the
	// run returns an ExecStats tree with actual rows, loops, and wall time
	// per operator. An analyzed run always executes — it bypasses the
	// results cache, because its statistics must come from a real
	// execution, never from a cached result that executed nothing.
	Analyze bool
	// Keys, when set, is an index a morsel scan asks which walked keys can
	// pass its name match (KeyIndex); nil tests every key. The warehouse
	// sets it only when the index is over exactly the source being read.
	Keys KeyIndex
}

// Run executes the query against a triple source; the dict must be the
// dictionary underlying the source's models. It is Plan followed by
// Plan.Run, with the results cache probed first. The warehouse hands it a
// pinned view (reason.ViewCtx), so the run sees one version of the graph
// from the cache probe to the last row.
//
// When ctx holds a trace span (obs.ContextWithSpan), planning and
// execution attach "sparql plan" and "sparql exec" child spans to it;
// untraced contexts pay one context lookup and no span allocation. The
// ExecStats are nil unless opt.Analyze is set.
func (q *Query) Run(ctx context.Context, src store.Source, dict *store.Dict, opt RunOptions) (*Result, *ExecStats, error) {
	// Results cache first: a hit skips planning and execution entirely.
	// The key embeds every model generation of the source, so it can only
	// match a result computed from the exact store state being queried.
	rc := rescache.Default()
	var key string
	if rc != nil && !opt.Analyze && q.resultsCacheable() {
		if gk, ok := sourceVersion(src); ok {
			key = q.resultCacheKey(gk)
			if v, ok := rc.Get(key); ok {
				return q.serveCachedResult(ctx, rc, key, v.(*Result)), nil, nil
			}
		}
	}
	sp, _ := obs.ChildCtx(ctx, "sparql plan")
	p := q.Plan(src, dict)
	sp.Finish()
	res, stats, err := p.Run(ctx, opt)
	if key != "" && err == nil && res != nil {
		rc.Put(key, res, estimateResultSize(res))
	}
	return res, stats, err
}

// Run executes the plan with a streaming, depth-first pipeline: one
// solution flows through join steps, pushed filters, and the projection
// before the next is produced, so ASK stops at the first solution and a
// streamable LIMIT stops at row N. A traced context gets a "sparql exec"
// child span labelled with the row count. Every successful execution —
// traced or not — also feeds the observability layer: execution latency
// and streamed-row counts go to the default metrics registry, and the
// execution folds into the default statement table under the query's
// fingerprint with one Record call, which carries the analyzed figures
// when there are any.
//
// With opt.Analyze an operator stats record is armed: every operator
// counts its loops, rows, and wall time into the returned ExecStats tree,
// which is nil otherwise.
func (p *Plan) Run(ctx context.Context, opt RunOptions) (*Result, *ExecStats, error) {
	var rec *execStatsRec
	if opt.Analyze {
		rec = newExecStatsRec(p)
	}
	sp, _ := obs.ChildCtx(ctx, "sparql exec")
	t0 := time.Now()
	res, info, err := p.exec(ctx, rec, opt.Keys)
	d := obsExecHist.ObserveSince(t0)
	if err != nil || res == nil {
		sp.Finish()
		return res, nil, err
	}
	rows := res.Count()
	if info.workers > 0 {
		sp.SetLabel("parallel", "morsel")
		sp.SetLabel("workers", strconv.Itoa(info.workers))
		sp.SetLabel("morsels", strconv.Itoa(info.tasks))
	}
	sp.SetLabel("rows", strconv.Itoa(rows)).Finish()
	obsRows.Add(int64(rows))
	x := obs.Execution{Rows: rows, D: d, Plan: p.unpinned()}
	var stats *ExecStats
	if rec != nil {
		stats = p.finishAnalyze(rec, info, d, rows)
		x.Analyzed, x.Scanned, x.Decodes = true, stats.RowsScanned, stats.TermDecodes
		// An execution stopped early (streamed LIMIT reached, ASK
		// satisfied) is no evidence about the estimates: its actual row
		// counts are truncated by the stop.
		if !rec.limitStopped && p.query.Kind != AskQuery {
			x.Ratio, x.WorstOp, x.WorstPlan = stats.MaxRatio, stats.WorstOp, stats
			if stats.MaxRatio >= misestimateThreshold {
				obsMisestimate.Inc()
			}
		}
	}
	obs.DefaultStatements().Record(p.query.Fingerprint(), p.query.Text, x)
	return res, stats, nil
}

// unpinned returns a copy of the plan for the statement table, which
// renders it if and when someone asks. Everything String needs is in the
// plan itself; a copy that kept the source would pin that version of the
// graph — every index node the store has since replaced — for as long as
// the statement stays in the table. (A non-nil source is how a plan says
// it carries estimates.)
func (p *Plan) unpinned() *Plan {
	c := *p
	c.src = store.NewView()
	return &c
}

// execInfo is the parallel-execution evidence one exec produced, fed to
// the trace span labels.
type execInfo struct {
	workers int
	tasks   int
}

func (p *Plan) exec(ctx context.Context, rec *execStatsRec, keys KeyIndex) (*Result, execInfo, error) {
	if p.src == nil || p.dict == nil {
		return nil, execInfo{}, errors.New("sparql: plan was built without a source; use Query.Plan(src, dict)")
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, execInfo{}, err
		}
	}
	q := p.query
	ev := &evaluator{src: p.src, dict: p.dict, ctx: ctx, plan: p, stats: rec, keys: keys}
	res, err := ev.execKind(q)
	return res, execInfo{workers: ev.parWorkers, tasks: ev.parTasks}, err
}

func (ev *evaluator) execKind(q *Query) (*Result, error) {
	if q.Kind == AskQuery {
		found := false
		ev.runRoot(func([]store.ID) bool {
			found = true
			return false
		})
		if ev.err != nil {
			return nil, ev.err
		}
		return &Result{Ask: found, kind: AskQuery}, nil
	}
	if q.Kind == SelectQuery && len(q.Select) > 0 {
		return ev.project(q, q.Select, ev.runRoot)
	}
	// CONSTRUCT instantiates its template per solution and SELECT *
	// projects every variable some solution binds, so both buffer the rows.
	var sols [][]store.ID
	ev.runRoot(func(s []store.ID) bool {
		sols = append(sols, slices.Clone(s))
		return true
	})
	if ev.err != nil {
		return nil, ev.err
	}
	if q.Kind == ConstructQuery {
		return ev.construct(q, sols), nil
	}
	var items []SelectItem
	for i, v := range q.vars {
		if slices.ContainsFunc(sols, func(s []store.ID) bool { return s[i] != store.Wildcard }) {
			items = append(items, SelectItem{Var: v})
		}
	}
	slices.SortFunc(items, func(a, b SelectItem) int { return strings.Compare(a.Var, b.Var) })
	return ev.project(q, items, func(emit func([]store.ID) bool) {
		for _, s := range sols {
			if !emit(s) {
				return
			}
		}
	})
}

// A solution is a slot row: s[i] is the ID bound to the query's variable
// i (Query.vars), or store.Wildcard — ID 0, never assigned — while it is
// unbound. The executor mutates one row in place along each depth-first
// probe and backtracks by writing Wildcard back; a solution that outlives
// its probe is one slices.Clone.

// slotRow is the solution a FILTER expression reads: it decodes a term
// only when the expression reads that variable, counting the decodes.
type slotRow struct {
	ids     []store.ID
	dict    *store.Dict
	decodes int64
}

func (r *slotRow) term(_ string, slot int) (rdf.Term, bool) {
	id := r.ids[slot]
	if id == store.Wildcard {
		return rdf.Term{}, false
	}
	r.decodes++
	return r.dict.Term(id), true
}

type evaluator struct {
	src  store.Source
	dict *store.Dict
	// row is what plain FILTERs evaluate against, pointed at the current
	// solution per evaluation, so a filtered scan allocates nothing per
	// solution: Expr.Eval neither re-enters the evaluator nor keeps it.
	row slotRow
	// err records the first execution error; recursion unwinds by
	// returning false once it is set.
	err error
	// ctx is the execution's request context; cancelled() probes it
	// every cancelTick match callbacks. nil means uncancellable.
	ctx context.Context
	// tick counts cancellation probes (see cancelled).
	tick uint32
	// plan is the executing plan; runRoot reads its parallel decision.
	// nil for worker evaluators and the naive reference evaluator, whose
	// pipelines are always serial.
	plan *Plan
	// parStop, when set, is the merger's early-termination flag of the
	// parallel run this (worker) evaluator belongs to.
	parStop *atomic.Bool
	// stats, when set, is the EXPLAIN ANALYZE record this execution
	// accumulates operator statistics into. Worker evaluators share the
	// parent's record (its counters are atomic); nil means no analysis —
	// every instrumentation site pays one pointer check and nothing else.
	stats *execStatsRec
	// keys answers the morsel scan's name match (RunOptions.Keys).
	keys KeyIndex
	// Morsel scan evidence, reported on trace spans: the workers used
	// (0 = the root ran serial, 1 = inline) and the morsels processed.
	parWorkers int
	parTasks   int
}

// runGroup streams every solution of the planned group that extends s
// into emit. It returns false when emit (or an error) asked to stop.
func (ev *evaluator) runGroup(g *planGroup, s []store.ID, emit func([]store.ID) bool) bool {
	return ev.runSteps(g.steps, 0, s, emit)
}

func (ev *evaluator) runSteps(steps []planStep, i int, s []store.ID, emit func([]store.ID) bool) bool {
	if ev.err != nil {
		return false
	}
	if i == len(steps) {
		return emit(s)
	}
	next := func(s2 []store.ID) bool { return ev.runSteps(steps, i+1, s2, emit) }
	switch st := steps[i].(type) {
	case *bgpStep:
		return ev.newBGPRun(st, s, next).next(0)
	case *filterStep:
		if !ev.constraintHolds(st.c, s) {
			return ev.err == nil // drop this solution, keep streaming
		}
		return next(s)
	case *optionalStep:
		if rec := ev.stats; rec != nil {
			op := &rec.ops[st.si]
			op.loops.Add(1)
			inner := next
			next = func(s2 []store.ID) bool { op.rows.Add(1); return inner(s2) }
		}
		matched := false
		if !ev.runGroup(st.group, s, func(s2 []store.ID) bool {
			matched = true
			return next(s2)
		}) {
			return false
		}
		if !matched {
			return next(s)
		}
		return true
	case *unionStep:
		if rec := ev.stats; rec != nil {
			op := &rec.ops[st.si]
			op.loops.Add(1)
			inner := next
			next = func(s2 []store.ID) bool { op.rows.Add(1); return inner(s2) }
		}
		if !ev.runGroup(st.left, s, next) {
			return false
		}
		return ev.runGroup(st.right, s, next)
	case *groupStep:
		if rec := ev.stats; rec != nil {
			op := &rec.ops[st.si]
			op.loops.Add(1)
			inner := next
			next = func(s2 []store.ID) bool { op.rows.Add(1); return inner(s2) }
		}
		return ev.runGroup(st.group, s, next)
	default:
		ev.err = fmt.Errorf("sparql: unknown plan step %T", st)
		return false
	}
}

// bgpRun is the per-execution state of one basic graph pattern: one
// frame per pattern plus a ForEach callback created once per pattern, so
// matching allocates O(patterns), not O(matches).
type bgpRun struct {
	ev     *evaluator
	b      *bgpStep
	s      []store.ID
	emit   func([]store.ID) bool
	frames []bgpFrame
	// A morsel scan's run enumerates pattern 0 from parts (scanPart) and
	// tests its perKey leading pushed constraints per key (keep).
	parts  *store.Parts
	in     func(store.ID) bool
	perKey int
}

// bgpFrame holds the loop-variant state of one pattern position while
// its matches are enumerated. Frames are never re-entered concurrently:
// the depth-first walk visits each position at most once per probe.
type bgpFrame struct {
	svar, ovar int  // slots to bind (-1 when constant or already bound)
	pvarBound  bool // variable predicate was already bound
	cont       bool // false once a deeper level asked to stop
	cb         func(store.ETriple) bool
}

// newBGPRun prepares b's patterns to extend row s in planned order,
// applying each pattern's pushed constraints the moment its variables
// bind, and emitting every full match; next(0) runs it.
func (ev *evaluator) newBGPRun(b *bgpStep, s []store.ID, emit func([]store.ID) bool) *bgpRun {
	r := &bgpRun{ev: ev, b: b, s: s, emit: emit, frames: make([]bgpFrame, len(b.patterns))}
	for i := range r.frames {
		idx := i
		r.frames[i].cb = func(t store.ETriple) bool { return r.onTriple(idx, t) }
	}
	return r
}

// next enumerates the matches of pattern idx (or emits the solution when
// every pattern matched). It returns false when the consumer asked to
// stop. Constants were already resolved at plan time.
func (r *bgpRun) next(idx int) bool {
	if idx == len(r.b.patterns) {
		return r.emit(r.s)
	}
	pp := r.b.patterns[idx]
	if st := r.ev.stats; st != nil {
		op := &st.ops[pp.si]
		op.loops.Add(1)
		start := time.Now()
		// Inclusive timing (deeper patterns run inside this window), the
		// EXPLAIN ANALYZE convention.
		defer func() { op.durNs.Add(int64(time.Since(start))) }()
	}
	sid, svar, ok := derefNode(pp.s, r.s)
	if !ok {
		return true // constant unknown to the dictionary: zero matches
	}
	oid, ovar, ok := derefNode(pp.o, r.s)
	if !ok {
		return true
	}
	f := &r.frames[idx]
	f.svar, f.ovar, f.cont = svar, ovar, true
	switch pp.pk {
	case pkSimple:
		if pp.pid == store.Wildcard {
			return true // predicate IRI unknown to the dictionary
		}
		r.ev.src.ForEach(sid, pp.pid, oid, f.cb)
		return f.cont
	case pkVar:
		pid := r.s[pp.pvar]
		f.pvarBound = pid != store.Wildcard
		r.ev.src.ForEach(sid, pid, oid, f.cb)
		return f.cont
	default:
		// Composite property path: delegate to the path engine, which
		// returns the endpoint pairs reachable under the (possibly
		// bound) endpoints.
		for _, pr := range r.ev.evalPath(pp.tp.P, sid, oid) {
			if svar >= 0 && svar == ovar && pr[0] != pr[1] {
				continue
			}
			if !r.bind(idx, svar, pr[0], ovar, pr[1]) {
				return false
			}
		}
		return true
	}
}

// onTriple handles one index match for pattern idx: bind the pattern's
// variables in place, run the deeper levels, then restore the bindings.
func (r *bgpRun) onTriple(idx int, t store.ETriple) bool {
	if r.ev.cancelled() || r.ev.stopped() {
		r.frames[idx].cont = false
		return false
	}
	if st := r.ev.stats; st != nil {
		st.scanned.Add(1)
	}
	f := &r.frames[idx]
	svar, ovar := f.svar, f.ovar
	if svar >= 0 && svar == ovar && t.S != t.O {
		return true // one variable in two positions: they must agree
	}
	if pp := r.b.patterns[idx]; pp.pk == pkVar && !f.pvarBound {
		if (svar == pp.pvar && t.S != t.P) || (ovar == pp.pvar && t.O != t.P) {
			return true
		}
		r.s[pp.pvar] = t.P
		f.cont = r.bind(idx, svar, t.S, ovar, t.O)
		r.s[pp.pvar] = store.Wildcard
		return f.cont
	}
	f.cont = r.bind(idx, svar, t.S, ovar, t.O)
	return f.cont
}

// bind binds slots svar and ovar (-1: none) to sid and oid, runs the
// deeper levels, and unbinds them again.
func (r *bgpRun) bind(idx, svar int, sid store.ID, ovar int, oid store.ID) bool {
	if svar >= 0 {
		r.s[svar] = sid
	}
	if ovar >= 0 {
		r.s[ovar] = oid
	}
	cont := r.matched(idx)
	if svar >= 0 {
		r.s[svar] = store.Wildcard
	}
	if ovar >= 0 {
		r.s[ovar] = store.Wildcard
	}
	return cont
}

// matched applies pattern idx's pushed constraints to the extended
// solution, then advances to the next pattern.
func (r *bgpRun) matched(idx int) bool {
	pp := r.b.patterns[idx]
	cs := pp.pushed
	if st := r.ev.stats; st != nil {
		st.ops[pp.si].rows.Add(1)
	}
	if idx == 0 && r.perKey > 0 {
		if st := r.ev.stats; st != nil {
			for _, c := range cs[:r.perKey] { // passed on the key
				st.ops[c.si].loops.Add(1)
				st.ops[c.si].rows.Add(1)
			}
		}
		cs = cs[r.perKey:]
	}
	for _, c := range cs {
		if !r.ev.constraintHolds(c, r.s) {
			return r.ev.err == nil // reject this extension, continue matching
		}
	}
	return r.next(idx + 1)
}

// constraintHolds applies a planned FILTER or (NOT) EXISTS constraint to
// the current solution, counting tested/passed solutions and wall time
// when an analyze record is armed.
func (ev *evaluator) constraintHolds(c *plannedConstraint, s []store.ID) bool {
	st := ev.stats
	if st == nil {
		return ev.constraintEval(c, s)
	}
	op := &st.ops[c.si]
	op.loops.Add(1)
	start := time.Now()
	ok := ev.constraintEval(c, s)
	op.durNs.Add(int64(time.Since(start)))
	if ok {
		op.rows.Add(1)
	}
	return ok
}

// constraintEval evaluates the constraint under SPARQL error semantics
// (evaluation error → false).
func (ev *evaluator) constraintEval(c *plannedConstraint, s []store.ID) bool {
	if c.exists != nil {
		found := false
		ev.runGroup(c.group, s, func([]store.ID) bool {
			found = true
			return false // first match settles EXISTS
		})
		if ev.err != nil {
			return false
		}
		return found != c.exists.Negated
	}
	if c.fastSlot >= 0 {
		// ID-level fast path: compare dictionary IDs, no term decoding.
		id := s[c.fastSlot]
		if id == store.Wildcard {
			return false
		}
		return (c.fastKnown && id == c.fastID) != c.fastNeg
	}
	ev.row = slotRow{ids: s, dict: ev.dict}
	v, err := c.filter.Expr.Eval(&ev.row)
	if st := ev.stats; st != nil {
		st.decodes.Add(ev.row.decodes)
	}
	if err != nil {
		return false
	}
	t, err := v.Truth()
	return err == nil && t
}

// project turns the solutions run streams into result rows of the
// projection items: per group under GROUP BY or an aggregate, one row per
// solution otherwise.
func (ev *evaluator) project(q *Query, items []SelectItem, run func(func([]store.ID) bool)) (*Result, error) {
	if len(q.GroupBy) > 0 || slices.ContainsFunc(items, func(it SelectItem) bool { return it.Agg != nil }) {
		return ev.aggregateRows(q, items, run)
	}
	return ev.selectRows(q, items, run)
}

// selectRows builds result rows straight from the streamed solutions,
// copying only the projected slots' IDs. DISTINCT keys on those IDs, and
// a streamable LIMIT stops the pipeline as soon as enough rows exist.
func (ev *evaluator) selectRows(q *Query, items []SelectItem, run func(func([]store.ID) bool)) (*Result, error) {
	res := &Result{Vars: make([]string, len(items)), dict: ev.dict}
	slots := make([]int, len(items))
	for i, it := range items {
		res.Vars[i], slots[i] = it.Var, q.slot(it.Var)
	}
	needed := -1 // unlimited
	if q.streamable() {
		needed = q.Limit + q.Offset
	}
	var distinct func([]store.ID) bool
	if q.Distinct {
		distinct = rowSet()
	}
	if needed != 0 {
		run(func(s []store.ID) bool {
			start, bound := len(res.cells), 0
			for _, slot := range slots {
				res.cells = append(res.cells, s[slot])
				if s[slot] != store.Wildcard {
					bound++
				}
			}
			st := ev.stats
			if distinct != nil && !distinct(res.cells[start:]) {
				res.cells = res.cells[:start]
				if st != nil {
					st.distinctDropped++
				}
				return true
			}
			res.n++
			if st != nil {
				// Each bound cell is decoded once, by whoever reads the row.
				st.decodes.Add(int64(bound))
			}
			return needed < 0 || res.n < needed
		})
		if ev.err != nil {
			return nil, ev.err
		}
		if st := ev.stats; st != nil && needed >= 0 && res.n >= needed {
			st.limitStopped = true
		}
	}
	return res.window(q), nil
}

// aggregateRows streams solutions straight into per-group aggregate
// state — group key, COUNT counters, and the IDs the projection needs —
// instead of materializing the solutions.
func (ev *evaluator) aggregateRows(q *Query, items []SelectItem, run func(func([]store.ID) bool)) (*Result, error) {
	res := &Result{Vars: make([]string, len(items)), dict: ev.dict}
	slots := make([]int, len(items)) // a plain item's slot, or an aggregate's argument (-1: COUNT(*))
	for i, it := range items {
		switch {
		case it.Agg == nil:
			res.Vars[i], slots[i] = it.Var, q.slot(it.Var)
		case it.Agg.Var == "":
			res.Vars[i], slots[i] = it.Agg.As, -1
		default:
			res.Vars[i], slots[i] = it.Agg.As, q.slot(it.Agg.Var)
		}
	}
	groupSlots := make([]int, len(q.GroupBy))
	for i, gv := range q.GroupBy {
		groupSlots[i] = q.slot(gv)
	}
	type aggState struct {
		rep  []store.ID          // per plain item: the group's first solution's ID
		n    []int               // per-item COUNT
		seen []map[store.ID]bool // per-item COUNT(DISTINCT ...) dedup
	}
	newState := func() *aggState {
		return &aggState{
			rep:  make([]store.ID, len(items)),
			n:    make([]int, len(items)),
			seen: make([]map[store.ID]bool, len(items)),
		}
	}
	groups := map[string]*aggState{}
	var order []string
	var key []byte
	run(func(s []store.ID) bool {
		key = key[:0]
		for _, slot := range groupSlots {
			key = binary.LittleEndian.AppendUint32(key, uint32(s[slot]))
		}
		g := groups[string(key)]
		if g == nil {
			g = newState()
			for i, it := range items {
				if it.Agg == nil {
					g.rep[i] = s[slots[i]]
				}
			}
			k := string(key)
			groups[k] = g
			order = append(order, k)
		}
		for i, it := range items {
			switch {
			case it.Agg == nil:
			case slots[i] < 0:
				g.n[i]++
			case s[slots[i]] == store.Wildcard:
				// COUNT(?x) skips solutions leaving ?x unbound.
			case it.Agg.Distinct:
				if g.seen[i] == nil {
					g.seen[i] = make(map[store.ID]bool)
				}
				if id := s[slots[i]]; !g.seen[i][id] {
					g.seen[i][id] = true
					g.n[i]++
				}
			default:
				g.n[i]++
			}
		}
		return true
	})
	if ev.err != nil {
		return nil, ev.err
	}
	if st := ev.stats; st != nil {
		st.groups = int64(len(order))
	}
	// With no solutions and no GROUP BY, aggregates still yield one row.
	if len(order) == 0 && len(q.GroupBy) == 0 {
		groups[""] = newState()
		order = append(order, "")
	}
	counts := map[rdf.Term]store.ID{}
	for _, k := range order {
		g := groups[k]
		for i, it := range items {
			if it.Agg != nil {
				g.rep[i] = res.compute(rdf.Integer(int64(g.n[i])), counts)
			}
		}
		res.cells, res.n = append(res.cells, g.rep...), res.n+1
	}
	if q.Distinct {
		res.distinct()
	}
	return res.window(q), nil
}

// derefNode turns a plan-time node reference into (boundID, slot) under
// the current solution: slot is the variable's while it is unbound
// (boundID Wildcard), -1 otherwise. ok is false when the node is a
// constant unknown to the dictionary (no match possible).
func derefNode(r nodeRef, s []store.ID) (id store.ID, slot int, ok bool) {
	if r.slot < 0 {
		return r.id, -1, r.known
	}
	if id := s[r.slot]; id != store.Wildcard {
		return id, -1, true
	}
	return store.Wildcard, r.slot, true
}

// construct instantiates the CONSTRUCT template once per solution.
// Instantiations with an unbound variable, a literal subject or a
// non-IRI predicate are skipped, per the SPARQL specification.
func (ev *evaluator) construct(q *Query, sols [][]store.ID) *Result {
	// A template position is a constant term or a variable's slot,
	// resolved once for all solutions.
	type pos struct {
		t    rdf.Term
		slot int // -1 for a constant
	}
	at := func(n NodePattern) pos {
		if n.IsVar() {
			return pos{slot: q.slot(n.Var)}
		}
		return pos{t: n.Term, slot: -1}
	}
	tmpl := make([][3]pos, len(q.Template))
	for i, tp := range q.Template {
		tmpl[i][0], tmpl[i][2] = at(tp.S), at(tp.O)
		switch p := tp.P.(type) {
		case PathIRI:
			tmpl[i][1] = pos{t: rdf.IRI(p.IRI), slot: -1}
		case PathVar:
			tmpl[i][1] = at(VarNode(p.Name))
		}
	}
	term := func(p pos, s []store.ID) (rdf.Term, bool) {
		if p.slot < 0 {
			return p.t, true
		}
		if id := s[p.slot]; id != store.Wildcard {
			return ev.dict.Term(id), true
		}
		return rdf.Term{}, false
	}
	var out []rdf.Triple
	for _, s := range sols {
		for _, tp := range tmpl {
			subj, sok := term(tp[0], s)
			pred, pok := term(tp[1], s)
			obj, ook := term(tp[2], s)
			if sok && pok && ook && !subj.IsLiteral() && pred.IsIRI() {
				out = append(out, rdf.T(subj, pred, obj))
			}
		}
	}
	rdf.SortTriples(out)
	return &Result{Triples: rdf.DedupTriples(out)}
}
