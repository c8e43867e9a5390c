package sparql

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/rescache"
	"mdw/internal/store"
)

// Result is the outcome of query execution.
type Result struct {
	// Vars lists the projected variable names in order.
	Vars []string
	// Rows holds one binding per solution. Unbound projected variables
	// (possible under OPTIONAL) are absent from the map.
	Rows []Binding
	// Ask holds the result of an ASK query.
	Ask bool
	// Triples holds the graph produced by a CONSTRUCT query, sorted and
	// deduplicated.
	Triples []rdf.Triple
}

// RunOptions selects how one execution runs.
type RunOptions struct {
	// Analyze arms operator-level instrumentation (EXPLAIN ANALYZE): the
	// run returns an ExecStats tree with actual rows, loops, and wall time
	// per operator. An analyzed run always executes — it bypasses the
	// results cache, because its statistics must come from a real
	// execution, never from a cached result that executed nothing.
	Analyze bool
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
	var genKey string
	if rc != nil && !opt.Analyze && q.resultsCacheable() {
		if gk, ok := sourceVersion(src); ok {
			genKey = gk
			if v, ok := rc.Get(q.resultCacheKey(genKey)); ok {
				return q.serveCachedResult(ctx, v.(*Result)), nil, nil
			}
		}
	}
	sp, _ := obs.ChildCtx(ctx, "sparql plan")
	p := q.Plan(src, dict)
	sp.Finish()
	res, stats, err := p.Run(ctx, opt)
	if genKey != "" && err == nil && res != nil {
		rc.Put(q.resultCacheKey(genKey), res, estimateResultSize(res))
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
	res, info, err := p.exec(ctx, rec)
	d := obsExecHist.ObserveSince(t0)
	if err != nil || res == nil {
		sp.Finish()
		return res, nil, err
	}
	rows := len(res.Rows)
	if p.query.Kind == ConstructQuery {
		rows = len(res.Triples)
	} else if p.query.Kind == AskQuery {
		rows = 1
	}
	if info.workers > 1 {
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

func (p *Plan) exec(ctx context.Context, rec *execStatsRec) (*Result, execInfo, error) {
	if p.src == nil || p.dict == nil {
		return nil, execInfo{}, errors.New("sparql: plan was built without a source; use Query.Plan(src, dict)")
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, execInfo{}, err
		}
	}
	q := p.query
	ev := &evaluator{src: p.src, dict: p.dict, ctx: ctx, plan: p, stats: rec}
	res, err := ev.execKind(q)
	return res, execInfo{workers: ev.parWorkers, tasks: ev.parTasks}, err
}

func (ev *evaluator) execKind(q *Query) (*Result, error) {
	if q.Kind == AskQuery {
		found := false
		ev.runRoot(func(env) bool {
			found = true
			return false
		})
		if ev.err != nil {
			return nil, ev.err
		}
		if found {
			obsEarlyAsk.Inc()
		}
		return &Result{Ask: found}, nil
	}
	if q.Kind == SelectQuery && len(q.Select) > 0 {
		if hasAggregates(q) || len(q.GroupBy) > 0 {
			return ev.aggregateRows(q)
		}
		return ev.selectRows(q)
	}
	var sols []env
	ev.runRoot(func(s env) bool {
		sols = append(sols, s.clone())
		return true
	})
	if ev.err != nil {
		return nil, ev.err
	}
	if q.Kind == ConstructQuery {
		return ev.construct(q, sols)
	}
	return ev.project(q, sols)
}

// env is a variable assignment at the dictionary-ID level. The executor
// mutates one env in place along each depth-first probe and backtracks
// by deleting, cloning only when a solution is materialized.
type env map[string]store.ID

func (e env) clone() env {
	c := make(env, len(e)+2)
	for k, v := range e {
		c[k] = v
	}
	return c
}

type evaluator struct {
	src  store.Source
	dict *store.Dict
	// scratch is the Binding constraintEval refills for every plain FILTER
	// evaluation, so a filtered scan allocates nothing per solution:
	// Expr.Eval neither re-enters the evaluator nor keeps the map.
	scratch Binding
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
	// Parallel execution evidence, reported on trace spans: the workers
	// launched (0 = the execution stayed serial) and the morsels processed.
	parWorkers int
	parTasks   int
}

// runGroup streams every solution of the planned group that extends s
// into emit. It returns false when emit (or an error) asked to stop.
func (ev *evaluator) runGroup(g *planGroup, s env, emit func(env) bool) bool {
	return ev.runSteps(g.steps, 0, s, emit)
}

func (ev *evaluator) runSteps(steps []planStep, i int, s env, emit func(env) bool) bool {
	if ev.err != nil {
		return false
	}
	if i == len(steps) {
		return emit(s)
	}
	next := func(s2 env) bool { return ev.runSteps(steps, i+1, s2, emit) }
	switch st := steps[i].(type) {
	case *bgpStep:
		return ev.runBGP(st, s, next)
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
			next = func(s2 env) bool { op.rows.Add(1); return inner(s2) }
		}
		matched := false
		if !ev.runGroup(st.group, s, func(s2 env) bool {
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
			next = func(s2 env) bool { op.rows.Add(1); return inner(s2) }
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
			next = func(s2 env) bool { op.rows.Add(1); return inner(s2) }
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
	s      env
	emit   func(env) bool
	frames []bgpFrame
}

// bgpFrame holds the loop-variant state of one pattern position while
// its matches are enumerated. Frames are never re-entered concurrently:
// the depth-first walk visits each position at most once per probe.
type bgpFrame struct {
	svar, ovar string // variables to bind ("" when constant or already bound)
	pvarBound  bool   // variable predicate was already bound
	cont       bool   // false once a deeper level asked to stop
	cb         func(store.ETriple) bool
}

// runBGP extends s through the BGP's patterns in planned order, applying
// each pattern's pushed constraints the moment its variables bind, and
// emits every full match.
func (ev *evaluator) runBGP(b *bgpStep, s env, emit func(env) bool) bool {
	r := &bgpRun{ev: ev, b: b, s: s, emit: emit, frames: make([]bgpFrame, len(b.patterns))}
	for i := range r.frames {
		idx := i
		r.frames[i].cb = func(t store.ETriple) bool { return r.onTriple(idx, t) }
	}
	return r.next(0)
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
		pid := store.Wildcard
		f.pvarBound = false
		if bound, isBound := r.s[pp.pvar]; isBound {
			pid, f.pvarBound = bound, true
		}
		r.ev.src.ForEach(sid, pid, oid, f.cb)
		return f.cont
	default:
		// Composite property path: delegate to the path engine, which
		// returns the endpoint pairs reachable under the (possibly
		// bound) endpoints.
		for _, pr := range r.ev.evalPath(pp.tp.P, sid, oid) {
			if svar != "" && svar == ovar && pr[0] != pr[1] {
				continue
			}
			if svar != "" {
				r.s[svar] = pr[0]
			}
			if ovar != "" {
				r.s[ovar] = pr[1]
			}
			cont := r.matched(idx)
			if svar != "" {
				delete(r.s, svar)
			}
			if ovar != "" {
				delete(r.s, ovar)
			}
			if !cont {
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
	pp := r.b.patterns[idx]
	f := &r.frames[idx]
	s := r.s
	svar, ovar := f.svar, f.ovar
	if pp.pk == pkVar {
		// Shared variables across positions must agree.
		pvar := pp.pvar
		if svar != "" && svar == pvar && t.S != t.P {
			return true
		}
		if ovar != "" && ovar == pvar && t.O != t.P {
			return true
		}
		if svar != "" && svar == ovar && t.S != t.O {
			return true
		}
		if svar != "" {
			s[svar] = t.S
		}
		if !f.pvarBound {
			s[pvar] = t.P
		}
		if ovar != "" {
			s[ovar] = t.O
		}
		cont := r.matched(idx)
		if svar != "" {
			delete(s, svar)
		}
		if !f.pvarBound {
			delete(s, pvar)
		}
		if ovar != "" {
			delete(s, ovar)
		}
		f.cont = cont
		return cont
	}
	if svar != "" {
		if svar == ovar && t.S != t.O {
			return true
		}
		s[svar] = t.S
	}
	if ovar != "" {
		s[ovar] = t.O
	}
	cont := r.matched(idx)
	if svar != "" {
		delete(s, svar)
	}
	if ovar != "" {
		delete(s, ovar)
	}
	f.cont = cont
	return cont
}

// matched applies pattern idx's pushed constraints to the extended
// solution, then advances to the next pattern.
func (r *bgpRun) matched(idx int) bool {
	pp := r.b.patterns[idx]
	if st := r.ev.stats; st != nil {
		st.ops[pp.si].rows.Add(1)
	}
	for _, c := range pp.pushed {
		if !r.ev.constraintHolds(c, r.s) {
			return r.ev.err == nil // reject this extension, continue matching
		}
	}
	return r.next(idx + 1)
}

// constraintHolds applies a planned FILTER or (NOT) EXISTS constraint to
// the current solution, counting tested/passed solutions and wall time
// when an analyze record is armed.
func (ev *evaluator) constraintHolds(c *plannedConstraint, s env) bool {
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
func (ev *evaluator) constraintEval(c *plannedConstraint, s env) bool {
	if c.exists != nil {
		found := false
		ev.runGroup(c.group, s, func(env) bool {
			found = true
			return false // first match settles EXISTS
		})
		if ev.err != nil {
			return false
		}
		return found != c.exists.Negated
	}
	if c.fastVar != "" {
		// ID-level fast path: compare dictionary IDs, no term decoding.
		id, bound := s[c.fastVar]
		if !bound {
			return false
		}
		eq := c.fastKnown && id == c.fastID
		if c.fastNeg {
			return !eq
		}
		return eq
	}
	b := ev.scratch
	if b == nil {
		b = make(Binding, len(c.vars))
		ev.scratch = b
	}
	clear(b)
	for _, v := range c.vars {
		if id, ok := s[v]; ok {
			b[v] = ev.dict.Term(id)
		}
	}
	if st := ev.stats; st != nil {
		st.decodes.Add(int64(len(b)))
	}
	v, err := c.filter.Expr.Eval(b)
	if err != nil {
		return false
	}
	t, err := v.Truth()
	if err != nil {
		return false
	}
	return t
}

// hasAggregates reports whether any projection item is an aggregate.
func hasAggregates(q *Query) bool {
	for _, it := range q.Select {
		if it.Agg != nil {
			return true
		}
	}
	return false
}

// selectRows handles every plain SELECT with an explicit projection by
// building result rows directly from the streamed solutions — no
// intermediate env clone per solution. When the query has a LIMIT and no
// ORDER BY it also stops the pipeline as soon as enough rows exist.
func (ev *evaluator) selectRows(q *Query) (*Result, error) {
	vars := make([]string, len(q.Select))
	for i, it := range q.Select {
		vars[i] = it.Var
	}
	needed := -1 // unlimited
	if len(q.OrderBy) == 0 && q.Limit >= 0 {
		needed = q.Limit + q.Offset
	}
	var rows []Binding
	var seen map[string]bool
	if q.Distinct {
		seen = make(map[string]bool)
	}
	if needed != 0 {
		ev.runRoot(func(s env) bool {
			b := make(Binding, len(vars))
			decoded := int64(0)
			for _, v := range vars {
				if id, ok := s[v]; ok {
					b[v] = ev.dict.Term(id)
					decoded++
				}
			}
			if st := ev.stats; st != nil {
				st.decodes.Add(decoded)
			}
			if q.Distinct {
				key := rowKey(vars, b)
				if seen[key] {
					if st := ev.stats; st != nil {
						st.distinctDropped++
					}
					return true
				}
				seen[key] = true
			}
			rows = append(rows, b)
			return needed < 0 || len(rows) < needed
		})
		if ev.err != nil {
			return nil, ev.err
		}
		if needed >= 0 && len(rows) >= needed {
			obsEarlyLimit.Inc()
			if st := ev.stats; st != nil {
				st.limitStopped = true
			}
		}
	}
	if len(q.OrderBy) > 0 {
		sortRows(q.OrderBy, rows)
	}
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	return &Result{Vars: vars, Rows: rows}, nil
}

// aggregateRows streams solutions straight into per-group aggregate
// state — group key, COUNT counters, and the handful of IDs the
// projection needs — instead of materializing a cloned env per solution.
func (ev *evaluator) aggregateRows(q *Query) (*Result, error) {
	items := q.Select
	vars := make([]string, len(items))
	for i, it := range items {
		if it.Agg != nil {
			vars[i] = it.Agg.As
		} else {
			vars[i] = it.Var
		}
	}
	type aggState struct {
		rep   []store.ID // captured value per plain projection item
		repOK []bool
		n     []int               // per-item COUNT
		seen  []map[store.ID]bool // per-item COUNT(DISTINCT ...) dedup
	}
	newState := func() *aggState {
		return &aggState{
			rep:   make([]store.ID, len(items)),
			repOK: make([]bool, len(items)),
			n:     make([]int, len(items)),
			seen:  make([]map[store.ID]bool, len(items)),
		}
	}
	groups := map[string]*aggState{}
	var order []string
	var keyBuf []byte
	ev.runRoot(func(s env) bool {
		keyBuf = keyBuf[:0]
		for _, gv := range q.GroupBy {
			keyBuf = strconv.AppendUint(keyBuf, uint64(s[gv]), 10)
			keyBuf = append(keyBuf, '|')
		}
		k := string(keyBuf)
		g := groups[k]
		if g == nil {
			g = newState()
			for i, it := range items {
				if it.Agg == nil {
					if id, ok := s[it.Var]; ok {
						g.rep[i], g.repOK[i] = id, true
					}
				}
			}
			groups[k] = g
			order = append(order, k)
		}
		for i, it := range items {
			if it.Agg == nil {
				continue
			}
			switch {
			case it.Agg.Var == "":
				g.n[i]++
			case it.Agg.Distinct:
				if id, ok := s[it.Agg.Var]; ok {
					if g.seen[i] == nil {
						g.seen[i] = make(map[store.ID]bool)
					}
					if !g.seen[i][id] {
						g.seen[i][id] = true
						g.n[i]++
					}
				}
			default:
				if _, ok := s[it.Agg.Var]; ok {
					g.n[i]++
				}
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
	rows := make([]Binding, 0, len(order))
	for _, k := range order {
		g := groups[k]
		b := Binding{}
		for i, it := range items {
			if it.Agg == nil {
				if g.repOK[i] {
					b[it.Var] = ev.dict.Term(g.rep[i])
				}
				continue
			}
			b[it.Agg.As] = rdf.Integer(int64(g.n[i]))
		}
		rows = append(rows, b)
	}
	if q.Distinct {
		rows = distinctRows(vars, rows)
	}
	if len(q.OrderBy) > 0 {
		sortRows(q.OrderBy, rows)
	}
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	return &Result{Vars: vars, Rows: rows}, nil
}

// derefNode turns a plan-time node reference into (boundID, varName)
// under the current solution. boundID is Wildcard when the node is an
// unbound variable; ok is false when the node is a constant unknown to
// the dictionary (no match possible).
func derefNode(r nodeRef, s env) (id store.ID, varName string, ok bool) {
	if r.name != "" {
		if v, bound := s[r.name]; bound {
			return v, "", true
		}
		return store.Wildcard, r.name, true
	}
	if !r.known {
		return 0, "", false
	}
	return r.id, "", true
}

// resolveNode turns a node pattern into (boundID, varName). boundID is
// Wildcard when the node is an unbound variable; ok is false when the
// node is a constant unknown to the dictionary (no match possible).
func (ev *evaluator) resolveNode(n NodePattern, s env) (id store.ID, varName string, ok bool) {
	if n.IsVar() {
		if v, bound := s[n.Var]; bound {
			return v, "", true
		}
		return store.Wildcard, n.Var, true
	}
	id, found := ev.dict.Lookup(n.Term)
	if !found {
		return 0, "", false
	}
	return id, "", true
}

// construct instantiates the CONSTRUCT template once per solution.
// Instantiations with unbound variables or a literal subject are skipped,
// per the SPARQL specification.
func (ev *evaluator) construct(q *Query, sols []env) (*Result, error) {
	var out []rdf.Triple
	for _, s := range sols {
		for _, tp := range q.Template {
			subj, ok := ev.instantiateNode(tp.S, s)
			if !ok || subj.IsLiteral() {
				continue
			}
			var pred rdf.Term
			switch p := tp.P.(type) {
			case PathIRI:
				pred = rdf.IRI(p.IRI)
			case PathVar:
				id, bound := s[p.Name]
				if !bound {
					continue
				}
				pred = ev.dict.Term(id)
				if !pred.IsIRI() {
					continue
				}
			default:
				continue
			}
			obj, ok := ev.instantiateNode(tp.O, s)
			if !ok {
				continue
			}
			out = append(out, rdf.T(subj, pred, obj))
		}
	}
	rdf.SortTriples(out)
	out = rdf.DedupTriples(out)
	return &Result{Triples: out}, nil
}

func (ev *evaluator) instantiateNode(n NodePattern, s env) (rdf.Term, bool) {
	if !n.IsVar() {
		return n.Term, true
	}
	id, ok := s[n.Var]
	if !ok {
		return rdf.Term{}, false
	}
	return ev.dict.Term(id), true
}

// project applies grouping, aggregation, DISTINCT, ORDER BY, and
// LIMIT/OFFSET, producing the final result table.
func (ev *evaluator) project(q *Query, sols []env) (*Result, error) {
	items := q.Select
	if len(items) == 0 {
		// SELECT *: project every variable seen in any solution.
		seen := map[string]bool{}
		var vars []string
		for _, s := range sols {
			for v := range s {
				if !seen[v] {
					seen[v] = true
					vars = append(vars, v)
				}
			}
		}
		sort.Strings(vars)
		for _, v := range vars {
			items = append(items, SelectItem{Var: v})
		}
	}

	hasAgg := false
	for _, it := range items {
		if it.Agg != nil {
			hasAgg = true
		}
	}

	var rows []Binding
	var vars []string
	for _, it := range items {
		if it.Agg != nil {
			vars = append(vars, it.Agg.As)
		} else {
			vars = append(vars, it.Var)
		}
	}

	if hasAgg || len(q.GroupBy) > 0 {
		rows = ev.aggregate(q, items, sols)
	} else {
		for _, s := range sols {
			b := make(Binding, len(items))
			for _, it := range items {
				if id, ok := s[it.Var]; ok {
					b[it.Var] = ev.dict.Term(id)
				}
			}
			rows = append(rows, b)
		}
	}

	if q.Distinct {
		rows = distinctRows(vars, rows)
	}
	if len(q.OrderBy) > 0 {
		sortRows(q.OrderBy, rows)
	}
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	return &Result{Vars: vars, Rows: rows}, nil
}

func (ev *evaluator) aggregate(q *Query, items []SelectItem, sols []env) []Binding {
	type groupState struct {
		rep     env
		members []env
	}
	groups := map[string]*groupState{}
	var order []string
	for _, s := range sols {
		var key strings.Builder
		for _, gv := range q.GroupBy {
			fmt.Fprintf(&key, "%d|", s[gv])
		}
		k := key.String()
		g, ok := groups[k]
		if !ok {
			g = &groupState{rep: s}
			groups[k] = g
			order = append(order, k)
		}
		g.members = append(g.members, s)
	}
	// With no solutions and no GROUP BY, aggregates still yield one row.
	if len(order) == 0 && len(q.GroupBy) == 0 {
		groups[""] = &groupState{rep: env{}}
		order = append(order, "")
	}

	var rows []Binding
	for _, k := range order {
		g := groups[k]
		b := Binding{}
		for _, it := range items {
			if it.Agg == nil {
				if id, ok := g.rep[it.Var]; ok {
					b[it.Var] = ev.dict.Term(id)
				}
				continue
			}
			n := 0
			switch {
			case it.Agg.Var == "":
				n = len(g.members)
			case it.Agg.Distinct:
				seen := map[store.ID]bool{}
				for _, m := range g.members {
					if id, ok := m[it.Agg.Var]; ok && !seen[id] {
						seen[id] = true
						n++
					}
				}
			default:
				for _, m := range g.members {
					if _, ok := m[it.Agg.Var]; ok {
						n++
					}
				}
			}
			b[it.Agg.As] = rdf.Integer(int64(n))
		}
		rows = append(rows, b)
	}
	return rows
}

// rowKey serializes a row's projected values into a dedup key.
func rowKey(vars []string, r Binding) string {
	var key strings.Builder
	for _, v := range vars {
		if t, ok := r[v]; ok {
			key.WriteString(t.String())
		}
		key.WriteByte('\x00')
	}
	return key.String()
}

func distinctRows(vars []string, rows []Binding) []Binding {
	seen := map[string]bool{}
	var out []Binding
	for _, r := range rows {
		k := rowKey(vars, r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func sortRows(conds []OrderCond, rows []Binding) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, c := range conds {
			a, aok := rows[i][c.Var]
			b, bok := rows[j][c.Var]
			var cmp int
			switch {
			case !aok && !bok:
				cmp = 0
			case !aok:
				cmp = -1
			case !bok:
				cmp = 1
			default:
				if n, err := compareTerms(a, b); err == nil {
					cmp = n
				} else {
					cmp = rdf.Compare(a, b)
				}
			}
			if cmp != 0 {
				if c.Desc {
					return cmp > 0
				}
				return cmp < 0
			}
		}
		return false
	})
}
