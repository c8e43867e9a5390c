package sparql

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// Plan is the executable, explainable evaluation plan of a query: the
// single source of truth for join order, filter placement, and early
// termination. Run executes it; String renders it. Both views therefore
// can never drift apart.
//
// A Plan is bound to the (source, dict) pair it was built against: the
// join order is chosen from that source's statistics and constant terms
// are resolved against that dictionary. Build with Query.Plan; a nil
// source falls back to static selectivity heuristics (used by Explain
// without data and by static checkers), in which case the plan can be
// rendered but not executed.
type Plan struct {
	query    *Query
	root     *planGroup
	src      store.Source
	dict     *store.Dict
	warnings []string

	// par is the parallel-execution decision taken at plan time from the
	// same cardinality estimates that chose the join order. The zero
	// value means serial execution.
	par parDecision

	// nstats is the number of operator stat slots assignStatSlots handed
	// out; analyzed executions allocate one opStats per slot.
	nstats int
}

// planGroup is the planned form of a GroupPattern: an ordered step
// pipeline with filters assigned to the earliest step where their
// variables are certainly bound.
type planGroup struct {
	steps []planStep
}

type planStep interface{ planStep() }

// bgpStep is one basic graph pattern in chosen join order.
type bgpStep struct {
	patterns []*patternPlan
	// cost is the model cost of the chosen order and seedCost that of the
	// greedy order the search started from; cost <= seedCost by
	// construction (joinOrder).
	cost, seedCost float64
}

// patternPlan is one triple pattern plus the constraints pushed to run
// immediately after it binds its variables.
type patternPlan struct {
	tp *TriplePattern
	// est is the cardinality estimated when the pattern was chosen,
	// under the variables bound by the preceding steps.
	est float64
	// pushed constraints run on every solution this pattern emits.
	pushed []*plannedConstraint
	// Terms resolved against the plan's dictionary once at plan time, so
	// the executor never repeats a dictionary lookup per solution. Only
	// filled when the plan was built with a dictionary (executable plans
	// always are).
	s, o nodeRef
	pk   pathKind
	pid  store.ID // pk == pkSimple: the predicate's ID, Wildcard when the dictionary lacks it
	pvar int      // pk == pkVar: the predicate variable's slot
	// si is the operator's stat slot (assignStatSlots).
	si int
}

// nodeRef is a subject/object position resolved at plan time: a
// variable's slot in the solution row, or (slot -1) a constant with its
// dictionary ID.
type nodeRef struct {
	slot  int      // variable's slot; -1 for constants
	id    store.ID // constant's ID (meaningless for variables)
	known bool     // constant exists in the dictionary
}

type pathKind int

const (
	pkSimple pathKind = iota // single forward predicate IRI
	pkVar                    // variable predicate
	pkPath                   // composite property path
)

// filterStep applies a constraint between pipeline steps (either pushed
// to an early position or residual at group end).
type filterStep struct {
	c *plannedConstraint
}

type optionalStep struct {
	group *planGroup
	si    int // stat slot (assignStatSlots)
}

type unionStep struct {
	left, right *planGroup
	si          int // stat slot (assignStatSlots)
}

type groupStep struct {
	group *planGroup
	si    int // stat slot (assignStatSlots)
}

func (*bgpStep) planStep()      {}
func (*filterStep) planStep()   {}
func (*optionalStep) planStep() {}
func (*unionStep) planStep()    {}
func (*groupStep) planStep()    {}

// plannedConstraint is a FILTER or FILTER (NOT) EXISTS with its
// placement metadata resolved at plan time.
type plannedConstraint struct {
	filter *Filter       // plain filter (nil when exists is set)
	exists *ExistsFilter // (NOT) EXISTS constraint
	group  *planGroup    // planned body of the exists pattern
	// need lists the variables that must be bound before the constraint
	// may run (variables the enclosing group can still bind later).
	need []string
	// pushed records whether the constraint runs before group end.
	pushed bool
	// ID-level equality fast path for ?x = <iri> / ?x != <iri>: when
	// fastSlot is a variable's slot (not -1) the constraint compares
	// dictionary IDs and skips term decoding entirely.
	fastSlot  int
	fastID    store.ID
	fastKnown bool // constant IRI exists in the dictionary
	fastNeg   bool // != instead of =
	// si is the operator's stat slot (assignStatSlots).
	si int
}

// varset tracks variables certainly bound at a point in the pipeline.
type varset map[string]bool

func (vs varset) clone() varset {
	c := make(varset, len(vs))
	for v := range vs {
		c[v] = true
	}
	return c
}

func (vs varset) hasAll(names []string) bool {
	for _, n := range names {
		if !vs[n] {
			return false
		}
	}
	return true
}

// Plan builds the evaluation plan for the query against src. Pass the
// source and dictionary the query will execute against so the planner
// can use real cardinalities; a nil src yields a statistics-free plan
// (static heuristics) good only for rendering and analysis.
func (q *Query) Plan(src store.Source, dict *store.Dict) *Plan {
	return q.PlanOpts(src, dict, ParOptions{})
}

// PlanOpts is Plan with explicit parallelism options: the worker cap,
// morsel size, and serial-fallback thresholds the plan's parallel
// decision uses. Tests force tiny thresholds through it; production
// callers want Plan.
func (q *Query) PlanOpts(src store.Source, dict *store.Dict, par ParOptions) *Plan {
	t0 := time.Now()
	p := &Plan{query: q, src: src, dict: dict}
	pl := &planner{src: src, dict: dict, plan: p}
	p.root, _ = pl.group(q.Where, varset{})
	p.decidePar(par)
	p.assignStatSlots()
	obsPlanHist.ObserveSince(t0)
	return p
}

// Warnings returns structural problems the planner noticed — currently
// disconnected basic graph patterns (cartesian products). Static
// checkers surface these at lint time.
func (p *Plan) Warnings() []string { return p.warnings }

type planner struct {
	src  store.Source
	dict *store.Dict
	plan *Plan
}

// group plans one GroupPattern under the given certainly-bound variable
// set and returns the planned group plus the certain set at its end.
//
// Filter placement rule: a FILTER (or (NOT) EXISTS) constrains the whole
// group regardless of position, so it may be evaluated early only once
// every variable it mentions that the group can still bind is certainly
// bound. Variables bound outside the group (or only optionally) cannot
// change during the group, so they never delay placement.
func (pl *planner) group(g *GroupPattern, certainIn varset) (*planGroup, varset) {
	pg := &planGroup{}
	certain := certainIn.clone()

	// Gather the group's constraints with their placement requirements.
	// The bindable set is only materialized when the group actually has
	// constraints: filter-free queries (the common case) plan without it.
	var pending []*plannedConstraint
	var bindable varset
	for _, el := range g.Elements {
		switch e := el.(type) {
		case *Filter:
			if bindable == nil {
				bindable = varset{}
				collectBindableVars(g, bindable)
			}
			c := &plannedConstraint{filter: e, fastSlot: -1}
			for _, v := range exprVars(e.Expr) {
				if bindable[v] {
					c.need = append(c.need, v)
				}
			}
			pl.detectFastPath(c)
			pending = append(pending, c)
		case *ExistsFilter:
			if bindable == nil {
				bindable = varset{}
				collectBindableVars(g, bindable)
			}
			c := &plannedConstraint{exists: e}
			mentioned := varset{}
			collectGroupVars(e.Pattern, mentioned)
			for v := range mentioned {
				if bindable[v] {
					c.need = append(c.need, v)
				}
			}
			sort.Strings(c.need)
			pending = append(pending, c)
		}
	}
	// Constraints already satisfiable on the input solutions (constant
	// expressions, or variables bound entirely by the enclosing scope)
	// run before anything else.
	pending = pl.attachReady(pending, certain, pg, nil)

	i := 0
	for i < len(g.Elements) {
		switch el := g.Elements[i].(type) {
		case *TriplePattern:
			// Collect the run of triple patterns into one BGP. Filters
			// and EXISTS constraints are group-scoped and do not bind
			// variables, so they do not break the run.
			var block []*TriplePattern
			for i < len(g.Elements) {
				switch e := g.Elements[i].(type) {
				case *TriplePattern:
					block = append(block, e)
				case *Filter, *ExistsFilter:
					// transparent
				default:
					goto blockDone
				}
				i++
			}
		blockDone:
			pl.checkConnected(block)
			jo := pl.orderJoins(block, certain, pending)
			bgp := &bgpStep{cost: jo.bestCost, seedCost: jo.seedCost}
			for _, j := range jo.best {
				pp := &patternPlan{tp: block[j], est: jo.est(j)}
				pl.resolvePattern(pp)
				bgp.patterns = append(bgp.patterns, pp)
				eachPatternVar(pp.tp, func(v string) { certain[v] = true })
				pending = pl.attachReady(pending, certain, pg, pp)
			}
			pg.steps = append(pg.steps, bgp)
			continue
		case *Filter, *ExistsFilter:
			// already collected
		case *Optional:
			sub, _ := pl.group(el.Pattern, certain)
			pg.steps = append(pg.steps, &optionalStep{group: sub})
		case *Union:
			left, lOut := pl.group(el.Left, certain)
			right, rOut := pl.group(el.Right, certain)
			pg.steps = append(pg.steps, &unionStep{left: left, right: right})
			// A variable certain in both branches is certain after.
			for v := range lOut {
				if rOut[v] {
					certain[v] = true
				}
			}
		case *GroupPattern:
			sub, out := pl.group(el, certain)
			pg.steps = append(pg.steps, &groupStep{group: sub})
			certain = out
		default:
			// Unknown elements surface at execution time.
		}
		pending = pl.attachReady(pending, certain, pg, nil)
		i++
	}
	// Residual constraints: variables only optionally bound (or never
	// bound) keep them at group end, exactly like the naive evaluator.
	for _, c := range pending {
		c.pushed = false
		if c.exists != nil && c.group == nil {
			c.group, _ = pl.group(c.exists.Pattern, certain)
		}
		pg.steps = append(pg.steps, &filterStep{c})
	}
	return pg, certain
}

// attachReady moves every pending constraint whose needed variables are
// now certain into the plan — onto pp's pushed list when a pattern was
// just chosen, otherwise as a filter step of pg — and returns the
// constraints still waiting.
func (pl *planner) attachReady(pending []*plannedConstraint, certain varset, pg *planGroup, pp *patternPlan) []*plannedConstraint {
	if len(pending) == 0 {
		return pending
	}
	kept := pending[:0]
	for _, c := range pending {
		if !certain.hasAll(c.need) {
			kept = append(kept, c)
			continue
		}
		c.pushed = true
		if c.exists != nil && c.group == nil {
			c.group, _ = pl.group(c.exists.Pattern, certain)
		}
		if pp != nil {
			pp.pushed = append(pp.pushed, c)
		} else {
			pg.steps = append(pg.steps, &filterStep{c})
		}
	}
	return kept
}

// ---------------------------------------------------------------------
// Join ordering.

// selectivity is the fraction of solutions the cost model assumes a
// constraint keeps: regex, CONTAINS, STRSTARTS, STRENDS and = 0.1; the
// range comparisons 0.33; != 1; (NOT) EXISTS and everything else 0.5.
// Fixed, not tunable: the constants only have to rank orders, and EXPLAIN
// ANALYZE holds each against the actual (estimated= beside actual=, fed
// to the misestimate log), so a wrong one shows there, not in a latency.
func selectivity(c *plannedConstraint) float64 {
	if c.exists != nil {
		return 0.5
	}
	switch e := c.filter.Expr.(type) {
	case regexExpr, binStrFuncExpr:
		return 0.1
	case cmpExpr:
		switch e.op {
		case "=":
			return 0.1
		case "!=":
			return 1
		default:
			return 0.33
		}
	}
	return 0.5
}

// joinOrderBudget bounds the pattern placements one search may try beyond
// the greedy seed: blocks of up to five patterns are searched
// exhaustively, longer ones return the best order found when it runs out.
const joinOrderBudget = 1024

// joinOrder is the search for one basic graph pattern's join order: the
// left-deep order minimising the sum of intermediate cardinalities, where
// each step multiplies the running cardinality by its estimate and then by
// the selectivity of every pending constraint its bindings complete — the
// point where attachReady pushes it. Branch and bound, depth first in
// textual order; the first incumbent is the greedy order (smallest
// estimate next), replaced only by an order costing strictly less, so
// plans are deterministic. certain is mutated in place and restored.
type joinOrder struct {
	pl      *planner
	block   []*TriplePattern
	certain varset
	pending []*plannedConstraint
	// memo caches estimate per pattern and per combination of its bound
	// S/P/O positions (all estimate depends on); have marks filled cells.
	memo      [][8]float64
	have      []uint8
	cur, best []int
	// bestCost is the cost of best; seedCost that of the greedy seed.
	bestCost, seedCost float64
	budget             int
}

func (pl *planner) orderJoins(block []*TriplePattern, certain varset, pending []*plannedConstraint) *joinOrder {
	n := len(block)
	jo := &joinOrder{
		pl: pl, block: block, certain: certain, pending: pending,
		memo: make([][8]float64, n), have: make([]uint8, n),
		cur: make([]int, n), best: make([]int, n),
		budget: joinOrderBudget,
	}
	jo.visit(0, 1, 0, true)
	jo.seedCost = jo.bestCost
	jo.visit(0, 1, 0, false)
	return jo
}

// est is estimate(block[j], certain), computed at most once per
// combination of the pattern's bound positions.
func (jo *joinOrder) est(j int) float64 {
	tp := jo.block[j]
	k := 0
	if tp.S.IsVar() && jo.certain[tp.S.Var] {
		k |= 1
	}
	if pv, ok := tp.P.(PathVar); ok && jo.certain[pv.Name] {
		k |= 2
	}
	if tp.O.IsVar() && jo.certain[tp.O.Var] {
		k |= 4
	}
	if jo.have[j]&(1<<k) == 0 {
		jo.memo[j][k] = jo.pl.estimate(tp, jo.certain)
		jo.have[j] |= 1 << k
	}
	return jo.memo[j][k]
}

// visit extends the partial order cur[:depth], which yields card
// solutions and has cost so far, by every unused pattern — or, for the
// seed, by the one with the smallest estimate.
func (jo *joinOrder) visit(depth int, card, cost float64, seed bool) {
	if depth == len(jo.block) {
		if seed || cost < jo.bestCost {
			jo.bestCost = cost
			copy(jo.best, jo.cur)
		}
		return
	}
	unused := func(j int) bool { return !slices.Contains(jo.cur[:depth], j) }
	lo, hi := 0, len(jo.block)
	if seed {
		lo = -1
		for j := range jo.block {
			if unused(j) && (lo < 0 || jo.est(j) < jo.est(lo)) {
				lo = j
			}
		}
		hi = lo + 1
	}
	for j := lo; j < hi; j++ {
		if !unused(j) {
			continue
		}
		rows := card * jo.est(j)
		if !seed {
			if jo.budget == 0 {
				return
			}
			jo.budget--
			if !(cost+rows < jo.bestCost) {
				continue // cost only grows from here: cannot beat the incumbent
			}
		}
		jo.cur[depth] = j
		var buf [3]string // a pattern binds at most three variables
		added := buf[:0]
		eachPatternVar(jo.block[j], func(v string) {
			if !jo.certain[v] {
				jo.certain[v] = true
				added = append(added, v)
			}
		})
		next := rows
		for _, c := range jo.pending {
			// Still pending before this step, so completed by it exactly
			// when it needed one of the step's new variables.
			if jo.certain.hasAll(c.need) && slices.ContainsFunc(added, func(v string) bool { return slices.Contains(c.need, v) }) {
				next *= selectivity(c)
			}
		}
		jo.visit(depth+1, next, cost+rows, seed)
		for _, v := range added {
			delete(jo.certain, v)
		}
	}
}

// resolvePattern resolves the pattern's constant terms and predicate
// against the dictionary once, at plan time.
func (pl *planner) resolvePattern(pp *patternPlan) {
	tp, q := pp.tp, pl.plan.query
	resolve := func(n NodePattern) nodeRef {
		if n.IsVar() {
			return nodeRef{slot: q.slot(n.Var)}
		}
		if pl.dict == nil {
			return nodeRef{slot: -1}
		}
		id, ok := pl.dict.Lookup(n.Term)
		return nodeRef{slot: -1, id: id, known: ok}
	}
	pp.s = resolve(tp.S)
	pp.o = resolve(tp.O)
	switch p := tp.P.(type) {
	case PathIRI:
		pp.pk = pkSimple
		if pl.dict != nil {
			pp.pid, _ = pl.dict.Lookup(rdf.IRI(p.IRI))
		}
	case PathVar:
		pp.pk = pkVar
		pp.pvar = q.slot(p.Name)
	default:
		pp.pk = pkPath
	}
}

// detectFastPath recognizes ?x = <iri> and ?x != <iri> (either operand
// order) and resolves the constant to a dictionary ID. Only IRI
// constants qualify: IRI equality is term identity, so ID comparison is
// exact; numeric literals compare by value and must take the slow path.
func (pl *planner) detectFastPath(c *plannedConstraint) {
	if pl.dict == nil {
		return
	}
	cmp, ok := c.filter.Expr.(cmpExpr)
	if !ok || (cmp.op != "=" && cmp.op != "!=") {
		return
	}
	v, vok := cmp.l.(varExpr)
	k, kok := cmp.r.(constExpr)
	if !vok || !kok {
		v, vok = cmp.r.(varExpr)
		k, kok = cmp.l.(constExpr)
	}
	if !vok || !kok || !k.term.IsIRI() {
		return
	}
	c.fastSlot = v.slot
	c.fastNeg = cmp.op == "!="
	c.fastID, c.fastKnown = pl.dict.Lookup(k.term)
}

// checkConnected records a warning when a BGP of two or more patterns
// falls apart into independent variable components — a cartesian product
// no join order can save.
func (pl *planner) checkConnected(block []*TriplePattern) {
	if len(block) < 2 {
		return
	}
	// Union-find over patterns linked by shared variables.
	parent := make([]int, len(block))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	byVar := map[string]int{}
	for i, tp := range block {
		eachPatternVar(tp, func(v string) {
			if j, ok := byVar[v]; ok {
				parent[find(i)] = find(j)
			} else {
				byVar[v] = i
			}
		})
	}
	withVars := map[int]bool{}
	for i, tp := range block {
		hasVar := false
		eachPatternVar(tp, func(string) { hasVar = true })
		if hasVar {
			withVars[find(i)] = true
		}
	}
	if len(withVars) > 1 {
		pl.plan.warnings = append(pl.plan.warnings, fmt.Sprintf(
			"basic graph pattern of %d triples splits into %d components sharing no variables (cartesian product)",
			len(block), len(withVars)))
	}
}

// ---------------------------------------------------------------------
// Cardinality estimation.

// estimate predicts the number of solutions one application of tp will
// produce given the certainly-bound variables. With statistics (src !=
// nil) it starts from Source counts with constants in place and divides
// by per-predicate distinct counts for positions held by bound
// variables; without a source it falls back to fixed selectivity
// weights that reproduce the old static heuristic's ordering.
func (pl *planner) estimate(tp *TriplePattern, certain varset) float64 {
	if pl.src == nil || pl.dict == nil {
		return pl.heuristicEstimate(tp, certain)
	}
	sID, sConst, sBound, sKnown := pl.resolvePlanNode(tp.S, certain)
	oID, oConst, oBound, oKnown := pl.resolvePlanNode(tp.O, certain)
	if !sKnown || !oKnown {
		return 0 // constant unknown to the dictionary: no match possible
	}

	switch p := tp.P.(type) {
	case PathIRI:
		pid, ok := pl.dict.Lookup(rdf.IRI(p.IRI))
		if !ok {
			return 0
		}
		raw := float64(pl.estCount(sID, pid, oID))
		if raw == 0 {
			return 0
		}
		if stats, ok := pl.src.(store.StatsSource); ok && (sBound || oBound) {
			ps := stats.PredStats(pid)
			if sBound && !sConst {
				raw /= math.Max(1, float64(ps.DistinctSubjects))
			}
			if oBound && !oConst {
				raw /= math.Max(1, float64(ps.DistinctObjects))
			}
			return raw
		}
		// No statistics: a bound position still shrinks the result.
		if sBound && !sConst {
			raw = math.Sqrt(raw)
		}
		if oBound && !oConst {
			raw = math.Sqrt(raw)
		}
		return raw
	case PathVar:
		pid := store.Wildcard
		if certain[p.Name] {
			// The predicate value is unknown at plan time; treat the
			// bound position like any other and damp the raw count.
			return math.Sqrt(float64(pl.estCount(sID, store.Wildcard, oID)))
		}
		raw := float64(pl.estCount(sID, pid, oID))
		if sBound && !sConst {
			raw = math.Sqrt(raw)
		}
		if oBound && !oConst {
			raw = math.Sqrt(raw)
		}
		return raw
	default:
		// Composite property paths (sequences, closures, inverses):
		// their cost is graph traversal, not an index probe. Run them
		// once an endpoint is fixed; defer them as long as both ends
		// are open.
		total := float64(pl.estCount(store.Wildcard, store.Wildcard, store.Wildcard))
		sFixed := sConst || sBound
		oFixed := oConst || oBound
		switch {
		case sFixed && oFixed:
			return 1
		case sFixed || oFixed:
			return math.Max(4, math.Sqrt(total))
		default:
			return total * total
		}
	}
}

// resolvePlanNode classifies a node pattern at plan time: its constant
// ID (Wildcard for any variable), whether it is a constant, whether it
// is a bound variable, and whether a constant term is known to the
// dictionary.
func (pl *planner) resolvePlanNode(n NodePattern, certain varset) (id store.ID, isConst, isBound, known bool) {
	if n.IsVar() {
		return store.Wildcard, false, certain[n.Var], true
	}
	id, ok := pl.dict.Lookup(n.Term)
	if !ok {
		return store.Wildcard, true, false, false
	}
	return id, true, false, true
}

func (pl *planner) estCount(s, p, o store.ID) int {
	if ce, ok := pl.src.(store.CardEstimator); ok {
		return ce.EstCount(s, p, o)
	}
	return pl.src.Count(s, p, o)
}

// heuristicEstimate mirrors the retired patternScore ordering with fixed
// pseudo-cardinalities: constants shrink the estimate, subjects more
// than objects, and composite paths sort last until an endpoint is
// bound.
func (pl *planner) heuristicEstimate(tp *TriplePattern, certain varset) float64 {
	fixed := func(n NodePattern) bool { return !n.IsVar() || certain[n.Var] }
	switch tp.P.(type) {
	case PathIRI, PathVar:
		est := 1e6
		if !tp.S.IsVar() {
			est /= 1000
		} else if certain[tp.S.Var] {
			est /= 100
		}
		if !tp.O.IsVar() {
			est /= 300
		} else if certain[tp.O.Var] {
			est /= 30
		}
		if _, ok := tp.P.(PathIRI); ok {
			est /= 10
		}
		return est
	default:
		switch {
		case fixed(tp.S) && fixed(tp.O):
			return 1
		case fixed(tp.S) || fixed(tp.O):
			return 1e4
		default:
			return 1e9
		}
	}
}

// ---------------------------------------------------------------------
// Variable walkers.

// eachPatternVar calls fn for every variable a triple pattern binds.
// A callback (rather than a returned slice) keeps the planner's hot
// loops allocation-free; planning runs on every Run, so its constant
// cost is visible on small queries.
func eachPatternVar(tp *TriplePattern, fn func(string)) {
	if tp.S.IsVar() {
		fn(tp.S.Var)
	}
	if pv, ok := tp.P.(PathVar); ok {
		fn(pv.Name)
	}
	if tp.O.IsVar() {
		fn(tp.O.Var)
	}
}

// collectBindableVars adds every variable the group can bind — triple
// pattern variables at any nesting depth, including OPTIONAL and UNION
// branches but excluding EXISTS bodies (whose bindings never escape).
func collectBindableVars(g *GroupPattern, into varset) {
	if g == nil {
		return
	}
	for _, el := range g.Elements {
		switch e := el.(type) {
		case *TriplePattern:
			eachPatternVar(e, func(v string) { into[v] = true })
		case *Optional:
			collectBindableVars(e.Pattern, into)
		case *Union:
			collectBindableVars(e.Left, into)
			collectBindableVars(e.Right, into)
		case *GroupPattern:
			collectBindableVars(e, into)
		}
	}
}

// collectGroupVars adds every variable a group mentions: triple pattern
// variables plus filter expression variables, at any depth.
func collectGroupVars(g *GroupPattern, into varset) {
	if g == nil {
		return
	}
	for _, el := range g.Elements {
		switch e := el.(type) {
		case *TriplePattern:
			eachPatternVar(e, func(v string) { into[v] = true })
		case *Filter:
			for _, v := range exprVars(e.Expr) {
				into[v] = true
			}
		case *ExistsFilter:
			collectGroupVars(e.Pattern, into)
		case *Optional:
			collectGroupVars(e.Pattern, into)
		case *Union:
			collectGroupVars(e.Left, into)
			collectGroupVars(e.Right, into)
		case *GroupPattern:
			collectGroupVars(e, into)
		}
	}
}

// exprVars returns the distinct variables an expression references, in
// first-use order.
func exprVars(e Expr) []string {
	seen := map[string]bool{}
	var out []string
	WalkExprVars(e, func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	})
	return out
}

// ---------------------------------------------------------------------
// Rendering. Plan.String is what Explain prints: the same structures
// Run executes, annotated with the estimates that chose the order.

// String renders the plan as indented text: the group structure, the
// join order chosen for each basic graph pattern with the cardinality
// estimates that drove it, and where each filter was placed.
//
// Concurrency contract: a Plan is immutable once published (handed to
// obs.Statements.Record) — every field String reads is written during
// PlanOpts, never after. Statements renders the plans it keeps outside
// its lock, and every Query.Run builds a fresh Plan, so rendering may run
// concurrently with Record, Snapshot, and planning. The -race test
// TestConcurrentRecordSnapshotReplan enforces this; keep any new Plan
// field construction-only or the statement table will race.
func (p *Plan) String() string { return p.render(nil) }

// render is String with an optional execution record: when rec is
// non-nil (EXPLAIN ANALYZE, ExecStats.String) every operator line gains
// its actual row count, loop count, and time next to the estimate.
func (p *Plan) render(rec *execStatsRec) string {
	var b strings.Builder
	q := p.query
	switch q.Kind {
	case AskQuery:
		b.WriteString("ASK (stops at first solution)\n")
	case ConstructQuery:
		fmt.Fprintf(&b, "CONSTRUCT (%d template triples)\n", len(q.Template))
	default:
		b.WriteString("SELECT")
		if q.Distinct {
			b.WriteString(" DISTINCT")
		}
		if len(q.Select) == 0 {
			b.WriteString(" *")
		}
		for _, it := range q.Select {
			if it.Agg != nil {
				fmt.Fprintf(&b, " (%s(...) AS ?%s)", it.Agg.Func, it.Agg.As)
			} else {
				fmt.Fprintf(&b, " ?%s", it.Var)
			}
		}
		b.WriteByte('\n')
	}
	if p.par.workers > 1 {
		fmt.Fprintf(&b, "PARALLEL morsel scan: up to %d workers, %d-triple morsels (first step est %.0f rows)\n",
			p.par.workers, p.par.morsel, p.par.est)
	}
	p.renderGroup(&b, p.root, 1, rec)
	if len(q.GroupBy) > 0 {
		fmt.Fprintf(&b, "GROUP BY ?%s\n", strings.Join(q.GroupBy, " ?"))
	}
	for _, oc := range q.OrderBy {
		dir := "ASC"
		if oc.Desc {
			dir = "DESC"
		}
		fmt.Fprintf(&b, "ORDER BY %s(?%s)\n", dir, oc.Var)
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, "LIMIT %d", q.Limit)
		if q.streamable() {
			b.WriteString(" (streamed: stops early)")
		}
		b.WriteByte('\n')
	}
	if q.Offset > 0 {
		fmt.Fprintf(&b, "OFFSET %d\n", q.Offset)
	}
	return b.String()
}

func (p *Plan) renderGroup(b *strings.Builder, g *planGroup, depth int, rec *execStatsRec) {
	pad := strings.Repeat("  ", depth)
	for _, st := range g.steps {
		switch s := st.(type) {
		case *bgpStep:
			fmt.Fprintf(b, "%sBGP (%d patterns, join order):\n", pad, len(s.patterns))
			for n, pp := range s.patterns {
				fmt.Fprintf(b, "%s  %d. %s %s %s%s\n", pad, n+1,
					explainNode(pp.tp.S), explainPath(pp.tp.P), explainNode(pp.tp.O),
					p.patternLabel(pp, rec))
				for _, c := range pp.pushed {
					p.renderConstraint(b, c, depth+2, rec)
				}
			}
		case *filterStep:
			p.renderConstraint(b, s.c, depth, rec)
		case *optionalStep:
			fmt.Fprintf(b, "%sOPTIONAL (left join)%s:\n", pad, stepLabel(s.si, rec))
			p.renderGroup(b, s.group, depth+1, rec)
		case *unionStep:
			fmt.Fprintf(b, "%sUNION%s left:\n", pad, stepLabel(s.si, rec))
			p.renderGroup(b, s.left, depth+1, rec)
			fmt.Fprintf(b, "%sUNION right:\n", pad)
			p.renderGroup(b, s.right, depth+1, rec)
		case *groupStep:
			fmt.Fprintf(b, "%sGROUP%s:\n", pad, stepLabel(s.si, rec))
			p.renderGroup(b, s.group, depth+1, rec)
		}
	}
}

func (p *Plan) renderConstraint(b *strings.Builder, c *plannedConstraint, depth int, rec *execStatsRec) {
	pad := strings.Repeat("  ", depth)
	where := "applied at group end"
	if c.pushed {
		where = "pushed down"
	}
	if c.exists != nil {
		neg := ""
		if c.exists.Negated {
			neg = "NOT "
		}
		fmt.Fprintf(b, "%sFILTER %sEXISTS (%s, per-solution subquery)%s:\n", pad, neg, where, constraintLabel(c, rec))
		p.renderGroup(b, c.group, depth+1, rec)
		return
	}
	note := ""
	if c.fastSlot >= 0 {
		note = ", ID fast path"
	}
	fmt.Fprintf(b, "%sFILTER %s (%s%s)%s\n", pad, exprString(c.filter.Expr), where, note, constraintLabel(c, rec))
}

// patternLabel annotates a triple pattern with its estimate and, in
// analyze mode, the per-loop actual row count with the misestimation
// ratio — the estimate and the actual compare per application of the
// pattern, which is exactly what the planner's estimate models.
func (p *Plan) patternLabel(pp *patternPlan, rec *execStatsRec) string {
	if rec == nil {
		return p.estLabel(pp.est)
	}
	op := &rec.ops[pp.si]
	loops, rows := op.loops.Load(), op.rows.Load()
	est := "-"
	if p.src != nil {
		est = fmtCount(pp.est)
	}
	if loops == 0 {
		return fmt.Sprintf("  [estimated=%s actual=(never executed)]", est)
	}
	actual := float64(rows) / float64(loops)
	label := fmt.Sprintf("  [estimated=%s actual=%s", est, fmtCount(actual))
	if p.src != nil {
		label += fmt.Sprintf(" (x%.1f)", misestRatio(pp.est, actual))
	}
	return label + fmt.Sprintf(" loops=%d time=%s]", loops, fmtDur(time.Duration(op.durNs.Load())))
}

// constraintLabel annotates a FILTER with tested/passed counts in
// analyze mode, and with the count the planner expected to pass: the
// input times the selectivity it ordered the joins by.
func constraintLabel(c *plannedConstraint, rec *execStatsRec) string {
	if rec == nil {
		return ""
	}
	op := &rec.ops[c.si]
	in, rows := op.loops.Load(), op.rows.Load()
	est := float64(in) * selectivity(c)
	return fmt.Sprintf(" [in=%d estimated=%s actual=%d (x%.1f) time=%s]",
		in, fmtCount(est), rows, misestRatio(est, float64(rows)), fmtDur(time.Duration(op.durNs.Load())))
}

// stepLabel annotates a structural step (OPTIONAL/UNION/GROUP) with its
// input and output solution counts in analyze mode.
func stepLabel(si int, rec *execStatsRec) string {
	if rec == nil {
		return ""
	}
	op := &rec.ops[si]
	return fmt.Sprintf(" [in=%d actual=%d]", op.loops.Load(), op.rows.Load())
}

func (p *Plan) estLabel(est float64) string {
	if p.src == nil {
		return ""
	}
	if est == math.Trunc(est) && est < 1e15 {
		return fmt.Sprintf("  [est %d]", int64(est))
	}
	return fmt.Sprintf("  [est %.2g]", est)
}

// streamable reports whether the query can stop as soon as enough rows
// are produced: a plain SELECT with explicit projection and no ordering
// or aggregation.
func (q *Query) streamable() bool {
	if q.Kind != SelectQuery || len(q.Select) == 0 || len(q.GroupBy) > 0 || len(q.OrderBy) > 0 || q.Limit < 0 {
		return false
	}
	for _, it := range q.Select {
		if it.Agg != nil {
			return false
		}
	}
	return true
}
