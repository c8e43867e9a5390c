package sparql

import (
	"fmt"
	"sort"
	"strings"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// This file retains the original set-at-a-time evaluator as a reference
// implementation. It predates the cost-based planner: join order is a
// static per-pattern heuristic, FILTERs apply at group end, and every
// intermediate solution set is materialized. It is deliberately simple —
// simple enough to trust — and the differential harness executes every
// generated query through both ExecNaive and the planner to assert they
// agree. Its solutions are string-keyed maps of its own (env), so the
// oracle shares no representation with the slot rows of the engine it
// checks.

// env is a variable assignment at the dictionary-ID level, keyed by name.
type env map[string]store.ID

func (e env) clone() env {
	c := make(env, len(e)+2)
	for k, v := range e {
		c[k] = v
	}
	return c
}

// ExecNaive runs the query with the reference evaluator: no statistics,
// no filter pushdown, no streaming. Production callers want Run; this
// exists as the correctness oracle for differential testing.
func (q *Query) ExecNaive(src store.Source, dict *store.Dict) (*Result, error) {
	ev := &evaluator{src: src, dict: dict}
	sols, err := ev.group(q.Where, []env{{}})
	if err != nil {
		return nil, err
	}
	if q.Kind == AskQuery {
		return &Result{Ask: len(sols) > 0, kind: AskQuery}, nil
	}
	if q.Kind == ConstructQuery {
		return ev.naiveConstruct(q, sols), nil
	}
	return ev.naiveProject(q, sols), nil
}

// group evaluates a group pattern against the given input solutions.
// Per SPARQL semantics, FILTERs constrain the whole group regardless of
// their position inside it.
func (ev *evaluator) group(g *GroupPattern, input []env) ([]env, error) {
	sols := input
	var filters []*Filter
	var existsFilters []*ExistsFilter
	i := 0
	for i < len(g.Elements) {
		switch el := g.Elements[i].(type) {
		case *TriplePattern:
			// Gather the contiguous run of triple patterns into one
			// basic graph pattern so it can be join-ordered.
			var block []*TriplePattern
			for i < len(g.Elements) {
				tp, ok := g.Elements[i].(*TriplePattern)
				if !ok {
					break
				}
				block = append(block, tp)
				i++
			}
			var err error
			sols, err = ev.bgp(block, sols)
			if err != nil {
				return nil, err
			}
			continue
		case *Filter:
			filters = append(filters, el)
		case *ExistsFilter:
			existsFilters = append(existsFilters, el)
		case *Optional:
			var out []env
			for _, s := range sols {
				extended, err := ev.group(el.Pattern, []env{s})
				if err != nil {
					return nil, err
				}
				if len(extended) == 0 {
					out = append(out, s)
				} else {
					out = append(out, extended...)
				}
			}
			sols = out
		case *Union:
			left, err := ev.group(el.Left, sols)
			if err != nil {
				return nil, err
			}
			right, err := ev.group(el.Right, sols)
			if err != nil {
				return nil, err
			}
			sols = append(left, right...)
		case *GroupPattern:
			var err error
			sols, err = ev.group(el, sols)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("sparql: unknown group element %T", el)
		}
		i++
	}
	for _, f := range filters {
		var kept []env
		for _, s := range sols {
			ok, err := ev.filterHolds(f.Expr, s)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, s)
			}
		}
		sols = kept
	}
	for _, ef := range existsFilters {
		var kept []env
		for _, s := range sols {
			matches, err := ev.group(ef.Pattern, []env{s})
			if err != nil {
				return nil, err
			}
			if (len(matches) > 0) != ef.Negated {
				kept = append(kept, s)
			}
		}
		sols = kept
	}
	return sols, nil
}

// filterHolds evaluates a filter under SPARQL error semantics: an
// evaluation error (e.g. unbound variable) makes the filter false.
func (ev *evaluator) filterHolds(e Expr, s env) (bool, error) {
	b := ev.decodeEnv(s)
	v, err := e.Eval(b)
	if err != nil {
		return false, nil
	}
	t, err := v.Truth()
	if err != nil {
		return false, nil
	}
	return t, nil
}

func (ev *evaluator) decodeEnv(s env) Binding {
	b := make(Binding, len(s))
	for k, id := range s {
		b[k] = ev.dict.Term(id)
	}
	return b
}

// bgp evaluates a basic graph pattern with greedy join ordering: patterns
// with more constant positions run first, and complex property paths run
// last so their endpoints are as bound as possible.
func (ev *evaluator) bgp(block []*TriplePattern, sols []env) ([]env, error) {
	ordered := make([]*TriplePattern, len(block))
	copy(ordered, block)
	sort.SliceStable(ordered, func(i, j int) bool {
		return patternScore(ordered[i]) > patternScore(ordered[j])
	})
	var err error
	for _, tp := range ordered {
		sols, err = ev.triple(tp, sols)
		if err != nil {
			return nil, err
		}
		if len(sols) == 0 {
			return nil, nil
		}
	}
	return sols, nil
}

func patternScore(tp *TriplePattern) int {
	score := 0
	if !tp.S.IsVar() {
		score += 4
	}
	if !tp.O.IsVar() {
		score += 3
	}
	switch tp.P.(type) {
	case PathIRI:
		score += 2
	case PathVar:
		// neutral: cheaper than a closure, less selective than a constant
	default:
		score -= 4 // paths are expensive; defer them
	}
	return score
}

func (ev *evaluator) triple(tp *TriplePattern, sols []env) ([]env, error) {
	if iri, ok := IsSimple(tp.P); ok {
		return ev.simpleTriple(tp, iri, sols)
	}
	if pv, ok := tp.P.(PathVar); ok {
		return ev.varPredTriple(tp, pv.Name, sols)
	}
	return ev.pathTriple(tp, sols)
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

// varPredTriple matches a pattern whose predicate is a variable.
func (ev *evaluator) varPredTriple(tp *TriplePattern, pvar string, sols []env) ([]env, error) {
	var out []env
	for _, s := range sols {
		sid, svar, ok := ev.resolveNode(tp.S, s)
		if !ok {
			continue
		}
		oid, ovar, ok := ev.resolveNode(tp.O, s)
		if !ok {
			continue
		}
		pid := store.Wildcard
		if bound, isBound := s[pvar]; isBound {
			pid = bound
		}
		ev.src.ForEach(sid, pid, oid, func(t store.ETriple) bool {
			ns := s.clone()
			if svar != "" {
				ns[svar] = t.S
			}
			ns[pvar] = t.P
			if ovar != "" {
				if prev, exists := ns[ovar]; exists && prev != t.O {
					return true
				}
				ns[ovar] = t.O
			}
			// Shared variables across positions must agree.
			if svar != "" && svar == pvar && t.S != t.P {
				return true
			}
			if ovar != "" && ovar == pvar && t.O != t.P {
				return true
			}
			out = append(out, ns)
			return true
		})
	}
	return out, nil
}

func (ev *evaluator) simpleTriple(tp *TriplePattern, predIRI string, sols []env) ([]env, error) {
	pid, found := ev.dict.Lookup(rdf.IRI(predIRI))
	if !found {
		return nil, nil
	}
	var out []env
	for _, s := range sols {
		sid, svar, ok := ev.resolveNode(tp.S, s)
		if !ok {
			continue
		}
		oid, ovar, ok := ev.resolveNode(tp.O, s)
		if !ok {
			continue
		}
		ev.src.ForEach(sid, pid, oid, func(t store.ETriple) bool {
			ns := s
			if svar != "" || ovar != "" {
				ns = s.clone()
				if svar != "" {
					ns[svar] = t.S
				}
				if ovar != "" {
					// Same variable in subject and object positions must
					// agree.
					if svar == ovar && ns[svar] != t.O {
						return true
					}
					ns[ovar] = t.O
				}
			}
			out = append(out, ns)
			return true
		})
	}
	return out, nil
}

func (ev *evaluator) pathTriple(tp *TriplePattern, sols []env) ([]env, error) {
	var out []env
	for _, s := range sols {
		sid, svar, ok := ev.resolveNode(tp.S, s)
		if !ok {
			continue
		}
		oid, ovar, ok := ev.resolveNode(tp.O, s)
		if !ok {
			continue
		}
		pairs := ev.evalPath(tp.P, sid, oid)
		for _, pr := range pairs {
			ns := s
			if svar != "" || ovar != "" {
				ns = s.clone()
				if svar != "" {
					ns[svar] = pr[0]
				}
				if ovar != "" {
					if svar == ovar && pr[0] != pr[1] {
						continue
					}
					ns[ovar] = pr[1]
				}
			}
			out = append(out, ns)
		}
	}
	return out, nil
}

// naiveConstruct instantiates the CONSTRUCT template once per solution.
// Instantiations with unbound variables or a literal subject are skipped,
// per the SPARQL specification.
func (ev *evaluator) naiveConstruct(q *Query, sols []env) *Result {
	var out []rdf.Triple
	for _, s := range sols {
		for _, tp := range q.Template {
			subj, ok := ev.naiveInstantiate(tp.S, s)
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
			obj, ok := ev.naiveInstantiate(tp.O, s)
			if !ok {
				continue
			}
			out = append(out, rdf.T(subj, pred, obj))
		}
	}
	rdf.SortTriples(out)
	out = rdf.DedupTriples(out)
	return &Result{Triples: out}
}

func (ev *evaluator) naiveInstantiate(n NodePattern, s env) (rdf.Term, bool) {
	if !n.IsVar() {
		return n.Term, true
	}
	id, ok := s[n.Var]
	if !ok {
		return rdf.Term{}, false
	}
	return ev.dict.Term(id), true
}

// naiveProject applies grouping, aggregation, DISTINCT, ORDER BY, and
// LIMIT/OFFSET, producing the final result table.
func (ev *evaluator) naiveProject(q *Query, sols []env) *Result {
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

	res := &Result{dict: ev.dict}
	for _, it := range items {
		if it.Agg != nil {
			res.Vars = append(res.Vars, it.Agg.As)
		} else {
			res.Vars = append(res.Vars, it.Var)
		}
	}

	if hasAgg || len(q.GroupBy) > 0 {
		ev.naiveAggregate(q, items, sols, res)
	} else {
		for _, s := range sols {
			row := make([]store.ID, len(items))
			for i, it := range items {
				row[i] = s[it.Var] // store.Wildcard when unbound
			}
			res.cells, res.n = append(res.cells, row...), res.n+1
		}
	}

	if q.Distinct {
		res.distinct()
	}
	return res.window(q)
}

func (ev *evaluator) naiveAggregate(q *Query, items []SelectItem, sols []env, res *Result) {
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

	counts := map[rdf.Term]store.ID{}
	for _, k := range order {
		g := groups[k]
		row := make([]store.ID, len(items))
		for i, it := range items {
			if it.Agg == nil {
				row[i] = g.rep[it.Var]
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
			row[i] = res.compute(rdf.Integer(int64(n)), counts)
		}
		res.cells, res.n = append(res.cells, row...), res.n+1
	}
}
