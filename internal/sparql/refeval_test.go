package sparql

import (
	"fmt"
	"sort"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// This file retains the original set-at-a-time evaluator as a reference
// implementation. It predates the cost-based planner: join order is a
// static per-pattern heuristic, FILTERs apply at group end, and every
// intermediate solution set is materialized. It is deliberately simple —
// simple enough to trust — and the differential harness executes every
// generated query through both ExecNaive and the planner to assert they
// agree.

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
		return &Result{Ask: len(sols) > 0}, nil
	}
	if q.Kind == ConstructQuery {
		return ev.construct(q, sols)
	}
	return ev.project(q, sols)
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
