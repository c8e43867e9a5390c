package sparql

import (
	"sort"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// evalPath returns the (start, end) node pairs connected by the property
// path. sid/oid are the bound endpoints or store.Wildcard when unbound.
//
// The lineage use case of the paper (Section IV.B, Figure 8) is exactly a
// path query — "the path used can be described by the regular expression
// (isMappedTo)* rdf:type" — so closures are first-class here.
func (ev *evaluator) evalPath(p Path, sid, oid store.ID) [][2]store.ID {
	switch {
	case sid != store.Wildcard && oid != store.Wildcard:
		if ev.pathConnects(p, sid, oid) {
			return [][2]store.ID{{sid, oid}}
		}
		return nil
	case sid != store.Wildcard:
		ends := ev.pathReach(p, sid, true)
		out := make([][2]store.ID, 0, len(ends))
		for _, e := range ends {
			out = append(out, [2]store.ID{sid, e})
		}
		return out
	case oid != store.Wildcard:
		starts := ev.pathReach(p, oid, false)
		out := make([][2]store.ID, 0, len(starts))
		for _, s := range starts {
			out = append(out, [2]store.ID{s, oid})
		}
		return out
	default:
		// Both ends unbound: evaluate from every node in the graph.
		var out [][2]store.ID
		for _, n := range ev.allNodes() {
			if ev.cancelled() {
				return out
			}
			for _, e := range ev.pathReach(p, n, true) {
				out = append(out, [2]store.ID{n, e})
			}
		}
		return out
	}
}

// step returns the nodes reachable from 'from' by one application of the
// path (closures handle their own iteration via pathReach).
func (ev *evaluator) step(p Path, from store.ID, forward bool) []store.ID {
	switch pp := p.(type) {
	case PathIRI:
		pid, ok := ev.dict.Lookup(rdf.IRI(pp.IRI))
		if !ok {
			return nil
		}
		var ns []store.ID
		if forward {
			ns = ev.src.Objects(from, pid)
		} else {
			ns = ev.src.Subjects(pid, from)
		}
		if st := ev.stats; st != nil {
			st.scanned.Add(int64(len(ns)))
		}
		return ns
	case PathInverse:
		return ev.step(pp.P, from, !forward)
	case PathAlt:
		var out []store.ID
		seen := map[store.ID]bool{}
		for _, part := range pp.Parts {
			for _, n := range ev.step(part, from, forward) {
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
		return out
	case PathSeq:
		frontier := []store.ID{from}
		parts := pp.Parts
		if !forward {
			parts = reversePaths(parts)
		}
		for _, part := range parts {
			next := map[store.ID]bool{}
			var nf []store.ID
			for _, n := range frontier {
				for _, m := range ev.step(part, n, forward) {
					if !next[m] {
						next[m] = true
						nf = append(nf, m)
					}
				}
			}
			frontier = nf
			if len(frontier) == 0 {
				return nil
			}
		}
		return frontier
	case PathRepeat:
		return ev.repeatReach(pp, from, forward)
	default:
		return nil
	}
}

func reversePaths(ps []Path) []Path {
	out := make([]Path, len(ps))
	for i, p := range ps {
		out[len(ps)-1-i] = p
	}
	return out
}

// pathReach returns all nodes reachable from 'from' via the whole path.
func (ev *evaluator) pathReach(p Path, from store.ID, forward bool) []store.ID {
	return ev.step(p, from, forward)
}

// repeatReach performs a breadth-first closure of the repeated sub-path.
func (ev *evaluator) repeatReach(pp PathRepeat, from store.ID, forward bool) []store.ID {
	visited := map[store.ID]int{from: 0}
	frontier := []store.ID{from}
	depth := 0
	var out []store.ID
	if pp.Min == 0 {
		out = append(out, from)
	}
	for len(frontier) > 0 {
		if pp.Max >= 0 && depth >= pp.Max {
			break
		}
		if ev.cancelled() || ev.stopped() {
			return out
		}
		depth++
		var next []store.ID
		for _, n := range frontier {
			for _, m := range ev.step(pp.P, n, forward) {
				if _, seen := visited[m]; seen {
					continue
				}
				visited[m] = depth
				next = append(next, m)
				if depth >= pp.Min {
					out = append(out, m)
				}
			}
		}
		frontier = next
	}
	return out
}

// pathConnects reports whether the path links start to end.
func (ev *evaluator) pathConnects(p Path, start, end store.ID) bool {
	for _, n := range ev.pathReach(p, start, true) {
		if n == end {
			return true
		}
	}
	return false
}

// allNodes returns every distinct subject and non-literal object in the
// source; it is the node universe used when both path endpoints are
// unbound. The result is sorted: the full scan walks index maps, whose
// order varies per call, and the per-node loop wants a stable universe so
// `?s p* ?o` answers in the same order every run.
func (ev *evaluator) allNodes() []store.ID {
	seen := map[store.ID]bool{}
	var out []store.ID
	ev.src.ForEach(store.Wildcard, store.Wildcard, store.Wildcard, func(t store.ETriple) bool {
		if !seen[t.S] {
			seen[t.S] = true
			out = append(out, t.S)
		}
		if !seen[t.O] && !ev.dict.Term(t.O).IsLiteral() {
			seen[t.O] = true
			out = append(out, t.O)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
