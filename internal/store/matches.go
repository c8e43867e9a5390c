package store

import "slices"

// Matcher is optionally implemented by Sources that can materialize every
// triple matching a pattern in one call. The SPARQL engine's morsel-driven
// parallel scan uses it to enumerate the first join step's candidates up
// front, partition them into morsels, and fan them out to workers.
//
// The returned slice is owned by the caller (never an internal index
// slice) and its order is deterministic for a quiescent source: access
// paths answered from an index slice preserve insertion order — the same
// order ForEach streams — and access paths that walk an index map visit
// the walked keys in sorted ID order, so repeated calls always agree.
// (ForEach makes no such promise on map-walked paths: Go randomizes map
// iteration per range statement.)
type Matcher interface {
	Matches(s, p, o ID) []ETriple
}

// Matches implements Matcher for a single model. Capacity comes from
// Count, so the enumeration allocates once.
func (m *Model) Matches(s, p, o ID) []ETriple {
	out := make([]ETriple, 0, m.Count(s, p, o))
	switch {
	case s != Wildcard && p != Wildcard && o != Wildcard:
		if m.Contains(ETriple{s, p, o}) {
			out = append(out, ETriple{s, p, o})
		}
	case s != Wildcard && p != Wildcard:
		for _, obj := range m.spo[s][p] {
			out = append(out, ETriple{s, p, obj})
		}
	case p != Wildcard && o != Wildcard:
		for _, sub := range m.pos[p][o] {
			out = append(out, ETriple{sub, p, o})
		}
	case s != Wildcard && o != Wildcard:
		for _, pred := range m.osp[o][s] {
			out = append(out, ETriple{s, pred, o})
		}
	case s != Wildcard:
		for _, pred := range sortedKeys(m.spo[s]) {
			for _, obj := range m.spo[s][pred] {
				out = append(out, ETriple{s, pred, obj})
			}
		}
	case p != Wildcard:
		for _, obj := range sortedKeys(m.pos[p]) {
			for _, sub := range m.pos[p][obj] {
				out = append(out, ETriple{sub, p, obj})
			}
		}
	case o != Wildcard:
		for _, sub := range sortedKeys(m.osp[o]) {
			for _, pred := range m.osp[o][sub] {
				out = append(out, ETriple{sub, pred, o})
			}
		}
	default:
		for _, sub := range sortedKeys(m.spo) {
			for _, pred := range sortedKeys(m.spo[sub]) {
				for _, obj := range m.spo[sub][pred] {
					out = append(out, ETriple{sub, pred, obj})
				}
			}
		}
	}
	return out
}

// Matches implements Matcher for a view: member models enumerate in
// order, and a triple already present in an earlier member is skipped —
// the same attribution rule ForEach applies, on top of each member's
// deterministic enumeration.
func (v *View) Matches(s, p, o ID) []ETriple {
	if len(v.models) == 1 {
		return v.models[0].Matches(s, p, o)
	}
	var out []ETriple
	for i, m := range v.models {
		for _, t := range m.Matches(s, p, o) {
			dup := false
			for _, prev := range v.models[:i] {
				if prev.Contains(t) {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, t)
			}
		}
	}
	return out
}

// sortedKeys returns the map's keys in ascending ID order.
func sortedKeys[V any](m map[ID]V) []ID {
	keys := make([]ID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
