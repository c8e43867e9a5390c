package store

import "slices"

// Parts is the matches of one pattern over a view, cut into disjoint parts
// that can be enumerated concurrently (View.Split). The SPARQL engine's
// morsel scan hands the parts out to its workers.
type Parts struct {
	v *View
	// ix is the index the pattern walks (0 SPO, 1 POS, 2 OSP), a and b its
	// bound leading keys in that index's order (Wildcard when free), and c
	// the bound third position of a fully bound pattern.
	ix      int
	a, b, c ID
	key     int // KeyPos of the pattern
	parts   []part
}

// part is a run of one member's enumeration: keys[lo:hi] of the index keys
// it walks, grouped by ID range, or entries lo..hi of the index slice a
// pattern with two bound positions reads.
type part struct {
	m      int
	keys   []keyed
	lo, hi int
}

// keyed is a walked index key packed with its weight, the number of the
// member's triples under it: key in the high half, so that sorting packed
// values sorts by key (a part holds each key once).
type keyed uint64

func pack(k ID, w int) keyed { return keyed(uint64(k)<<32 | uint64(uint32(w))) }
func (e keyed) key() ID      { return ID(e >> 32) }
func (e keyed) weight() int  { return int(uint32(e)) }

// KeyPos returns the position, 0 S, 1 P or 2 O, that the index keys Split
// walks bind for a pattern whose bound positions are given, or -1 when two
// or more are bound: such a pattern reads one index slice and walks no
// keys.
func KeyPos(s, p, o bool) int {
	switch {
	case s && (p || o) || p && o:
		return -1
	case s:
		return 1 // SPO's second level
	case p:
		return 2 // POS's
	}
	return 0 // OSP's second level, or SPO's first
}

// Split cuts the pattern's matches into parts of about size (>= 1) triples.
// Scanning the parts in order enumerates the matches in one fixed order:
// member by member, a member's walked index keys in ascending ID order (a
// pattern with two bound positions in index-slice order, the order ForEach
// streams), and a triple an earlier member holds skipped, as ForEach skips
// it. For a view nobody writes, every call agrees, whatever the size.
//
// Split itself only buckets: one pass over each member's walked keys
// groups them by ID range, sorting nothing and copying no triple, and
// keeps each key's triple count beside it. A part's keys are tested and
// sorted by its Scan, so that work runs wherever the parts are scanned.
// A key's triples are never split across parts.
func (v *View) Split(s, p, o ID, size int) *Parts {
	ps := &Parts{v: v, key: KeyPos(s != Wildcard, p != Wildcard, o != Wildcard)}
	switch { // ForEach's choice of index
	case s != Wildcard && p != Wildcard:
		ps.a, ps.b, ps.c = s, p, o
	case p != Wildcard && o != Wildcard:
		ps.ix, ps.a, ps.b = 1, p, o
	case s != Wildcard && o != Wildcard:
		ps.ix, ps.a, ps.b = 2, o, s
	case s != Wildcard:
		ps.a = s
	case p != Wildcard:
		ps.ix, ps.a = 1, p
	case o != Wildcard:
		ps.ix, ps.a = 2, o
	}
	n := 0
	for _, m := range v.models {
		n += m.Count(s, p, o)
	}
	ps.parts = make([]part, 0, n/size+len(v.models))
	for i, m := range v.models {
		idx := m.index(ps.ix)
		switch {
		case ps.b != Wildcard:
			for lo, n := 0, len(idx[ps.a][ps.b]); lo < n; lo += size {
				ps.parts = append(ps.parts, part{m: i, lo: lo, hi: min(lo+size, n)})
			}
		case ps.a != Wildcard:
			bucket(ps, i, idx[ps.a], size, func(l []ID) int { return len(l) })
		default:
			bucket(ps, i, idx, size, func(in map[ID][]ID) int {
				w := 0
				for _, l := range in {
					w += len(l)
				}
				return w
			})
		}
	}
	return ps
}

// bucket appends member m's parts over the keys of idx, weighing a key by
// its triples. One pass over the map collects the keys, a counting sort
// groups them into about 4×triples/size equal-width ID ranges, and runs of
// consecutive ranges holding at least size triples become parts. A member
// with at most size triples is one part, unsorted: its Scan sorts it.
func bucket[V any](ps *Parts, m int, idx map[ID]V, size int, weight func(V) int) {
	all := make([]keyed, 0, len(idx))
	lo, hi, total := ^ID(0), ID(0), 0
	for k, v := range idx {
		w := weight(v)
		all = append(all, pack(k, w))
		lo, hi, total = min(lo, k), max(hi, k), total+w
	}
	if len(all) == 0 {
		return
	}
	if total <= size { // one part: nothing to group
		ps.parts = append(ps.parts, part{m: m, keys: all, hi: len(all)})
		return
	}
	nb := min(len(all), 4*total/size+1)
	span := uint64(hi-lo) + 1
	rangeOf := func(k ID) int { return int(uint64(k-lo) * uint64(nb) / span) }
	end := make([]int, nb) // keys per range, then where each range starts, then (after the scatter) ends
	w := make([]int, nb)   // triples per range
	for _, e := range all {
		r := rangeOf(e.key())
		end[r]++
		w[r] += e.weight()
	}
	for r, at := 0, 0; r < nb; r++ {
		end[r], at = at, at+end[r]
	}
	keys := make([]keyed, len(all))
	for _, e := range all {
		r := rangeOf(e.key())
		keys[end[r]] = e
		end[r]++
	}
	from, run := 0, 0
	for r := range nb {
		if run += w[r]; (run >= size || r == nb-1) && end[r] > from {
			ps.parts = append(ps.parts, part{m: m, keys: keys, lo: from, hi: end[r]})
			from, run = end[r], 0
		}
	}
}

// Len returns the number of parts.
func (ps *Parts) Len() int { return len(ps.parts) }

// KeyPos returns the position (0 S, 1 P, 2 O) the walked keys bind, or -1
// when the pattern walks no keys (see the package function KeyPos).
func (ps *Parts) KeyPos() int { return ps.key }

// Scan streams the triples of part i to fn in enumeration order until fn
// returns false, and reports whether it reached the part's end. Different
// parts may be scanned concurrently, each by one goroutine.
//
// A non-nil keep is called once per walked key of the part, with the
// key's triple count in its member (triples an earlier member also holds
// included), before the key's triples are looked up; a key it rejects is
// never looked up, visited or sorted, so fn sees exactly the triples of
// the accepted keys, in the order a Scan without keep streams them. A
// pattern that walks no keys (KeyPos -1) never calls keep.
func (ps *Parts) Scan(i int, keep func(key ID, n int) bool, fn func(ETriple) bool) bool {
	pt := ps.parts[i]
	idx := ps.v.models[pt.m].index(ps.ix)
	switch {
	case ps.b != Wildcard:
		for _, c := range idx[ps.a][ps.b][pt.lo:pt.hi] {
			if (ps.c == Wildcard || c == ps.c) && !ps.visit(pt.m, ps.a, ps.b, c, fn) {
				return false
			}
		}
	case ps.a != Wildcard:
		inner := idx[ps.a]
		for _, e := range pt.accepted(keep) {
			b := e.key()
			for _, c := range inner[b] {
				if !ps.visit(pt.m, ps.a, b, c, fn) {
					return false
				}
			}
		}
	default:
		for _, e := range pt.accepted(keep) {
			a := e.key()
			inner := idx[a]
			for _, b := range sortedKeys(inner) {
				for _, c := range inner[b] {
					if !ps.visit(pt.m, a, b, c, fn) {
						return false
					}
				}
			}
		}
	}
	return true
}

// accepted returns the part's keys that keep accepts (all of them when
// keep is nil), sorted. The accepted keys are moved to the front of the
// part's range and the rejected ones kept behind them, so the part can be
// scanned again, with or without keep.
func (pt part) accepted(keep func(ID, int) bool) []keyed {
	keys := pt.keys[pt.lo:pt.hi]
	if keep != nil {
		n := 0
		for i, e := range keys {
			if keep(e.key(), e.weight()) {
				keys[n], keys[i] = e, keys[n]
				n++
			}
		}
		keys = keys[:n]
	}
	slices.Sort(keys)
	return keys
}

// visit passes the triple of index entry (a, b, c) to fn, unless a member
// before m holds it.
func (ps *Parts) visit(m int, a, b, c ID, fn func(ETriple) bool) bool {
	t := ETriple{S: a, P: b, O: c}
	switch ps.ix {
	case 1:
		t = ETriple{S: c, P: a, O: b}
	case 2:
		t = ETriple{S: b, P: c, O: a}
	}
	for _, prev := range ps.v.models[:m] {
		if prev.Contains(t) {
			return true
		}
	}
	return fn(t)
}

// index returns the model's SPO (0), POS (1) or OSP (2) index.
func (m *Model) index(ix int) map[ID]map[ID][]ID {
	switch ix {
	case 1:
		return m.pos
	case 2:
		return m.osp
	}
	return m.spo
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
