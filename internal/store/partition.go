package store

import "slices"

// Parts is the matches of one pattern over a view, cut into disjoint parts
// that can be enumerated concurrently (View.Split). The SPARQL engine's
// morsel scan hands the parts out to its workers.
type Parts struct {
	v *View
	// ix is the path the pattern reads (see path), a and b its bound
	// leading keys in that path's order (Wildcard when free), and c the
	// bound third position of a fully bound pattern.
	ix      int
	a, b, c ID
	key     int // KeyPos of the pattern
	parts   []part
}

// part is a stretch of one member's enumeration: positions lo..hi of the
// member's base run and entries dlo..dhi of its delta. For a pattern that
// walks keys, the delta's entries are its keys (dkeys, ascending, shared
// by the member's parts) and the part is a run of ascending keys whose
// triples all lie inside it; for a pattern with two bound positions, they
// are the delta's list of third positions, read after the base's.
type part struct {
	m        int
	lo, hi   int
	dkeys    []keyed
	dlo, dhi int
}

// keyed is a walked delta key packed with its weight, the number of the
// delta's triples under it: key in the high half, so that sorting packed
// values sorts by key.
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
// member by member, a member's walked index keys in ascending ID order,
// each key's base triples in path order before its delta's (a pattern
// with two bound positions in the order ForEach streams), and a triple an
// earlier member holds skipped, as ForEach skips it. For a view nobody
// writes, every call agrees, whatever the size. A key's triples are never
// split across parts.
//
// Over a member's base Split only searches: a part ends at the key group
// that holds its size-th triple, found from the run's offsets, so it
// copies no triple and visits no key. Only the delta's keys are collected
// and sorted, and the delta is small.
func (v *View) Split(s, p, o ID, size int) *Parts {
	ps := &Parts{v: v, key: KeyPos(s != Wildcard, p != Wildcard, o != Wildcard)}
	ps.ix, ps.a, ps.b = path(s, p, o)
	if s != Wildcard && p != Wildcard {
		ps.c = o
	}
	n := 0
	for _, m := range v.models {
		n += m.Count(s, p, o)
	}
	ps.parts = make([]part, 0, n/size+2*len(v.models))
	for i, m := range v.models {
		r, idx := &m.base.ix[ps.ix], m.index(ps.ix)
		switch {
		case ps.b != Wildcard:
			lo, hi := r.pair(ps.a, ps.b)
			nb := hi - lo
			for x, n := 0, nb+len(idx[ps.a][ps.b]); x < n; x += size {
				y := min(x+size, n)
				ps.parts = append(ps.parts, part{m: i, lo: lo + min(x, nb), hi: lo + min(y, nb), dlo: max(x-nb, 0), dhi: max(y-nb, 0)})
			}
		case ps.a != Wildcard:
			lo, hi := r.span(ps.a)
			ps.cut(i, r, lo, hi, deltaKeys(idx[ps.a], func(l []ID) int { return len(l) }), size)
		default:
			ps.cut(i, r, 0, len(r.b), deltaKeys(idx, func(in map[ID][]ID) int {
				w := 0
				for _, l := range in {
					w += len(l)
				}
				return w
			}), size)
		}
	}
	return ps
}

// deltaKeys returns the keys of a delta index level with their weights,
// ascending.
func deltaKeys[V any](idx map[ID]V, weight func(V) int) []keyed {
	if len(idx) == 0 {
		return nil
	}
	keys := make([]keyed, 0, len(idx))
	for k, v := range idx {
		keys = append(keys, pack(k, weight(v)))
	}
	slices.Sort(keys)
	return keys
}

// cut appends member i's parts over the keys the walk visits: the key
// groups of base positions lo..hi of run r and the delta's keys dk. A part
// takes the base's next size triples, rounded up to a whole key group,
// and the delta keys up to that key; the last base part takes the rest of
// the delta, and a delta reached alone is cut by weight.
func (ps *Parts) cut(i int, r *run, lo, hi int, dk []keyed, size int) {
	x, di, slot := lo, 0, 0
	for x < hi || di < len(dk) {
		p := part{m: i, lo: x, dkeys: dk, dlo: di}
		if x < hi {
			var k ID
			k, x = ps.group(r, min(x+size, hi)-1, hi, &slot)
			if x == hi {
				di = len(dk)
			}
			for di < len(dk) && dk[di].key() <= k {
				di++
			}
		} else {
			for w := 0; di < len(dk) && w < size; di++ {
				w += dk[di].weight()
			}
		}
		p.hi, p.dhi = x, di
		ps.parts = append(ps.parts, p)
	}
}

// group returns the walked key at base position x of run r and the end
// of that key's positions, hi at most. slot is a walk over every key's
// cursor: at or before x's slot, and moved to it.
func (ps *Parts) group(r *run, x, hi int, slot *int) (ID, int) {
	if ps.a != Wildcard {
		return r.b[x], groupEnd(r.b, x, hi)
	}
	for int(r.off[*slot+1]) <= x {
		*slot++
	}
	return r.key(*slot), int(r.off[*slot+1])
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
// never looked up or visited, so fn sees exactly the triples of the
// accepted keys, in the order a Scan without keep streams them. A pattern
// that walks no keys (KeyPos -1) never calls keep.
func (ps *Parts) Scan(i int, keep func(key ID, n int) bool, fn func(ETriple) bool) bool {
	pt := ps.parts[i]
	m := ps.v.models[pt.m]
	r, idx, live := &m.base.ix[ps.ix], m.index(ps.ix), len(m.tomb) == 0
	if ps.b != Wildcard {
		for _, c := range r.c[pt.lo:pt.hi] {
			if (ps.c == Wildcard || c == ps.c) && (live || !m.dead(unorder(ps.ix, ps.a, ps.b, c))) && !ps.visit(pt.m, ps.a, ps.b, c, fn) {
				return false
			}
		}
		for _, c := range idx[ps.a][ps.b][pt.dlo:pt.dhi] {
			if (ps.c == Wildcard || c == ps.c) && !ps.visit(pt.m, ps.a, ps.b, c, fn) {
				return false
			}
		}
		return true
	}
	x, dk, slot := pt.lo, pt.dkeys[pt.dlo:pt.dhi], 0
	if ps.a == Wildcard && x < pt.hi {
		slot = r.slotAt(x)
	}
	for x < pt.hi || len(dk) > 0 {
		// The next key: the base's next group, the delta's next key, or
		// both when they are the same key.
		var k ID
		end, dw := x, 0
		if x < pt.hi {
			k, end = ps.group(r, x, pt.hi, &slot)
		}
		if len(dk) > 0 && (x == pt.hi || dk[0].key() <= k) {
			if x == pt.hi || dk[0].key() < k {
				k, end = dk[0].key(), x
			}
			dw, dk = dk[0].weight(), dk[1:]
		}
		lo := x
		x = end
		a, b := ps.a, k // the key's triples' leading positions
		if a == Wildcard {
			a, b = k, Wildcard
		}
		n := end - lo + dw
		if !live {
			n -= m.deadIn(ps.ix, a, b, lo, end)
		}
		if n == 0 || keep != nil && !keep(k, n) {
			continue
		}
		for y := lo; y < end; y++ {
			bb := b
			if bb == Wildcard {
				bb = r.b[y]
			}
			if c := r.c[y]; (live || !m.dead(unorder(ps.ix, a, bb, c))) && !ps.visit(pt.m, a, bb, c, fn) {
				return false
			}
		}
		if dw == 0 {
			continue
		}
		if b != Wildcard {
			for _, c := range idx[a][b] {
				if !ps.visit(pt.m, a, b, c, fn) {
					return false
				}
			}
			continue
		}
		inner := idx[a]
		for _, b := range sortedKeys(inner) {
			for _, c := range inner[b] {
				if !ps.visit(pt.m, a, b, c, fn) {
					return false
				}
			}
		}
	}
	return true
}

// visit passes the triple at (a, b, c) of the path to fn, unless a member
// before m holds it.
func (ps *Parts) visit(m int, a, b, c ID, fn func(ETriple) bool) bool {
	t := unorder(ps.ix, a, b, c)
	for _, prev := range ps.v.models[:m] {
		if prev.Contains(t) {
			return true
		}
	}
	return fn(t)
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
