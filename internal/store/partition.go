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
// member's base run and dlo..dhi of its delta's run of the same path. For
// a pattern that walks keys, the part is a run of ascending keys whose
// triples, in either run, all lie inside it; for a pattern with two bound
// positions, the delta's triples are read after the base's.
type part struct {
	m        int
	lo, hi   int
	dlo, dhi int
}

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
// Split only searches: a part ends at the key group that holds its
// size-th triple, found from the runs' offsets, so it copies no triple.
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
		base, delta := m.base.ix[ps.ix].find(ps.a, ps.b), m.delta.ix[ps.ix].find(ps.a, ps.b)
		if ps.b == Wildcard {
			ps.cut(i, base, delta, size)
			continue
		}
		nb := base.hi - base.x
		for x, n := 0, nb+delta.hi-delta.x; x < n; x += size {
			y := min(x+size, n)
			ps.parts = append(ps.parts, part{m: i, lo: base.x + min(x, nb), hi: base.x + min(y, nb), dlo: delta.x + max(x-nb, 0), dhi: delta.x + max(y-nb, 0)})
		}
	}
	return ps
}

// cut appends member i's parts over the keys the walk visits: the key
// groups of the base's and the delta's cursors. A part takes the base's
// next size triples, rounded up to a whole key group, and the delta's
// groups up to that key; a delta reached alone is cut the same way.
func (ps *Parts) cut(i int, base, delta cursor, size int) {
	for base.x < base.hi || delta.x < delta.hi {
		p := part{m: i, lo: base.x, dlo: delta.x}
		lead := &base
		if base.x == base.hi {
			lead = &delta
		}
		k, end := ps.group(lead, min(lead.x+size, lead.hi)-1)
		for lead.x = end; delta.x < delta.hi; {
			dk, dend := ps.group(&delta, delta.x)
			if dk > k {
				break
			}
			delta.x = dend
		}
		p.hi, p.dhi = base.x, delta.x
		ps.parts = append(ps.parts, p)
	}
}

// group returns the walked key at position x of c's run and the end of
// that key's positions, c.hi at most; c.slot moves to x's slot. Calls on
// one cursor ask for ascending positions.
func (ps *Parts) group(c *cursor, x int) (ID, int) {
	r := c.r
	if ps.a != Wildcard {
		return r.b[x], groupEnd(r.b, x, c.hi)
	}
	for int(r.off[c.slot+1]) <= x {
		c.slot++
	}
	return r.key(c.slot), int(r.off[c.slot+1])
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
	base, tomb, delta := &m.base.ix[ps.ix], &m.tomb.ix[ps.ix], &m.delta.ix[ps.ix]
	emit := fn // the first member's triples go straight to fn
	if ps.c != Wildcard || pt.m > 0 {
		emit = func(t ETriple) bool {
			return ps.c != Wildcard && t.O != ps.c || ps.visit(pt.m, t, fn)
		}
	}
	bc, dc := base.at(pt.lo, pt.hi), delta.at(pt.dlo, pt.dhi)
	if ps.b != Wildcard {
		// The part may start inside the pair's range: so do its tombstones.
		dead := tomb.find(ps.a, ps.b)
		if bc.x < bc.hi {
			j, _ := slices.BinarySearch(tomb.c[dead.x:dead.hi], base.c[bc.x])
			dead.x += j
		}
		return each(ps.ix, bc, dead, emit) && each(ps.ix, dc, cursor{}, emit)
	}
	for bc.x < bc.hi || dc.x < dc.hi {
		// The next key: the base's next group, the delta's next group, or
		// both when they are the same key.
		bk, be, dk, de := noKey, 0, noKey, 0
		if bc.x < bc.hi {
			bk, be = ps.group(&bc, bc.x)
		}
		if dc.x < dc.hi {
			dk, de = ps.group(&dc, dc.x)
		}
		k := min(bk, dk)
		var bg, dg cursor // the key's groups
		if k == bk {
			bg, bc.x = bc, be
			bg.hi = be
		}
		if k == dk {
			dg, dc.x = dc, de
			dg.hi = de
		}
		a, b := ps.a, k // the key's triples' leading positions
		if a == Wildcard {
			a, b = k, Wildcard
		}
		dead := tomb.find(a, b)
		n := bg.hi - bg.x - (dead.hi - dead.x) + dg.hi - dg.x
		if n == 0 || keep != nil && !keep(k, n) {
			continue
		}
		if !each(ps.ix, bg, dead, emit) || dg.x < dg.hi && !each(ps.ix, dg, cursor{}, emit) {
			return false
		}
	}
	return true
}

// noKey sorts after every key.
const noKey = ^ID(0)

// visit passes t to fn, unless a member before m holds it.
func (ps *Parts) visit(m int, t ETriple, fn func(ETriple) bool) bool {
	for _, prev := range ps.v.models[:m] {
		if prev.Contains(t) {
			return true
		}
	}
	return fn(t)
}
