package store

import "slices"

// run is one access path of a frozen set: its triples in the path's
// (a, b, c) order — (S, P, O) for SPO, (P, O, S) for POS, (O, S, P) for
// OSP — held as the b and c columns, with the a column folded into
// offsets: the triples under slot i are positions off[i] to off[i+1]. A
// dense run's slot is the key itself; a sparse run's is the key's place in
// keys, which lists the distinct keys ascending. Every slice is
// pointer-free, so the garbage collector never scans a run, and a run is
// never written after it is built, so any number of model versions share
// it. The zero run is empty.
type run struct {
	keys  []ID // nil for a dense run
	off   []uint32
	b, c  []ID
	nkeys int // distinct keys
}

// frozen is an immutable set of triples as the three access paths' runs,
// indexed 0 SPO, 1 POS, 2 OSP. A model is three of them (see Model), each
// shared by pointer between every copy of the model taken since it was
// built.
type frozen struct {
	ix [3]run
}

// empty is the empty set.
var empty = &frozen{}

func (f *frozen) size() int { return len(f.ix[0].b) }

// has reports whether the set holds t.
func (f *frozen) has(t ETriple) bool { return f.ix[0].has(t.S, t.P, t.O) }

// count returns the number of the set's triples whose leading positions
// in path ix are a and b (see run.find).
func (f *frozen) count(ix int, a, b ID) int {
	c := f.ix[ix].find(a, b)
	return c.hi - c.x
}

// order returns t's positions in access path ix's (a, b, c) order.
func order(t ETriple, ix int) (a, b, c ID) {
	switch ix {
	case 1:
		return t.P, t.O, t.S
	case 2:
		return t.O, t.S, t.P
	}
	return t.S, t.P, t.O
}

// unorder is order's inverse: the triple at (a, b, c) of path ix.
func unorder(ix int, a, b, c ID) ETriple {
	switch ix {
	case 1:
		return ETriple{S: c, P: a, O: b}
	case 2:
		return ETriple{S: b, P: c, O: a}
	}
	return ETriple{S: a, P: b, O: c}
}

// comparePath orders triples by path ix's (a, b, c) order.
func comparePath(x, y ETriple, ix int) int {
	xa, xb, xc := order(x, ix)
	ya, yb, yc := order(y, ix)
	return compareSPO(ETriple{xa, xb, xc}, ETriple{ya, yb, yc})
}

// key returns the key of slot i.
func (r *run) key(i int) ID {
	if r.keys == nil {
		return ID(i)
	}
	return r.keys[i]
}

// cursor reads positions x..hi of a run in path order; slot is the slot
// of position x or one before it. The zero cursor is at its end.
type cursor struct {
	r     *run
	x, hi int
	slot  int
}

// find returns a cursor over the triples whose leading positions are a
// and b: all of them when a is Wildcard, a's when b is.
func (r *run) find(a, b ID) cursor {
	if a == Wildcard {
		return cursor{r: r, hi: len(r.b)}
	}
	i := int(a)
	if r.keys != nil {
		// A delta's keys are often a narrow band of recent IDs: a key
		// outside them is rejected before the search.
		if n := len(r.keys); n == 0 || a < r.keys[0] || a > r.keys[n-1] {
			return cursor{}
		}
		var ok bool
		if i, ok = slices.BinarySearch(r.keys, a); !ok {
			return cursor{}
		}
	}
	if i+1 >= len(r.off) {
		return cursor{}
	}
	c := cursor{r: r, x: int(r.off[i]), hi: int(r.off[i+1]), slot: i}
	if b != Wildcard {
		l, found := slices.BinarySearch(r.b[c.x:c.hi], b)
		if c.x += l; !found {
			c.hi = c.x
		} else {
			c.hi = groupEnd(r.b, c.x, c.hi)
		}
	}
	return c
}

// at returns a cursor over positions lo..hi.
func (r *run) at(lo, hi int) cursor {
	if lo == hi {
		return cursor{}
	}
	return cursor{r: r, x: lo, hi: hi, slot: r.slotAt(lo)}
}

// has reports whether the run holds (a, b, c).
func (r *run) has(a, b, c ID) bool {
	cur := r.find(a, b)
	_, ok := slices.BinarySearch(r.c[cur.x:cur.hi], c)
	return ok
}

// slotAt returns the slot position x lies in.
func (r *run) slotAt(x int) int {
	i, _ := slices.BinarySearch(r.off, uint32(x)+1)
	return i - 1
}

// thirds returns the third positions of the cursor's triples, a window
// of the run to be read only.
func (c cursor) thirds() []ID {
	if c.r == nil {
		return nil
	}
	return c.r.c[c.x:c.hi]
}

// next returns the triple at the cursor and moves past it; ok is false at
// the end.
func (c *cursor) next() (a, b, cc ID, ok bool) {
	if c.x >= c.hi {
		return 0, 0, 0, false
	}
	for int(c.r.off[c.slot+1]) <= c.x {
		c.slot++
	}
	a, b, cc = c.r.key(c.slot), c.r.b[c.x], c.r.c[c.x]
	c.x++
	return a, b, cc, true
}

// each calls fn with live's triples less dead's — cursors over runs of
// path ix, dead's triples some of live's and none before live's first —
// in path order until fn returns false, and reports whether it reached
// live's end.
func each(ix int, live, dead cursor, fn func(ETriple) bool) bool {
	da, db, dc, more := dead.next()
	r := live.r
	for x := live.x; x < live.hi; {
		for int(r.off[live.slot+1]) <= x {
			live.slot++
		}
		a, end := r.key(live.slot), min(int(r.off[live.slot+1]), live.hi)
		for ; x < end; x++ {
			if b, c := r.b[x], r.c[x]; more && a == da && b == db && c == dc {
				da, db, dc, more = dead.next()
			} else if !fn(unorder(ix, a, b, c)) {
				return false
			}
		}
	}
	return true
}

// groupEnd returns the end of the run of equal values col[x] starts or
// continues, searching no further than hi: galloping, so that a short
// group costs a step or two and a long one a logarithm.
func groupEnd(col []ID, x, hi int) int {
	k, step := col[x], 1
	if x+1 == hi || col[x+1] != k {
		return x + 1
	}
	for x+step < hi && col[x+step] == k {
		x += step
		step <<= 1
	}
	end := min(x+step, hi)
	j, _ := slices.BinarySearch(col[x+1:end], k+1)
	return x + 1 + j
}

// runWriter lays out a run from triples pushed in path order, each once.
type runWriter struct {
	r    run
	keys []ID
	off  []uint32
}

// newRunWriter returns a writer for n triples under at most keys keys.
func newRunWriter(n, keys int) *runWriter {
	return &runWriter{r: run{b: make([]ID, 0, n), c: make([]ID, 0, n)}, keys: make([]ID, 0, keys), off: make([]uint32, 0, keys+1)}
}

func (w *runWriter) push(a, b, c ID) {
	if n := len(w.keys); n == 0 || w.keys[n-1] != a {
		w.keys = append(w.keys, a)
		w.off = append(w.off, uint32(len(w.r.b)))
	}
	w.r.b = append(w.r.b, b)
	w.r.c = append(w.r.c, c)
}

// copy pushes positions x..hi of run r: its columns in one copy each and
// a step per key.
func (w *runWriter) copy(r *run, x, hi int) {
	if x >= hi {
		return
	}
	shift := len(w.r.b) - x
	s := r.slotAt(x)
	if k := r.key(s); len(w.keys) == 0 || w.keys[len(w.keys)-1] != k {
		w.keys = append(w.keys, k)
		w.off = append(w.off, uint32(len(w.r.b)))
	}
	if r.keys != nil { // every slot holds a key
		end, _ := slices.BinarySearch(r.off[s+1:len(r.off)-1], uint32(hi))
		n := len(w.off)
		w.keys = append(w.keys, r.keys[s+1:s+1+end]...)
		w.off = append(w.off, r.off[s+1:s+1+end]...)
		for i := n; i < len(w.off); i++ {
			w.off[i] = uint32(int(w.off[i]) + shift)
		}
	} else {
		for s++; s+1 < len(r.off) && int(r.off[s]) < hi; s++ {
			if r.off[s] < r.off[s+1] {
				w.keys = append(w.keys, ID(s))
				w.off = append(w.off, uint32(int(r.off[s])+shift))
			}
		}
	}
	w.r.b = append(w.r.b, r.b[x:hi]...)
	w.r.c = append(w.r.c, r.c[x:hi]...)
}

// done returns the run, dense — every lookup spared its search — when a
// dense offset table costs at most twice the sparse one (the keys fill a
// quarter of the ID range below the largest) or no more than a column.
func (w *runWriter) done() run {
	r, n := w.r, len(w.keys)
	r.nkeys = n
	w.off = append(w.off, uint32(len(r.b)))
	if n == 0 || int(w.keys[n-1]) >= max(4*n, len(r.b)) {
		r.keys, r.off = slices.Clip(w.keys), slices.Clip(w.off)
		return r
	}
	r.off = make([]uint32, int(w.keys[n-1])+2)
	slot := 0
	for i, k := range w.keys {
		for ; slot <= int(k); slot++ {
			r.off[slot] = w.off[i]
		}
	}
	r.off[slot] = w.off[n]
	return r
}

// build returns the set of old's triples less dead's — some of them —
// plus add's, which are disjoint from what is left: one merge per access
// path. A merge that would copy one operand unchanged returns it.
func build(old, dead, add *frozen) *frozen {
	switch {
	case old.size() == dead.size():
		return add
	case dead.size() == 0 && add.size() == 0:
		return old
	}
	f := &frozen{}
	for ix := range f.ix {
		f.ix[ix] = merged(&old.ix[ix], &dead.ix[ix], &add.ix[ix])
	}
	return f
}

// merged returns the run of old's triples less dead's plus add's, runs of
// one path. Between two of dead's or add's triples it copies old's
// columns whole, so its cost is a memory copy of old, a search per triple
// of dead and add, and a step per key.
func merged(old, dead, add *run) run {
	if len(dead.b) == 0 && len(add.b) == 0 {
		return *old
	}
	w := newRunWriter(len(old.b)-len(dead.b)+len(add.b), old.nkeys+add.nkeys)
	x := 0 // old's next position to copy
	d, e := dead.find(Wildcard, Wildcard), add.find(Wildcard, Wildcard)
	da, db, dc, dok := d.next()
	ea, eb, ec, eok := e.next()
	for dok || eok {
		if dok && (!eok || da < ea || da == ea && (db < eb || db == eb && dc < ec)) {
			pos := old.seek(da, db, dc) // the dead triple's position
			w.copy(old, x, pos)
			x = pos + 1
			da, db, dc, dok = d.next()
			continue
		}
		pos := old.seek(ea, eb, ec)
		w.copy(old, x, pos)
		x = pos
		w.push(ea, eb, ec)
		ea, eb, ec, eok = e.next()
	}
	w.copy(old, x, len(old.b))
	return w.done()
}

// seek returns the position of the first of the run's triples at or after
// (a, b, c) in path order.
func (r *run) seek(a, b, c ID) int {
	i, found := int(a), true
	if r.keys != nil {
		i, found = slices.BinarySearch(r.keys, a)
	}
	if i+1 >= len(r.off) {
		return len(r.b)
	}
	lo, hi := int(r.off[i]), int(r.off[i+1])
	if !found || lo == hi {
		return lo
	}
	j, _ := slices.BinarySearch(r.b[lo:hi], b)
	if lo += j; lo < hi && r.b[lo] == b {
		hi = groupEnd(r.b, lo, hi)
	} else {
		return lo
	}
	k, _ := slices.BinarySearch(r.c[lo:hi], c)
	return lo + k
}

// freeze returns the set of ts, distinct triples sorted by (S, P, O).
// ts is read, never written.
func freeze(ts []ETriple) *frozen {
	if len(ts) == 0 {
		return empty
	}
	f := &frozen{}
	// (O, S, P) from (S, P, O), then (P, O, S) from (O, S, P).
	osp := resort(ts, 2)
	for ix, sorted := range [3][]ETriple{ts, resort(osp, 1), osp} {
		keys := 0
		for i, t := range sorted {
			if i == 0 || at(t, ix) != at(sorted[i-1], ix) {
				keys++
			}
		}
		w := newRunWriter(len(ts), keys)
		for _, t := range sorted {
			w.push(order(t, ix))
		}
		f.ix[ix] = w.done()
	}
	return f
}

// at returns the triple's S (0), P (1) or O (2).
func at(t ETriple, pos int) ID {
	switch pos {
	case 1:
		return t.P
	case 2:
		return t.O
	}
	return t.S
}

// counted reports whether ts is sorted by counting passes rather than by
// comparison. A pass is linear in the list and in its largest ID — it
// allocates an array that long — where a comparison sort takes about
// n log n steps, several times as long for a million triples and far
// less than the array for a batch of a few hundred.
func counted(ts []ETriple) bool {
	top, lg := ID(0), 0
	for _, t := range ts {
		top = max(top, t.S, t.P, t.O)
	}
	for n := len(ts); n > 0; n >>= 1 {
		lg++
	}
	return int(top) <= len(ts)*lg
}

// countingPass writes src into dst stably sorted by position pos.
func countingPass(src, dst []ETriple, pos int) {
	maxKey := ID(0)
	for _, t := range src {
		maxKey = max(maxKey, at(t, pos))
	}
	start := make([]uint32, int(maxKey)+2)
	for _, t := range src {
		start[at(t, pos)+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	for _, t := range src {
		k := at(t, pos)
		dst[start[k]] = t
		start[k]++
	}
}

// resort returns ts — distinct triples sorted by the order of the path
// whose last position is path ix's first — in a fresh slice sorted by
// path ix's order: by one stable pass over that position.
func resort(ts []ETriple, ix int) []ETriple {
	out := make([]ETriple, len(ts))
	if counted(ts) {
		countingPass(ts, out, ix)
		return out
	}
	copy(out, ts)
	slices.SortFunc(out, func(x, y ETriple) int { return comparePath(x, y, ix) })
	return out
}

// sortedSet returns ts's distinct triples ascending by (S, P, O), in a
// fresh slice: least significant position first, a stable pass each, or
// by comparison.
func sortedSet(ts []ETriple) []ETriple {
	out := slices.Clone(ts)
	if !counted(ts) {
		SortETriples(out)
		return slices.Compact(out)
	}
	tmp := make([]ETriple, len(ts))
	countingPass(out, tmp, 2)
	countingPass(tmp, out, 1)
	countingPass(out, tmp, 0)
	return slices.Compact(tmp)
}
