package store

import "slices"

// run is one access path of a model's frozen base: the base's triples in
// the path's (a, b, c) order — (S, P, O) for SPO, (P, O, S) for POS,
// (O, S, P) for OSP — held as the b and c columns, with the a column
// folded into offsets: the triples under slot i are positions off[i] to
// off[i+1]. A dense run's slot is the key itself; a sparse run's is the
// key's place in keys, which lists the distinct keys ascending. Every
// slice is pointer-free, so the garbage collector never scans a run, and
// a run is never written after it is built, so any number of model
// versions share it. The zero run is empty.
type run struct {
	keys  []ID // nil for a dense run
	off   []uint32
	b, c  []ID
	nkeys int // distinct keys
}

// frozen is a model's base: its triples as the three access paths' runs,
// indexed 0 SPO, 1 POS, 2 OSP. It is shared by pointer between every copy
// of the model taken since it was built.
type frozen struct {
	ix [3]run
}

// noBase is the base of a model that has none yet.
var noBase = &frozen{}

func (f *frozen) size() int { return len(f.ix[0].b) }

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

// key returns the key of slot i.
func (r *run) key(i int) ID {
	if r.keys == nil {
		return ID(i)
	}
	return r.keys[i]
}

// span returns the positions of key a's triples.
func (r *run) span(a ID) (lo, hi int) {
	i := int(a)
	if r.keys != nil {
		var ok bool
		if i, ok = slices.BinarySearch(r.keys, a); !ok {
			return 0, 0
		}
	}
	if i+1 >= len(r.off) {
		return 0, 0
	}
	return int(r.off[i]), int(r.off[i+1])
}

// sub narrows lo..hi, the positions of one key's triples, to those whose
// b is b.
func (r *run) sub(lo, hi int, b ID) (int, int) {
	l, found := slices.BinarySearch(r.b[lo:hi], b)
	if !found {
		return lo + l, lo + l
	}
	return lo + l, groupEnd(r.b, lo+l, hi)
}

// pair returns the positions of the triples whose a and b are given.
func (r *run) pair(a, b ID) (int, int) {
	lo, hi := r.span(a)
	return r.sub(lo, hi, b)
}

// has reports whether the run holds (a, b, c).
func (r *run) has(a, b, c ID) bool {
	lo, hi := r.pair(a, b)
	_, ok := slices.BinarySearch(r.c[lo:hi], c)
	return ok
}

// slotAt returns the slot position x lies in.
func (r *run) slotAt(x int) int {
	i, _ := slices.BinarySearch(r.off, uint32(x)+1)
	return i - 1
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

// walk calls emit with the run's triples in path order, less those in
// dead, merged with extra — sorted by the same order, disjoint from the
// run's live triples — as one ascending sequence.
func (r *run) walk(ix int, dead map[ETriple]struct{}, extra []ETriple, emit func(a, b, c ID)) {
	j := 0
	for slot := 0; slot+1 < len(r.off); slot++ {
		lo, hi := int(r.off[slot]), int(r.off[slot+1])
		if lo == hi {
			continue
		}
		a := r.key(slot)
		for x := lo; x < hi; x++ {
			b, c := r.b[x], r.c[x]
			if len(dead) > 0 {
				if _, ok := dead[unorder(ix, a, b, c)]; ok {
					continue
				}
			}
			for ; j < len(extra); j++ {
				ea, eb, ec := order(extra[j], ix)
				if ea > a || ea == a && (eb > b || eb == b && ec > c) {
					break
				}
				emit(ea, eb, ec)
			}
			emit(a, b, c)
		}
	}
	for _, t := range extra[j:] {
		emit(order(t, ix))
	}
}

// merged returns path ix's run of the triples walk visits; n is their
// number.
func (r *run) merged(ix int, dead map[ETriple]struct{}, extra []ETriple, n int) run {
	w := runWriter{r: run{b: make([]ID, 0, n), c: make([]ID, 0, n)}}
	r.walk(ix, dead, extra, w.push)
	return w.done()
}

// runWriter lays out a run from triples pushed in path order, each once.
type runWriter struct {
	r    run
	keys []ID
	off  []uint32
}

func (w *runWriter) push(a, b, c ID) {
	if n := len(w.keys); n == 0 || w.keys[n-1] != a {
		w.keys = append(w.keys, a)
		w.off = append(w.off, uint32(len(w.r.b)))
	}
	w.r.b = append(w.r.b, b)
	w.r.c = append(w.r.c, c)
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
	k := 0
	for slot := range r.off {
		for k < n && int(w.keys[k]) < slot {
			k++
		}
		r.off[slot] = w.off[k]
	}
	return r
}

// build returns the base holding the live triples of old — its triples
// less those in dead — and extra, which is sorted by (S, P, O) and
// disjoint from them: one linear merge per access path. extra is read,
// never written.
func build(old *frozen, dead map[ETriple]struct{}, extra []ETriple) *frozen {
	n := old.size() - len(dead) + len(extra)
	f := &frozen{}
	f.ix[0] = old.ix[0].merged(0, dead, extra, n)
	// (O, S, P) from (S, P, O) and then (P, O, S) from (O, S, P), each by
	// one stable pass over the previous order by its new leading position.
	osp := make([]ETriple, len(extra))
	countingPass(extra, osp, 2)
	f.ix[2] = old.ix[2].merged(2, dead, osp, n)
	pos := make([]ETriple, len(extra))
	countingPass(osp, pos, 1)
	f.ix[1] = old.ix[1].merged(1, dead, pos, n)
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

// countingPass writes src into dst stably sorted by position pos: linear
// in the list and in its largest ID, where a comparison sort of a
// million triples takes several times as long.
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

// sortedSet returns ts's distinct triples ascending by (S, P, O), in a
// fresh slice: least significant position first, a stable pass each.
func sortedSet(ts []ETriple) []ETriple {
	out, tmp := slices.Clone(ts), make([]ETriple, len(ts))
	countingPass(out, tmp, 2)
	countingPass(tmp, out, 1)
	countingPass(out, tmp, 0)
	return slices.Compact(tmp)
}
