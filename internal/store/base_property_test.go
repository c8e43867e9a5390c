package store

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestBaseAndDeltaAgainstReference drives models with a frozen base, a
// delta and tombstones through random writes — Add, Remove, AddAll small
// and bulk, RemoveAll of batches mixing delta, base and absent triples,
// merges with and without tombstones pending, a base triple removed and
// added again, tombstones and delta triples under the same keys, Clone and
// fork with writes on either side, and clones of clones written on both
// sides — and after every step checks each model against a reference set
// through every read: ForEach, Count, Contains, Subjects, Objects, sorted,
// the distinct-key and predicate statistics, and Split + Scan at every
// part size with and without keep, alone and as the second member of a
// view.
func TestBaseAndDeltaAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		id := func() ID { return ID(1 + rng.Intn(12)) }
		triple := func() ETriple { return ETriple{id(), id(), id()} }
		type pair struct {
			m   *Model
			ref refModel
		}
		ps := []*pair{{NewModel("m"), refModel{}}}
		step := 0
		// write adds batch to m and ref, or removes it, and checks that m
		// reports the triples that changed, each once, in batch order.
		write := func(m *Model, ref refModel, batch []ETriple, add bool) {
			var want []ETriple
			seen := map[ETriple]bool{}
			for _, tr := range batch {
				if ref[tr] != add && !seen[tr] {
					seen[tr] = true
					want = append(want, tr)
				}
			}
			write := m.RemoveAll
			if add {
				write = m.AddAll
			}
			got := write(batch)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: writing %v (add %v) reported %v, want %v", seed, step, batch, add, got, want)
			}
			for _, tr := range want {
				if add {
					ref[tr] = true
				} else {
					delete(ref, tr)
				}
			}
		}
		// baseTriple returns a random triple of m's base, tombstoned or not.
		baseTriple := func(m *Model) (ETriple, bool) {
			r := &m.base.ix[0]
			if len(r.b) == 0 {
				return ETriple{}, false
			}
			k := rng.Intn(len(r.b))
			return ETriple{r.key(r.slotAt(k)), r.b[k], r.c[k]}, true
		}
		randomBatch := func(m *Model, ref refModel) []ETriple {
			in := members(ref)
			SortETriples(in)
			var batch []ETriple
			for n := 1 + rng.Intn(8); len(batch) < n; {
				switch rng.Intn(3) {
				case 0:
					if len(in) > 0 {
						batch = append(batch, in[rng.Intn(len(in))])
					}
				case 1:
					if tr, ok := baseTriple(m); ok {
						batch = append(batch, tr)
					}
				default:
					batch = append(batch, triple())
				}
			}
			return append(batch, batch[0]) // a repeat
		}
		for ; step < 60; step++ {
			x := ps[rng.Intn(len(ps))]
			m, ref := x.m, x.ref
			switch op := rng.Intn(13); op {
			case 0, 1:
				tr := triple()
				if m.Add(tr) == ref[tr] {
					t.Fatalf("seed %d step %d: Add(%v) disagrees with the reference", seed, step, tr)
				}
				ref[tr] = true
			case 2:
				tr := triple()
				if len(ref) > 0 && rng.Intn(2) == 0 {
					tr = members(ref)[rng.Intn(len(ref))]
				}
				if m.Remove(tr) != ref[tr] {
					t.Fatalf("seed %d step %d: Remove(%v) disagrees with the reference", seed, step, tr)
				}
				delete(ref, tr)
			case 3, 4:
				n := 1 + rng.Intn(20)
				if op == 4 {
					n = m.mergeAt() + rng.Intn(200) // merges
				}
				batch := make([]ETriple, n)
				for i := range batch {
					batch[i] = triple()
				}
				write(m, ref, batch, true)
			case 5:
				// Remove a base triple, so a tombstone is pending, and maybe
				// add it straight back.
				tr, ok := baseTriple(m)
				if !ok {
					continue
				}
				if m.Remove(tr) != ref[tr] {
					t.Fatalf("seed %d step %d: Remove of base triple %v disagrees", seed, step, tr)
				}
				delete(ref, tr)
				if rng.Intn(2) == 0 {
					if !m.Add(tr) {
						t.Fatalf("seed %d step %d: re-Add of removed base triple %v reported present", seed, step, tr)
					}
					ref[tr] = true
				}
			case 6:
				gen := m.Gen()
				m.merge()
				if m.Gen() != gen || m.delta.size() != 0 || m.tomb.size() != 0 {
					t.Fatalf("seed %d step %d: merge left gen %d→%d, %d delta, %d tombstones", seed, step, gen, m.Gen(), m.delta.size(), m.tomb.size())
				}
			case 7, 8:
				if len(ps) >= 3 {
					continue
				}
				var c *Model
				if op == 7 {
					c = m.Clone("c")
				} else {
					c = m.fork()
				}
				ps = append(ps, &pair{c, maps.Clone(ref)})
			case 9:
				for i := 0; i < 30; i++ {
					tr := triple()
					m.Add(tr)
					ref[tr] = true
				}
			case 10:
				// Tombstones and delta triples under the same key of each
				// path: remove a base triple and every other one of its
				// subject and predicate, and add triples that share two of
				// its positions.
				tr, ok := baseTriple(m)
				if !ok {
					continue
				}
				gone := []ETriple{tr}
				for i, o := range m.Objects(tr.S, tr.P) {
					if i%2 == 0 {
						gone = append(gone, ETriple{tr.S, tr.P, o})
					}
				}
				write(m, ref, gone, false)
				write(m, ref, []ETriple{{tr.S, tr.P, id()}, {id(), tr.P, tr.O}, {tr.S, id(), tr.O}}, true)
				// Parts that start between the pair's tombstones.
				stream := collectForEach(m, tr.S, tr.P, Wildcard)
				if !sameTriples(stream, members(ref.match(tr.S, tr.P, Wildcard))) {
					t.Fatalf("seed %d step %d: ForEach(%d, %d, *) = %v", seed, step, tr.S, tr.P, stream)
				}
				checkSplit(t, NewView(m), tr.S, tr.P, Wildcard, stream, func(format string, args ...any) {
					t.Helper()
					t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
				})
			case 11:
				write(m, ref, randomBatch(m, ref), false)
			case 12:
				// A clone written on both sides, itself cloned later on.
				if len(ps) >= 4 {
					continue
				}
				c := &pair{m.Clone("c"), maps.Clone(ref)}
				for _, y := range []*pair{x, c} {
					write(y.m, y.ref, randomBatch(y.m, y.ref), rng.Intn(2) == 0)
					write(y.m, y.ref, randomBatch(y.m, y.ref), true)
				}
				ps = append(ps, c)
			}
			for i, y := range ps {
				checkAgainstReference(t, y.m, y.ref, rng, seed, step, i)
			}
			if len(ps) > 1 {
				checkViewAgainstReference(t, ps[0].m, ps[1].m, ps[0].ref, ps[1].ref, rng, seed, step)
			}
		}
	}
}

// checkAgainstReference compares every read of m with ref.
func checkAgainstReference(t *testing.T, m *Model, ref refModel, rng *rand.Rand, seed int64, step, which int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d model %d: "+format, append([]any{seed, step, which}, args...)...)
	}
	if m.Len() != len(ref) {
		fail("Len %d, want %d", m.Len(), len(ref))
	}
	want := members(ref)
	SortETriples(want)
	if got := m.sorted(); !slices.Equal(got, want) {
		fail("sorted() = %v, want %v", got, want)
	}
	for ix, what := range []string{"subjects", "predicates", "objects"} {
		distinct := map[ID]bool{}
		for tr := range ref {
			distinct[[3]ID{tr.S, tr.P, tr.O}[ix]] = true
		}
		if got := m.keys([3]int{0, 1, 2}[ix]); got != len(distinct) {
			fail("%d distinct %s, want %d", got, what, len(distinct))
		}
	}
	for _, pat := range probePatterns(rng) {
		s, p, o := pat[0], pat[1], pat[2]
		match := ref.match(s, p, o)
		stream := collectForEach(m, s, p, o)
		if len(stream) != len(match) || !sameTriples(stream, members(match)) {
			fail("ForEach(%v) = %v, want %v", pat, stream, match)
		}
		if n := m.Count(s, p, o); n != len(match) {
			fail("Count(%v) = %d, want %d", pat, n, len(match))
		}
		if s != Wildcard && p != Wildcard && o != Wildcard && m.Contains(ETriple{s, p, o}) != ref[ETriple{s, p, o}] {
			fail("Contains(%v) wrong", pat)
		}
		if s == Wildcard {
			subs := map[ID]bool{}
			for tr := range match {
				subs[tr.S] = true
			}
			if got := m.Subjects(p, o); len(got) != len(subs) || !allIn(got, subs) {
				fail("Subjects(%d, %d) = %v, want %v", p, o, got, subs)
			}
		}
		if o == Wildcard {
			objs := map[ID]bool{}
			for tr := range match {
				objs[tr.O] = true
			}
			if got := m.Objects(s, p); len(got) != len(objs) || !allIn(got, objs) {
				fail("Objects(%d, %d) = %v, want %v", s, p, got, objs)
			}
		}
		if s == Wildcard && o == Wildcard && p != Wildcard {
			subs, objs := map[ID]bool{}, map[ID]bool{}
			for tr := range match {
				subs[tr.S], objs[tr.O] = true, true
			}
			if ps := m.PredStats(p); ps != (PredStats{len(match), len(subs), len(objs)}) {
				fail("PredStats(%d) = %+v, want %d triples, %d subjects, %d objects", p, ps, len(match), len(subs), len(objs))
			}
		}
		checkSplit(t, NewView(m), s, p, o, stream, fail)
	}
}

// checkSplit checks Split + Scan of the pattern over v against stream,
// what ForEach streams: the same triples at every part size, in its order
// for a pattern with two bound positions, keys ascending otherwise, and
// with keep exactly the accepted keys' triples, keep called once per key
// with the key's live triple count.
func checkSplit(t *testing.T, v *View, s, p, o ID, stream []ETriple, fail func(string, ...any)) {
	t.Helper()
	pos := KeyPos(s != Wildcard, p != Wildcard, o != Wildcard)
	var first []ETriple
	for _, size := range []int{1, 7, 1 << 30} {
		parts := v.Split(s, p, o, size)
		all := scanAll(parts)
		if !sameTriples(all, stream) {
			fail("Split(%v, %d) scans %v, want %v", [3]ID{s, p, o}, size, all, stream)
		}
		if pos < 0 && len(v.models) == 1 && !slices.Equal(all, stream) {
			fail("Split(%v, %d) order %v differs from ForEach's %v", [3]ID{s, p, o}, size, all, stream)
		}
		if first == nil {
			first = all
		} else if !slices.Equal(all, first) {
			fail("Split(%v, %d) order differs from another part size's", [3]ID{s, p, o}, size)
		}
		if pos >= 0 && len(v.models) == 1 { // a view walks member by member
			keyOf := func(tr ETriple) ID { return [3]ID{tr.S, tr.P, tr.O}[pos] }
			if !slices.IsSortedFunc(all, func(x, y ETriple) int { return int(keyOf(x)) - int(keyOf(y)) }) {
				fail("Split(%v, %d) walks keys out of order: %v", [3]ID{s, p, o}, size, all)
			}
		}
		weights := 0
		var kept []ETriple
		for i := 0; i < parts.Len(); i++ {
			seen := map[ID]bool{}
			kept = append(kept, scanPart(parts, i, func(k ID, n int) bool {
				if seen[k] || n <= 0 {
					fail("Split(%v, %d) part %d: key %d tested twice or with %d triples", [3]ID{s, p, o}, size, i, k, n)
				}
				seen[k] = true
				weights += n
				return k%2 == 1
			})...)
		}
		var want []ETriple
		for _, tr := range all {
			if pos < 0 || [3]ID{tr.S, tr.P, tr.O}[pos]%2 == 1 {
				want = append(want, tr)
			}
		}
		if !slices.Equal(kept, want) {
			fail("Split(%v, %d) with keep scans %v, want %v", [3]ID{s, p, o}, size, kept, want)
		}
		if pos >= 0 && weights != v.EstCount(s, p, o) {
			fail("Split(%v, %d) key weights sum to %d, want %d", [3]ID{s, p, o}, size, weights, v.EstCount(s, p, o))
		}
	}
}

// checkViewAgainstReference checks a two-member view's dedup: ForEach,
// Count and every split stream the union, each triple once.
func checkViewAgainstReference(t *testing.T, a, b *Model, refA, refB refModel, rng *rand.Rand, seed int64, step int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d view: "+format, append([]any{seed, step}, args...)...)
	}
	union := maps.Clone(refA)
	maps.Copy(union, refB)
	v := NewView(a, b)
	for _, pat := range probePatterns(rng) {
		want := union.match(pat[0], pat[1], pat[2])
		got := collectForEach(v, pat[0], pat[1], pat[2])
		if len(got) != len(want) || !sameTriples(got, members(want)) {
			fail("ForEach(%v) = %v, want %v", pat, got, want)
		}
		if n := v.Count(pat[0], pat[1], pat[2]); n != len(want) {
			fail("Count(%v) = %d, want %d", pat, n, len(want))
		}
		checkSplit(t, v, pat[0], pat[1], pat[2], got, fail)
		parts := v.Split(pat[0], pat[1], pat[2], 7)
		if scanned := scanConcurrently(parts); !slices.Equal(scanned, scanAll(parts)) {
			fail("Split(%v, 7) scanned concurrently streams %v, in order %v", pat, scanned, scanAll(parts))
		}
	}
}

// probePatterns returns every pattern shape, with random bound positions.
func probePatterns(rng *rand.Rand) [][3]ID {
	var out [][3]ID
	for shape := 0; shape < 8; shape++ {
		for k := 0; k < 1; k++ {
			pat := [3]ID{}
			for i := range pat {
				if shape&(1<<i) != 0 {
					pat[i] = ID(1 + rng.Intn(12))
				}
			}
			out = append(out, pat)
		}
	}
	return out
}

func allIn(ids []ID, set map[ID]bool) bool {
	for _, id := range ids {
		if !set[id] {
			return false
		}
	}
	return true
}

// members returns the set's triples, in no particular order.
func members(set map[ETriple]bool) []ETriple {
	out := make([]ETriple, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	return out
}
