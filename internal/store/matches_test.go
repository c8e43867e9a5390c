package store

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// collectForEach gathers ForEach's stream for comparison with Split.
func collectForEach(src Source, s, p, o ID) []ETriple {
	var out []ETriple
	src.ForEach(s, p, o, func(t ETriple) bool {
		out = append(out, t)
		return true
	})
	return out
}

func tripleMultiset(ts []ETriple) map[ETriple]int {
	m := make(map[ETriple]int, len(ts))
	for _, t := range ts {
		m[t]++
	}
	return m
}

func sameTriples(a, b []ETriple) bool {
	if len(a) != len(b) {
		return false
	}
	am, bm := tripleMultiset(a), tripleMultiset(b)
	for k, n := range am {
		if bm[k] != n {
			return false
		}
	}
	return true
}

func randomModel(rng *rand.Rand, n int) *Model {
	m := NewModel("m")
	for i := 0; i < n; i++ {
		m.Add(ETriple{
			S: ID(1 + rng.Intn(12)),
			P: ID(100 + rng.Intn(5)),
			O: ID(200 + rng.Intn(16)),
		})
	}
	return m
}

// matchPatterns covers every access path: fully bound, the three
// two-bound slice paths, the three one-bound map walks, and the full
// scan.
func matchPatterns() [][3]ID {
	return [][3]ID{
		{3, 101, 205},
		{3, 101, Wildcard},
		{Wildcard, 101, 205},
		{3, Wildcard, 205},
		{3, Wildcard, Wildcard},
		{Wildcard, 101, Wildcard},
		{Wildcard, Wildcard, 205},
		{Wildcard, Wildcard, Wildcard},
	}
}

// partSizes are the part sizes every split is taken at: one triple, a
// few, and more than a model holds.
var partSizes = []int{1, 7, 1000}

// scanAll enumerates every part of the split, one after another.
func scanAll(ps *Parts) []ETriple {
	var out []ETriple
	for i := 0; i < ps.Len(); i++ {
		ps.Scan(i, func(t ETriple) bool {
			out = append(out, t)
			return true
		})
	}
	return out
}

// scanConcurrently scans every part on a goroutine of its own and
// concatenates the parts in order, as the morsel scan's merger does.
func scanConcurrently(ps *Parts) []ETriple {
	bufs := make([][]ETriple, ps.Len())
	var wg sync.WaitGroup
	for i := range bufs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ps.Scan(i, func(t ETriple) bool {
				bufs[i] = append(bufs[i], t)
				return true
			})
		}(i)
	}
	wg.Wait()
	return slices.Concat(bufs...)
}

func TestModelMatchesAgreesWithForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomModel(rng, 400)
	for _, pat := range matchPatterns() {
		want := collectForEach(m, pat[0], pat[1], pat[2])
		for _, size := range partSizes {
			got := scanAll(NewView(m).Split(pat[0], pat[1], pat[2], size))
			if !sameTriples(got, want) {
				t.Errorf("Split(%v, %d) multiset differs from ForEach: got %d triples, want %d",
					pat, size, len(got), len(want))
			}
			if len(got) != m.Count(pat[0], pat[1], pat[2]) {
				t.Errorf("Split(%v, %d) length %d != Count %d", pat, size, len(got), m.Count(pat[0], pat[1], pat[2]))
			}
		}
	}
}

// The slice-backed access paths keep ForEach's exact order at every part
// size — the morsel scan's order there is the serial pipeline's.
func TestModelMatchesSliceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomModel(rng, 400)
	for _, pat := range [][3]ID{
		{3, 101, Wildcard},
		{Wildcard, 101, 205},
		{3, Wildcard, 205},
	} {
		want := collectForEach(m, pat[0], pat[1], pat[2])
		for _, size := range partSizes {
			if got := scanAll(NewView(m).Split(pat[0], pat[1], pat[2], size)); !slices.Equal(got, want) {
				t.Fatalf("Split(%v, %d) order diverges from ForEach: %v vs %v", pat, size, got, want)
			}
		}
	}
}

// Map-walked access paths enumerate in one order, their walked keys
// ascending, whatever the part size and whether the parts are scanned one
// after another or concurrently (Go map ranges are not stable, and
// parallel execution replays the parts in order).
func TestModelMatchesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomModel(rng, 400)
	for _, pat := range matchPatterns() {
		a := scanAll(NewView(m).Split(pat[0], pat[1], pat[2], 1000))
		for round := 0; round < 3; round++ {
			for _, size := range partSizes {
				ps := NewView(m).Split(pat[0], pat[1], pat[2], size)
				if b := scanConcurrently(ps); !slices.Equal(a, b) {
					t.Fatalf("Split(%v, %d) order varies across calls and part sizes", pat, size)
				}
			}
		}
	}
	byObject := func(x, y ETriple) int { return cmp.Compare(x.O, y.O) }
	if ts := scanAll(NewView(m).Split(Wildcard, 101, Wildcard, 7)); !slices.IsSortedFunc(ts, byObject) {
		t.Errorf("(?, p, ?) walks its objects out of order: %v", ts)
	}
}

func TestViewMatchesDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m1 := randomModel(rng, 200)
	m2 := randomModel(rng, 200) // same pools: heavy overlap
	v := NewView(m1, m2)
	for _, pat := range matchPatterns() {
		want := collectForEach(v, pat[0], pat[1], pat[2])
		for _, size := range partSizes {
			got := scanConcurrently(v.Split(pat[0], pat[1], pat[2], size))
			if !sameTriples(got, want) {
				t.Errorf("View.Split(%v, %d) multiset differs from View.ForEach: got %d, want %d",
					pat, size, len(got), len(want))
			}
			seen := make(map[ETriple]bool, len(got))
			for _, tr := range got {
				if seen[tr] {
					t.Fatalf("View.Split(%v, %d) reported %v twice", pat, size, tr)
				}
				seen[tr] = true
			}
		}
	}
}
