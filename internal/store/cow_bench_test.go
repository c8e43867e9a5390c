package store

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// benchCloneModel builds a model of n random triples over paper-shaped
// pools (many subjects, few predicates) directly at the ID layer, so the
// clone benchmarks measure index copying and nothing else.
func benchCloneModel(n int) *Model {
	rng := rand.New(rand.NewSource(7))
	m := NewModel("bench")
	subjects := n / 8
	if subjects == 0 {
		subjects = 1
	}
	for i := 0; i < n; i++ {
		m.Add(ETriple{
			S: ID(rng.Intn(subjects) + 1),
			P: ID(rng.Intn(16) + 1),
			O: ID(rng.Intn(subjects) + 1),
		})
	}
	return m
}

// deepCloneModel is the pre-copy-on-write Clone implementation — every
// inner map and posting list of the delta copied eagerly, and the base
// and the tombstones with it — retained here as the baseline the COW
// clone is measured against.
func deepCloneModel(m *Model, name string) *Model {
	c := NewModel(name)
	c.size = m.size
	c.gen = m.gen
	c.base = &frozen{}
	for ix, r := range m.base.ix {
		c.base.ix[ix] = run{keys: slices.Clone(r.keys), off: slices.Clone(r.off), b: slices.Clone(r.b), c: slices.Clone(r.c), nkeys: r.nkeys}
	}
	c.tomb, c.dsize = maps.Clone(m.tomb), m.dsize
	c.spo = deepIdx(m.spo)
	c.pos = deepIdx(m.pos)
	c.osp = deepIdx(m.osp)
	c.predSize = make(map[ID]int, len(m.predSize))
	for p, n := range m.predSize {
		c.predSize[p] = n
	}
	return c
}

func deepIdx(idx map[ID]map[ID][]ID) map[ID]map[ID][]ID {
	out := make(map[ID]map[ID][]ID, len(idx))
	for a, inner := range idx {
		ci := make(map[ID][]ID, len(inner))
		for b, list := range inner {
			cl := make([]ID, len(list))
			copy(cl, list)
			ci[b] = cl
		}
		out[a] = ci
	}
	return out
}

// BenchmarkCloneModel compares the copy-on-write clone against the old
// deep copy at two sizes; "paper" approximates the ~1M-triple graph of
// the paper's landscape. The COW variant shares the base and copies the
// delta's outer maps: O(delta keys), not O(triples). A model grown by
// single Adds carries up to an eighth of its triples in the delta;
// cow-bulk clones the same triples loaded in one batch, which leaves none.
func BenchmarkCloneModel(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"small", 5_000}, {"paper", 1_000_000}} {
		m := benchCloneModel(size.n)
		b.Run("cow/"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = m.Clone("c")
			}
			b.ReportMetric(float64(m.Len()), "triples")
		})
		b.Run("deep/"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = deepCloneModel(m, "c")
			}
			b.ReportMetric(float64(m.Len()), "triples")
		})
		// The same triples as one bulk load, as staging and recovery build
		// a model: all base, no delta.
		bulk := NewModel("bulk")
		bulk.AddAll(m.sorted())
		b.Run("cow-bulk/"+size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = bulk.Clone("c")
			}
			b.ReportMetric(float64(bulk.Len()), "triples")
		})
	}
}

// BenchmarkCloneFirstWrite prices the copy-on-write tax: the first
// mutation after a clone copies the three touched index nodes. Steady
// state (second write to the same subject) is the plain Add cost.
func BenchmarkCloneFirstWrite(b *testing.B) {
	m := benchCloneModel(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone("c")
		c.Add(ETriple{S: 1, P: 1, O: ID(1_000_000 + i)})
	}
}
