package store

import (
	"math/rand"
	"testing"
)

// benchCloneModel builds a model of about n random triples over
// paper-shaped pools (many subjects, few predicates) directly at the ID
// layer: a bulk base, and then a sixteenth of n in 200-triple batches, the
// way /api/load writes, which stays in the delta.
func benchCloneModel(n int) *Model {
	rng := rand.New(rand.NewSource(7))
	subjects := max(n/8, 1)
	batch := func(k int) []ETriple {
		ts := make([]ETriple, k)
		for i := range ts {
			ts[i] = ETriple{S: ID(rng.Intn(subjects) + 1), P: ID(rng.Intn(16) + 1), O: ID(rng.Intn(subjects) + 1)}
		}
		return ts
	}
	m := NewModel("bench")
	m.AddAll(batch(n - n/16))
	for k := 0; k < n/16; k += 200 {
		m.AddAll(batch(200))
	}
	return m
}

// BenchmarkCloneModel prices a clone at two sizes; "paper" approximates
// the ~1M-triple graph of the paper's landscape. A clone copies three
// pointers, whatever the size of the base or the delta.
func BenchmarkCloneModel(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"small", 5_000}, {"paper", 1_000_000}} {
		m := benchCloneModel(size.n)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = m.Clone("c")
			}
			b.ReportMetric(float64(m.Len()), "triples")
			b.ReportMetric(float64(m.delta.size()), "delta")
		})
	}
}

// BenchmarkCloneFirstWrite prices a 200-triple batch written to a clone:
// it rebuilds the delta the clone shares with its source, so it costs the
// delta's size.
func BenchmarkCloneFirstWrite(b *testing.B) {
	m := benchCloneModel(100_000)
	ts := make([]ETriple, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range ts {
			ts[k] = ETriple{S: 1, P: 1, O: ID(1_000_000 + i*len(ts) + k)}
		}
		m.Clone("c").AddAll(ts)
	}
}
