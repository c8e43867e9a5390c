package core

import (
	"context"
	"testing"

	"mdw/internal/landscape"
	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/rescache"
	"mdw/internal/staging"
)

// listing1 is the paper's Listing 1 SEM_MATCH call (classify objects
// named "customer" by ontology class), the query the results cache is
// sized for: read-heavy, repeated verbatim by the frontend.
const listing1Fragment = `SEM_MATCH(
	{?object rdf:type ?c .
	 ?c rdfs:label ?class .
	 ?object dm:hasName ?term},
	SEM_MODELS('DWH_CURR'),
	SEM_RULEBASES('OWLPRIME'),
	SEM_ALIASES(SEM_ALIAS('dm', '`

func listing1() string {
	return listing1Fragment + rdf.DMNS + `')), null)`
}

func benchWarehouse(b *testing.B) *Warehouse {
	b.Helper()
	w := New("")
	if _, err := w.LoadOntology(ontology.DWH()); err != nil {
		b.Fatal(err)
	}
	if _, err := w.LoadExports([]*staging.Export{landscape.Figure3Export()}); err != nil {
		b.Fatal(err)
	}
	if _, err := w.Reindex(); err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkListing1Repeat measures the steady-state cost of re-running
// Listing 1 against an unchanged warehouse, cache on vs off. With the
// cache on, every iteration after the first is a fingerprint+generation
// key lookup; with it off, every iteration plans and executes.
func BenchmarkListing1Repeat(b *testing.B) {
	for _, mode := range []string{"uncached", "cached"} {
		b.Run(mode, func(b *testing.B) {
			if mode == "cached" {
				rescache.Enable(0, 0)
			} else {
				rescache.Disable()
			}
			defer rescache.Enable(0, 0)
			w := benchWarehouse(b)
			call := listing1()
			if _, err := w.SemMatch(context.Background(), call, QueryOptions{}); err != nil { // warm: plan + (maybe) cache fill
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.SemMatch(context.Background(), call, QueryOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkListing1Invalidated is the worst case for the cache: a
// mutation between every repetition, so each execution misses and
// re-caches under the new generation. The delta against "uncached" above
// is the cache's overhead on a churning store.
func BenchmarkListing1Invalidated(b *testing.B) {
	rescache.Enable(0, 0)
	defer rescache.Enable(0, 0)
	w := benchWarehouse(b)
	call := listing1()
	if _, err := w.SemMatch(context.Background(), call, QueryOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.LoadTriples([]rdf.Triple{rdf.T(
			rdf.IRI("http://bench/churn"),
			rdf.IRI(rdf.MDWHasName),
			rdf.Integer(int64(i)))})
		if _, err := w.SemMatch(context.Background(), call, QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
