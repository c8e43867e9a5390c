package sparql

import (
	"context"
	"fmt"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// names is n objects with one dm:hasName each; every 50th name holds
// "Customer", the rest do not.
func names(n int) []rdf.Triple { return sharedNames(n, 1) }

// sharedNames is names with each name given to share consecutive objects:
// n/share distinct names, every 50th of them a "Customer" one.
func sharedNames(n, share int) []rdf.Triple {
	words := []string{"account", "partner", "ledger_entry", "booking", "position"}
	ts := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		j := i / share
		name := fmt.Sprintf("%s_%s_%d", words[j%len(words)], words[(j/7)%len(words)], j)
		if j%50 == 0 {
			name = fmt.Sprintf("Customer_%s_%d", words[j%len(words)], j)
		}
		ts = append(ts, rdf.T(rdf.IRI(fmt.Sprintf("http://b/o%d", i)), rdf.HasName, rdf.Literal(name)))
	}
	return ts
}

// namesFixture builds one model of n named objects.
func namesFixture(n int) (store.Source, *store.Dict) {
	st := store.New()
	st.AddAll("m", names(n))
	return st.ViewOf("m"), st.Dict()
}

// namesView reads the same names through a two-member view, as a query
// over a model and its entailment index does: the derived member types
// every object and re-states every fourth name, each of which the scan
// drops after probing the base model for it.
func namesView(n int) (store.Source, *store.Dict) {
	st := store.New()
	base := names(n)
	var derived []rdf.Triple
	for i, t := range base {
		derived = append(derived, rdf.T(t.S, rdf.Type, rdf.IRI("http://b/Named")))
		if i%4 == 0 {
			derived = append(derived, t)
		}
	}
	st.AddAll("m", base)
	st.AddAll("derived", derived)
	return st.ViewOf("m", "derived"), st.Dict()
}

// BenchmarkFilteredScan is the filter loop of Listing 1's driving scan
// on its own: 100k names, a pushed regex that keeps 2% of them. literal-i
// and literal take the substring kernel, metachar the compiled regexp,
// view is literal-i over namesView, and shared is literal-i over names
// each shared by 8 objects, so a morsel plan tests the regex once per 8
// triples; ns/row and allocs/row are per name triple scanned.
func BenchmarkFilteredScan(b *testing.B) {
	const n = 100_000
	one, oneDict := namesFixture(n)
	view, viewDict := namesView(n)
	st := store.New()
	st.AddAll("m", sharedNames(n, 8))
	shared, sharedDict := st.ViewOf("m"), st.Dict()
	for _, c := range []struct {
		name, filter string
		src          store.Source
		dict         *store.Dict
	}{
		{"literal-i", `regex(?t, "customer", "i")`, one, oneDict},
		{"literal", `regex(?t, "Customer")`, one, oneDict},
		{"metachar", `regex(?t, "cust.mer", "i")`, one, oneDict},
		{"view", `regex(?t, "customer", "i")`, view, viewDict},
		{"shared", `regex(?t, "customer", "i")`, shared, sharedDict},
	} {
		q := MustParse(`SELECT ?o WHERE { ?o <` + rdf.MDWHasName + `> ?t FILTER ` + c.filter + ` }`)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, _, err := q.Plan(c.src, c.dict).Run(context.Background(), RunOptions{})
				if err != nil || res.Len() != n/50 {
					b.Fatalf("rows = %d, err = %v", res.Len(), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}
