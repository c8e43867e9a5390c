package sparql

import (
	"context"
	"fmt"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// namesFixture builds one model of n objects with one dm:hasName each;
// every 50th name holds "Customer", the rest do not.
func namesFixture(n int) (store.Source, *store.Dict) {
	st := store.New()
	words := []string{"account", "partner", "ledger_entry", "booking", "position"}
	ts := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s_%s_%d", words[i%len(words)], words[(i/7)%len(words)], i)
		if i%50 == 0 {
			name = fmt.Sprintf("Customer_%s_%d", words[i%len(words)], i)
		}
		ts = append(ts, rdf.T(rdf.IRI(fmt.Sprintf("http://b/o%d", i)), rdf.HasName, rdf.Literal(name)))
	}
	st.AddAll("m", ts)
	return st.ViewOf("m"), st.Dict()
}

// BenchmarkFilteredScan is the filter loop of Listing 1's driving scan
// on its own: 100k names, a pushed regex that keeps 2% of them. literal-i
// and literal take the substring kernel, metachar the compiled regexp;
// ns/row and allocs/row are per name scanned.
func BenchmarkFilteredScan(b *testing.B) {
	const n = 100_000
	src, dict := namesFixture(n)
	for _, c := range []struct{ name, filter string }{
		{"literal-i", `regex(?t, "customer", "i")`},
		{"literal", `regex(?t, "Customer")`},
		{"metachar", `regex(?t, "cust.mer", "i")`},
	} {
		q := MustParse(`SELECT ?o WHERE { ?o <` + rdf.MDWHasName + `> ?t FILTER ` + c.filter + ` }`)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, _, err := q.Plan(src, dict).Run(context.Background(), RunOptions{})
				if err != nil || len(res.Rows) != n/50 {
					b.Fatalf("rows = %d, err = %v", len(res.Rows), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}
