// Quickstart: build a warehouse from the paper's Figure 3 example, run
// the Listing 1 search and the Listing 2 lineage, and print the results.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"mdw/internal/core"
	"mdw/internal/landscape"
	"mdw/internal/lineage"
	"mdw/internal/ontology"
	"mdw/internal/search"
	"mdw/internal/staging"
)

func main() {
	// 1. Create a warehouse. The default model name DWH_CURR matches the
	//    SEM_MODELS('DWH_CURR') of the paper's listings.
	w := core.New("")

	// 2. Load the hierarchy (the Protégé-export path of Figure 4) …
	if _, err := w.LoadOntology(ontology.DWH()); err != nil {
		log.Fatal(err)
	}
	// … and the meta-data facts (the XML-export path): here the paper's
	// own customer-identification example.
	stats, err := w.LoadExports([]*staging.Export{landscape.Figure3Export()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d triples, derived %d index triples\n\n", stats.Loaded, stats.Derived)

	// 3. Search for "customer" (Section IV.A). Hits group under every
	//    class they inherit, like the Figure 6 screenshot.
	res, err := w.Search("customer", search.Options{MaxHitsPerGroup: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(search.FormatResult(res))

	// 4. Trace the lineage of the data-mart customer_id (Section IV.B):
	//    the (isMappedTo)* chain back to the source application.
	item := staging.InstanceIRI(strings.Split(landscape.Figure3Paths()[3], "/")...)
	g, err := w.Lineage(item, lineage.Backward, lineage.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(lineage.Format(g))

	// 5. Ask the graph directly with SPARQL, using the OWLPRIME index.
	q := `PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#>
	      SELECT ?name WHERE { ?x a dm:Attribute . ?x dm:hasName ?name } ORDER BY ?name`
	resp, err := w.Query(context.Background(), q, core.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	qr := resp.Result
	fmt.Println("\nall attributes in the graph:")
	for i := 0; i < qr.Len(); i++ {
		fmt.Println("  " + qr.Row(i)["name"].Value)
	}

	// 6. Historize the release (Section III.A).
	v, err := w.Snapshot("2009-R1", time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhistorized release %s with %d triples\n", v.Tag, v.Triples)
}
