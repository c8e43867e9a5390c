package core_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"mdw/internal/core"
	"mdw/internal/landscape"
	"mdw/internal/lineage"
	"mdw/internal/ontology"
	"mdw/internal/search"
	"mdw/internal/staging"
)

// Example loads the paper's Figure 3 snippet and runs the two flagship
// use cases: search (Section IV.A) and lineage (Section IV.B).
func Example() {
	w := core.New("") // model DWH_CURR, as in SEM_MODELS('DWH_CURR')
	if _, err := w.LoadOntology(ontology.DWH()); err != nil {
		log.Fatal(err)
	}
	if _, err := w.LoadExports([]*staging.Export{landscape.Figure3Export()}); err != nil {
		log.Fatal(err)
	}

	// Search for "customer" restricted to Listing 1's class intersection.
	res, err := w.Search("customer", search.Options{
		FilterClasses: []string{
			"http://www.credit-suisse.com/dwh/mdm/data_modeling#Application1_Item",
			"http://www.credit-suisse.com/dwh/mdm/data_modeling#Interface_Item",
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search hits: %d\n", res.Instances)

	// Trace the mart column back to its source.
	item := staging.InstanceIRI("application1", "dwhdb", "mart", "v_customer", "customer_id")
	g, err := w.Lineage(item, lineage.Backward, lineage.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lineage: %d nodes, %d hops\n", len(g.Nodes), len(g.Edges))

	srcs, err := w.LineageService().Sources(item, lineage.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("origin: %s\n", srcs[0].Value[strings.LastIndex(srcs[0].Value, "/")+1:])

	// Output:
	// search hits: 1
	// lineage: 4 nodes, 3 hops
	// origin: client_information_id
}

// ExampleWarehouse_Query shows direct SPARQL access with and without the
// OWLPRIME entailment index.
func ExampleWarehouse_Query() {
	w := core.New("")
	if _, err := w.LoadOntology(ontology.DWH()); err != nil {
		log.Fatal(err)
	}
	if _, err := w.LoadExports([]*staging.Export{landscape.Figure3Export()}); err != nil {
		log.Fatal(err)
	}
	q := `PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#>
	      SELECT (COUNT(?x) AS ?n) WHERE { ?x a dm:Attribute }`

	ctx := context.Background()
	with, err := w.Query(ctx, q, core.QueryOptions{}) // base facts ∪ OWLPRIME index
	if err != nil {
		log.Fatal(err)
	}
	without, err := w.Query(ctx, q, core.QueryOptions{FactsOnly: true}) // base facts only
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attributes with index: %s, facts only: %s\n",
		with.Result.Row(0)["n"].Value, without.Result.Row(0)["n"].Value)

	// Output:
	// attributes with index: 5, facts only: 0
}
