// Governance: the data-governance use case Section II sketches — "the
// assignment of owners and consumers of data to meta-data" plus the
// physical-level meta-data (technologies, log files). A data-protection
// officer answers three questions against the warehouse:
//
//  1. where does personally identifying information (PII) live, and
//     where does it flow?
//  2. who can access it, including through downstream copies?
//  3. which applications run on a technology that is being phased out?
//
// Run with:
//
//	go run ./examples/governance
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"mdw/internal/audit"
	"mdw/internal/core"
	"mdw/internal/landscape"
	"mdw/internal/lineage"
	"mdw/internal/rdf"
	"mdw/internal/search"
	"mdw/internal/staging"
)

func main() {
	l := landscape.Generate(landscape.Small())
	w := core.New("")
	if _, err := w.LoadOntology(l.Ontology); err != nil {
		log.Fatal(err)
	}
	if _, err := w.LoadExports(l.Exports); err != nil {
		log.Fatal(err)
	}

	// 1. Find the PII-tagged items (the instance-to-value tag facts).
	// The "_" term matches every generated column name (they all use
	// snake_case), so the tag filter does the actual selection.
	res, err := w.Search("_", search.Options{Tag: "pii"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PII inventory: %d tagged items across the landscape\n", res.Instances)

	// Every PII column's data flows are lineage questions: does PII
	// reach the data marts?
	svc := w.LineageService()
	martColumns := map[rdf.Term]bool{}
	var witness string
	for _, g := range res.Groups {
		for _, h := range g.Hits {
			fwd, err := svc.Trace(h.IRI, lineage.Forward, lineage.Options{})
			if err != nil {
				continue
			}
			for term := range fwd.Nodes {
				if strings.Contains(term.Value, "/mart/") && !martColumns[term] {
					martColumns[term] = true
					witness = h.Name
				}
			}
		}
	}
	fmt.Printf("PII flow: %d distinct mart columns carry PII (e.g. via %s)\n\n", len(martColumns), witness)

	// 2. Who can access one PII item, across its whole data flow?
	var piiItem rdf.Term
	for _, g := range res.Groups {
		for _, h := range g.Hits {
			if strings.Contains(h.IRI.Value, "/mart/") {
				piiItem = h.IRI
			}
		}
	}
	if piiItem.IsZero() && res.Instances > 0 {
		piiItem = res.Groups[0].Hits[0].IRI
	}
	if !piiItem.IsZero() {
		rep, err := w.Audit(piiItem, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(audit.Format(rep))
		fmt.Println()
	}

	// 3. Technology phase-out impact: which applications still use Java 6?
	resp, err := w.Query(context.Background(), `
		PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?app ?v WHERE {
			?a dm:usesTechnology <`+staging.InstanceIRI("tech", "java").Value+`> .
			<`+staging.InstanceIRI("tech", "java").Value+`> dm:hasVersion ?v .
			?a dm:hasName ?app .
		} ORDER BY ?app`, core.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	qr := resp.Result
	version := ""
	if qr.Len() > 0 {
		version = qr.Row(0)["v"].Value
	}
	fmt.Printf("technology phase-out: %d applications still assembled with java %s\n",
		qr.Len(), version)
	for i := 0; i < qr.Len(); i++ {
		fmt.Println("  " + qr.Row(i)["app"].Value)
	}
}
