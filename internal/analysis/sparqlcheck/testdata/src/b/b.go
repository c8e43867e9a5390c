// Package b holds well-formed queries: sparqlcheck must stay silent.
package b

import (
	"mdw/internal/semmatch"
	"mdw/internal/sparql"
)

// listing1 mirrors the paper's search query: concept members by name.
const listing1 = `
PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#>
SELECT ?item
WHERE {
  ?item a dm:Customer .
  ?item dm:hasName ?name .
  FILTER (CONTAINS(LCASE(?name), "customer"))
}
`

// listing2 mirrors the paper's lineage query with a property-path
// closure over dt:isMappedTo.
const listing2 = `
PREFIX dt: <http://www.credit-suisse.com/dwh/mdm/data_transfer#>
SELECT DISTINCT ?src
WHERE {
  ?src dt:isMappedTo+ ?tgt .
}
`

// paperCall is a SEM_MATCH invocation in the listings' style.
const paperCall = `SEM_MATCH(
  {?s dt:isMappedTo ?t . ?s dm:hasName ?n},
  SEM_MODELS('DWH_CURR'),
  SEM_RULEBASES('OWLPRIME'),
  SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'),
              SEM_ALIAS('dt', 'http://www.credit-suisse.com/dwh/mdm/data_transfer#')),
  null)`

func good() {
	_ = sparql.MustParse(listing1)
	_ = sparql.MustParse(listing2)
}

func goodSemMatch() {
	_, _ = semmatch.ParseCall(paperCall)
}

// dynamic queries are out of sparqlcheck's reach and must not be
// reported (mustparse polices the MustParse case separately).
func dynamic(q string) (*sparql.Query, error) {
	return sparql.Parse(q)
}
