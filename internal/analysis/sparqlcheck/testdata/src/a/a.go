// Package a exercises sparqlcheck diagnostics: malformed constant
// queries at every entry point.
package a

import (
	"context"

	"mdw/internal/core"
	"mdw/internal/semmatch"
	"mdw/internal/sparql"
)

// brokenListing2 is the paper's Listing 2 lineage query with the
// closing brace of the group pattern dropped — the typo class
// sparqlcheck exists to catch.
const brokenListing2 = `
PREFIX dt: <http://www.credit-suisse.com/dwh/mdm/data_transfer#>
SELECT ?src
WHERE {
  ?src dt:isMappedTo+ ?tgt .
`

// brokenSemMatch drops the object of the second triple pattern.
const brokenSemMatch = `SEM_MATCH(
  {?s dt:isMappedTo ?t . ?t dm:hasName },
  SEM_MODELS('DWH_CURR'),
  SEM_RULEBASES('OWLPRIME'),
  null)`

// noPatternCall has no {...} graph pattern at all.
const noPatternCall = `SEM_MATCH(SEM_MODELS('DWH_CURR'), null)`

func useBroken() {
	_ = sparql.MustParse(brokenListing2) // want `unterminated group pattern`
}

func unboundPrefix() (*sparql.Query, error) {
	return sparql.Parse(`SELECT ?x WHERE { ?x foo:bar ?y }`) // want `unknown prefix`
}

func badKeyword() {
	_, _ = sparql.Parse("SELECTT ?x WHERE { ?x ?p ?o }") // want `unexpected identifier`
}

func badSemMatch(ctx context.Context, w *core.Warehouse) {
	_, _ = w.SemMatch(ctx, brokenSemMatch, core.QueryOptions{}) // want `does not parse`
}

func noPattern() {
	_, _ = semmatch.ParseCall(noPatternCall) // want `missing graph pattern`
}

func facadeBroken(ctx context.Context, w *core.Warehouse) {
	_, _ = w.Query(ctx, `SELECT ?x WHERE { ?x `, core.QueryOptions{}) // want `does not parse`
}

// cartesianQuery joins two patterns sharing no variable: a cartesian
// product no join order can avoid.
const cartesianQuery = `
PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#>
SELECT ?a ?c
WHERE {
  ?a dm:hasName ?b .
  ?c dm:hasDataType ?d .
}
`

func cartesian() {
	_ = sparql.MustParse(cartesianQuery) // want `cartesian product`
}

// cartesianSemMatchCall joins two patterns sharing no variable inside a
// SEM_MATCH graph pattern.
const cartesianSemMatchCall = `SEM_MATCH(
	{?s dt:isMappedTo ?t . ?x dm:hasName ?n},
	SEM_MODELS('DWH_CURR'),
	SEM_RULEBASES('OWLPRIME'),
	null)`

func cartesianSemMatch(ctx context.Context, w *core.Warehouse) {
	_, _ = w.SemMatch(ctx, cartesianSemMatchCall, core.QueryOptions{}) // want `cartesian product`
}
