package sparql

import (
	"reflect"
	"testing"
)

// TestExportedMethods pins the method sets of Query and Plan: one Run
// each, no Exec* variants. ExecNaive is the differential tests' oracle,
// defined in refeval_test.go and absent from the built package.
func TestExportedMethods(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{&Query{}, []string{"ExecNaive", "Explain", "ExplainOn", "Fingerprint", "Plan", "PlanOpts", "Run"}},
		{&Plan{}, []string{"Parallelism", "Run", "String", "Warnings"}},
	} {
		typ := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			got = append(got, typ.Method(i).Name) // sorted by name
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("exported methods of %v = %v, want %v", typ, got, c.want)
		}
	}
}

// TestNoPerQueryCaches pins the fields of Query and Plan: a query passes
// one cache, the generation-keyed results cache, so a Query memoizes only
// its own fingerprint and a Plan carries no revalidation state.
func TestNoPerQueryCaches(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{&Query{}, []string{"Kind", "Prefixes", "Text", "Distinct", "Select", "Template", "Where", "GroupBy", "OrderBy", "Limit", "Offset", "vars", "cachedFp"}},
		{&Plan{}, []string{"query", "root", "src", "dict", "warnings", "par", "nstats"}},
	} {
		typ := reflect.TypeOf(c.v).Elem()
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("fields of %v = %v, want %v", typ, got, c.want)
		}
	}
}
