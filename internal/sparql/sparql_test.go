package sparql

import (
	"context"
	"sort"
	"strings"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// fixture builds the Figure 3 meta-data snippet: the customer
// identification mapping chain plus hierarchy and names.
func fixture() (*store.Store, store.Source) {
	st := store.New()
	inst := func(s string) rdf.Term { return rdf.IRI(rdf.InstNS + s) }
	dm := func(s string) rdf.Term { return rdf.IRI(rdf.DMNS + s) }
	ts := []rdf.Triple{
		// Facts: the mapping chain of Figure 3.
		rdf.T(inst("client_information_id"), rdf.IsMappedTo, inst("partner_id")),
		rdf.T(inst("partner_id"), rdf.IsMappedTo, inst("customer_id")),
		rdf.T(inst("client_information_id"), rdf.Type, dm("Source_File_Column")),
		rdf.T(inst("partner_id"), rdf.Type, dm("Application1_Table_Column")),
		rdf.T(inst("customer_id"), rdf.Type, dm("Application1_View_Column")),
		rdf.T(inst("client_information_id"), rdf.HasName, rdf.Literal("client_information_id")),
		rdf.T(inst("partner_id"), rdf.HasName, rdf.Literal("partner_id")),
		rdf.T(inst("customer_id"), rdf.HasName, rdf.Literal("customer_id")),
		// Meta-data schema / hierarchy.
		rdf.T(dm("Application1_View_Column"), rdf.SubClassOf, dm("View_Column")),
		rdf.T(dm("View_Column"), rdf.SubClassOf, dm("Attribute")),
		rdf.T(dm("Application1_View_Column"), rdf.Label, rdf.Literal("Application1 View Column")),
		// Extra data for filters and ordering.
		rdf.T(inst("customer_id"), dm("length"), rdf.Integer(10)),
		rdf.T(inst("partner_id"), dm("length"), rdf.Integer(8)),
	}
	st.AddAll("m", ts)
	return st, st.ViewOf("m")
}

// run executes q plainly, analyze with operator instrumentation: the two
// RunOptions values, under a background context.
func run(q *Query, src store.Source, dict *store.Dict) (*Result, error) {
	res, _, err := q.Run(context.Background(), src, dict, RunOptions{})
	return res, err
}

func analyze(q *Query, src store.Source, dict *store.Dict) (*Result, *ExecStats, error) {
	return q.Run(context.Background(), src, dict, RunOptions{Analyze: true})
}

func exec(t *testing.T, q string) *Result {
	t.Helper()
	st, src := fixture()
	parsed, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	res, err := run(parsed, src, st.Dict())
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

func TestSimpleBGP(t *testing.T) {
	res := exec(t, `PREFIX dt: <`+rdf.DTNS+`>
		SELECT ?s ?o WHERE { ?s dt:isMappedTo ?o }`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestJoin(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`> PREFIX dt: <`+rdf.DTNS+`>
		SELECT ?name WHERE {
			?x dt:isMappedTo ?y .
			?y dm:hasName ?name .
		}`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
	names := map[string]bool{}
	for _, r := range res.Bindings() {
		names[r["name"].Value] = true
	}
	if !names["partner_id"] || !names["customer_id"] {
		t.Errorf("names = %v", names)
	}
}

func TestConstantSubject(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`> PREFIX inst: <`+rdf.InstNS+`>
		SELECT ?name WHERE { inst:customer_id dm:hasName ?name }`)
	if res.Len() != 1 || res.Row(0)["name"].Value != "customer_id" {
		t.Fatalf("rows = %v", res.Bindings())
	}
}

func TestFilterRegex(t *testing.T) {
	// The WHERE regexp_like(term, 'customer', 'i') of Listing 1.
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?x WHERE { ?x dm:hasName ?term . FILTER regex(?term, "CUSTOMER", "i") }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
	if rdf.LocalName(res.Row(0)["x"].Value) != "customer_id" {
		t.Errorf("x = %v", res.Row(0)["x"])
	}
}

func TestFilterComparison(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?x WHERE { ?x dm:length ?l . FILTER (?l > 9) }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
}

func TestFilterBooleanOps(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?x WHERE { ?x dm:length ?l . FILTER (?l >= 8 && ?l <= 9) }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	res = exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?x WHERE { ?x dm:length ?l . FILTER (?l = 8 || ?l = 10) }`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
	res = exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?x WHERE { ?x dm:length ?l . FILTER (!(?l = 8)) }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestFilterStringBuiltins(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?x WHERE { ?x dm:hasName ?n . FILTER CONTAINS(?n, "partner") }`)
	if res.Len() != 1 {
		t.Fatalf("CONTAINS rows = %d", res.Len())
	}
	res = exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?x WHERE { ?x dm:hasName ?n . FILTER STRSTARTS(LCASE(?n), "client") }`)
	if res.Len() != 1 {
		t.Fatalf("STRSTARTS rows = %d", res.Len())
	}
	res = exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?x WHERE { ?x dm:hasName ?n . FILTER STRENDS(?n, "_id") }`)
	if res.Len() != 3 {
		t.Fatalf("STRENDS rows = %d", res.Len())
	}
}

func TestOptional(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?x ?l WHERE {
			?x dm:hasName ?n .
			OPTIONAL { ?x dm:length ?l }
		}`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Len())
	}
	withL := 0
	for _, r := range res.Bindings() {
		if _, ok := r["l"]; ok {
			withL++
		}
	}
	if withL != 2 {
		t.Errorf("rows with optional binding = %d, want 2", withL)
	}
}

func TestOptionalWithBound(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?x WHERE {
			?x dm:hasName ?n .
			OPTIONAL { ?x dm:length ?l }
			FILTER (!BOUND(?l))
		}`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (only client_information_id lacks length)", res.Len())
	}
}

func TestUnion(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`> PREFIX inst: <`+rdf.InstNS+`>
		SELECT ?x WHERE {
			{ ?x a dm:Source_File_Column } UNION { ?x a dm:Application1_View_Column }
		}`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestPathStar(t *testing.T) {
	// Figure 8: (isMappedTo)* from client_information_id.
	res := exec(t, `PREFIX dt: <`+rdf.DTNS+`> PREFIX inst: <`+rdf.InstNS+`>
		SELECT ?t WHERE { inst:client_information_id dt:isMappedTo* ?t }`)
	if res.Len() != 3 { // itself, partner_id, customer_id
		t.Fatalf("rows = %d, want 3", res.Len())
	}
}

func TestPathPlus(t *testing.T) {
	res := exec(t, `PREFIX dt: <`+rdf.DTNS+`> PREFIX inst: <`+rdf.InstNS+`>
		SELECT ?t WHERE { inst:client_information_id dt:isMappedTo+ ?t }`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestPathSequence(t *testing.T) {
	// (isMappedTo)* followed by rdf:type — the exact lineage path of the
	// paper.
	res := exec(t, `PREFIX dt: <`+rdf.DTNS+`> PREFIX inst: <`+rdf.InstNS+`>
		SELECT ?c WHERE { inst:client_information_id dt:isMappedTo*/a ?c }`)
	classes := map[string]bool{}
	for _, r := range res.Bindings() {
		classes[rdf.LocalName(r["c"].Value)] = true
	}
	for _, want := range []string{"Source_File_Column", "Application1_Table_Column", "Application1_View_Column"} {
		if !classes[want] {
			t.Errorf("missing class %s in %v", want, classes)
		}
	}
}

func TestPathInverse(t *testing.T) {
	res := exec(t, `PREFIX dt: <`+rdf.DTNS+`> PREFIX inst: <`+rdf.InstNS+`>
		SELECT ?s WHERE { inst:customer_id ^dt:isMappedTo ?s }`)
	if res.Len() != 1 || rdf.LocalName(res.Row(0)["s"].Value) != "partner_id" {
		t.Fatalf("rows = %v", res.Bindings())
	}
}

func TestPathInverseStarBackward(t *testing.T) {
	// Lineage backwards: everything that maps (transitively) into
	// customer_id.
	res := exec(t, `PREFIX dt: <`+rdf.DTNS+`> PREFIX inst: <`+rdf.InstNS+`>
		SELECT ?s WHERE { ?s dt:isMappedTo+ inst:customer_id }`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestPathAlternative(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`> PREFIX inst: <`+rdf.InstNS+`>
		SELECT ?v WHERE { inst:customer_id (dm:hasName|dm:length) ?v }`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestPathOptionalModifier(t *testing.T) {
	res := exec(t, `PREFIX dt: <`+rdf.DTNS+`> PREFIX inst: <`+rdf.InstNS+`>
		SELECT ?t WHERE { inst:partner_id dt:isMappedTo? ?t }`)
	if res.Len() != 2 { // itself + customer_id
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestDistinct(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT DISTINCT ?c WHERE { ?x a ?c . ?x dm:hasName ?n }`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Len())
	}
}

func TestGroupByCount(t *testing.T) {
	// The Figure 6 shape: count results per class.
	res := exec(t, `SELECT ?c (COUNT(?x) AS ?n) WHERE { ?x a ?c } GROUP BY ?c`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Len())
	}
	for _, r := range res.Bindings() {
		if r["n"].Value != "1" {
			t.Errorf("count for %v = %v, want 1", r["c"], r["n"])
		}
	}
}

func TestCountStarAndDistinct(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT (COUNT(*) AS ?n) WHERE { ?x dm:hasName ?name }`)
	if res.Len() != 1 || res.Row(0)["n"].Value != "3" {
		t.Fatalf("COUNT(*) = %v", res.Bindings())
	}
	res = exec(t, `SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?x a ?c }`)
	if res.Len() != 1 || res.Row(0)["n"].Value != "3" {
		t.Fatalf("COUNT(DISTINCT) = %v", res.Bindings())
	}
}

func TestCountOnEmptyMatch(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT (COUNT(*) AS ?n) WHERE { ?x dm:noSuchPredicate ?y }`)
	if res.Len() != 1 || res.Row(0)["n"].Value != "0" {
		t.Fatalf("COUNT over empty = %v", res.Bindings())
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?n WHERE { ?x dm:hasName ?n } ORDER BY ?n`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d", res.Len())
	}
	got := []string{res.Row(0)["n"].Value, res.Row(1)["n"].Value, res.Row(2)["n"].Value}
	want := []string{"client_information_id", "customer_id", "partner_id"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("order[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	res = exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?n WHERE { ?x dm:hasName ?n } ORDER BY DESC(?n) LIMIT 1`)
	if res.Len() != 1 || res.Row(0)["n"].Value != "partner_id" {
		t.Fatalf("DESC LIMIT = %v", res.Bindings())
	}
	res = exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?n WHERE { ?x dm:hasName ?n } ORDER BY ?n LIMIT 1 OFFSET 1`)
	if res.Len() != 1 || res.Row(0)["n"].Value != "customer_id" {
		t.Fatalf("OFFSET = %v", res.Bindings())
	}
}

func TestOrderByNumeric(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?l WHERE { ?x dm:length ?l } ORDER BY DESC(?l)`)
	if res.Row(0)["l"].Value != "10" {
		t.Fatalf("numeric DESC order = %v", res.Bindings())
	}
}

func TestSelectStar(t *testing.T) {
	res := exec(t, `PREFIX dt: <`+rdf.DTNS+`> SELECT * WHERE { ?s dt:isMappedTo ?o }`)
	if len(res.Vars) != 2 {
		t.Fatalf("vars = %v", res.Vars)
	}
	sort.Strings(res.Vars)
	if res.Vars[0] != "o" || res.Vars[1] != "s" {
		t.Errorf("vars = %v", res.Vars)
	}
}

func TestAsk(t *testing.T) {
	st, src := fixture()
	q := MustParse(`PREFIX dt: <` + rdf.DTNS + `> PREFIX inst: <` + rdf.InstNS + `>
		ASK { inst:client_information_id dt:isMappedTo+ inst:customer_id }`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ask {
		t.Error("ASK should be true")
	}
	q = MustParse(`PREFIX dt: <` + rdf.DTNS + `> PREFIX inst: <` + rdf.InstNS + `>
		ASK { inst:customer_id dt:isMappedTo inst:partner_id }`)
	res, err = run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ask {
		t.Error("ASK should be false (mapping is directional)")
	}
}

func TestSemicolonCommaSyntax(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`> PREFIX inst: <`+rdf.InstNS+`>
		SELECT ?n ?l WHERE {
			inst:customer_id dm:hasName ?n ; dm:length ?l .
		}`)
	if res.Len() != 1 {
		t.Fatalf("rows = %v", res.Bindings())
	}
}

func TestSharedVariableInSubjectAndObject(t *testing.T) {
	st := store.New()
	st.Add("m", rdf.T(rdf.IRI("http://t/self"), rdf.IRI("http://t/p"), rdf.IRI("http://t/self")))
	st.Add("m", rdf.T(rdf.IRI("http://t/a"), rdf.IRI("http://t/p"), rdf.IRI("http://t/b")))
	q := MustParse(`SELECT ?x WHERE { ?x <http://t/p> ?x }`)
	res, err := run(q, st.ViewOf("m"), st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || rdf.LocalName(res.Row(0)["x"].Value) != "self" {
		t.Fatalf("rows = %v", res.Bindings())
	}
}

func TestUnknownTermsYieldEmpty(t *testing.T) {
	res := exec(t, `SELECT ?o WHERE { <http://nowhere/x> <http://nowhere/p> ?o }`)
	if res.Len() != 0 {
		t.Fatalf("rows = %v", res.Bindings())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT ?x`,
		`SELECT ?x WHERE { ?x }`,
		`SELECT ?x WHERE { ?x <p> }`,
		`SELECT ?x WHERE { ?x <p> ?y`,
		`FROB ?x WHERE { ?x <p> ?y }`,
		`SELECT ?x WHERE { ?x <p> ?y } LIMIT -1`,
		`SELECT ?x WHERE { ?x <p> ?y } GROUP`,
		`SELECT ?x WHERE { FILTER }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER regex(?y, "[") }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER regex(?y, "a", "x") }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER regex(?y, "a", "bogus") }`,
		`SELECT (SUM(?x) AS ?s) WHERE { ?x <p> ?y }`,
		`SELECT ?x WHERE { ?x <p> ?y } trailing`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
	}
}

func TestListing1Shape(t *testing.T) {
	// The SPARQL pattern inside Listing 1's SEM_MATCH, adapted to pure
	// SPARQL: find objects typed under classes with labels, restricted by
	// the hierarchy, matching 'customer'.
	st, src := fixture()
	q := MustParse(`
		PREFIX dm: <` + rdf.DMNS + `>
		SELECT ?class ?object WHERE {
			?object a ?c .
			?c rdfs:label ?class .
			?object dm:hasName ?term .
			FILTER regex(?term, "customer", "i")
		}
		GROUP BY ?class ?object`)
	res, err := run(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %v", res.Bindings())
	}
	if res.Row(0)["class"].Value != "Application1 View Column" {
		t.Errorf("class = %v", res.Row(0)["class"])
	}
}

func TestFilterAppliesToWholeGroup(t *testing.T) {
	// A FILTER placed before the pattern it constrains must still apply.
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?x WHERE {
			FILTER (?l > 9)
			?x dm:length ?l .
		}`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
}

func TestNestedGroup(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?x WHERE { { ?x dm:length ?l } FILTER (?l > 9) }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestLexerEdgeCases(t *testing.T) {
	// Single-quoted strings (Oracle listings use them).
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?x WHERE { ?x dm:hasName ?n . FILTER regex(?n, 'customer', 'i') }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestResultVarsOrder(t *testing.T) {
	res := exec(t, `PREFIX dm: <`+rdf.DMNS+`>
		SELECT ?n ?x WHERE { ?x dm:hasName ?n }`)
	if strings.Join(res.Vars, ",") != "n,x" {
		t.Errorf("vars = %v", res.Vars)
	}
}
