package sparql

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// planFixture builds a model with a skewed predicate distribution:
// t:common has 50 triples, t:rare has 3. Statistics-driven ordering must
// start from the rare predicate.
func planFixture() (*store.Store, store.Source, *store.Dict) {
	st := store.New()
	var ts []rdf.Triple
	for i := 0; i < 50; i++ {
		ts = append(ts, rdf.T(
			rdf.IRI("http://t/s"+string(rune('A'+i%26))+string(rune('a'+i/26))),
			rdf.IRI("http://t/common"),
			rdf.IRI("http://t/o"+string(rune('A'+i%26))+string(rune('a'+i/26)))))
	}
	for _, s := range []string{"sA", "sB", "sC"} {
		ts = append(ts, rdf.T(
			rdf.IRI("http://t/"+s), rdf.IRI("http://t/rare"), rdf.IRI("http://t/r")))
	}
	st.AddAll("m", ts)
	return st, st.ViewOf("m"), st.Dict()
}

func TestPlanStatsJoinOrder(t *testing.T) {
	_, src, dict := planFixture()
	q := MustParse(`SELECT ?y ?z WHERE {
		?x <http://t/common> ?y .
		?x <http://t/rare> ?z .
	}`)
	out := q.Plan(src, dict).String()
	rare := strings.Index(out, "<http://t/rare>")
	common := strings.Index(out, "<http://t/common>")
	if rare < 0 || common < 0 || rare > common {
		t.Errorf("statistics should order the rare predicate first:\n%s", out)
	}
	if !strings.Contains(out, "[est ") {
		t.Errorf("plan against a source must show estimates:\n%s", out)
	}
}

func TestPlanHeuristicFallbackWithoutSource(t *testing.T) {
	q := MustParse(`SELECT ?y WHERE {
		?x <http://t/common> ?y .
		<http://t/sA> <http://t/rare> ?x .
	}`)
	out := q.Plan(nil, nil).String()
	// Without statistics the constant-subject pattern is the selective one.
	first := strings.Index(out, "<http://t/sA>")
	second := strings.Index(out, "<http://t/common>")
	if first < 0 || second < 0 || first > second {
		t.Errorf("heuristic order wrong:\n%s", out)
	}
	if strings.Contains(out, "[est ") {
		t.Errorf("plan without a source must not print estimates:\n%s", out)
	}
}

func TestPlanFilterResidualForOptionalVar(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE {
		?x <http://t/rare> ?y .
		OPTIONAL { ?x <http://t/common> ?z }
		FILTER (?z != <http://t/o>)
	}`)
	out := q.Explain()
	if !strings.Contains(out, "FILTER ?z != <http://t/o> (applied at group end") {
		t.Errorf("filter on an optionally-bound variable must stay residual:\n%s", out)
	}
}

func TestPlanFastPathEquality(t *testing.T) {
	_, src, dict := planFixture()
	q := MustParse(`SELECT ?x WHERE {
		?x <http://t/rare> ?y .
		FILTER (?x = <http://t/sA>)
	}`)
	if out := q.Plan(src, dict).String(); !strings.Contains(out, "ID fast path") {
		t.Errorf("IRI equality should use the ID fast path:\n%s", out)
	}
	res, err := run(q, src, dict)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("want exactly sA, got %d rows", res.Len())
	}

	// != keeps everything except sA.
	qn := MustParse(`SELECT ?x WHERE {
		?x <http://t/rare> ?y .
		FILTER (?x != <http://t/sA>)
	}`)
	res, err = run(qn, src, dict)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("want sB and sC, got %d rows", res.Len())
	}

	// Equality against an IRI the dictionary has never seen matches nothing;
	// inequality matches everything.
	qu := MustParse(`SELECT ?x WHERE {
		?x <http://t/rare> ?y .
		FILTER (?x = <http://t/never-seen>)
	}`)
	res, err = run(qu, src, dict)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("unknown IRI equality must match nothing, got %d rows", res.Len())
	}
	qun := MustParse(`SELECT ?x WHERE {
		?x <http://t/rare> ?y .
		FILTER (?x != <http://t/never-seen>)
	}`)
	res, err = run(qun, src, dict)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("unknown IRI inequality must keep all rows, got %d", res.Len())
	}
}

func TestPlanWarningsCartesian(t *testing.T) {
	q := MustParse(`SELECT ?a WHERE {
		?a <http://t/p> ?b .
		?c <http://t/q> ?d .
	}`)
	w := q.Plan(nil, nil).Warnings()
	if len(w) != 1 || !strings.Contains(w[0], "cartesian product") {
		t.Errorf("disconnected BGP must warn, got %v", w)
	}
	connected := MustParse(`SELECT ?a WHERE {
		?a <http://t/p> ?b .
		?b <http://t/q> ?d .
	}`)
	if w := connected.Plan(nil, nil).Warnings(); len(w) != 0 {
		t.Errorf("connected BGP must not warn, got %v", w)
	}
	// Constant-only patterns do not form a product.
	constOnly := MustParse(`ASK {
		<http://t/a> <http://t/p> <http://t/b> .
		?x <http://t/q> ?y .
	}`)
	if w := constOnly.Plan(nil, nil).Warnings(); len(w) != 0 {
		t.Errorf("single variable component must not warn, got %v", w)
	}
}

func TestPlanExecWithoutSource(t *testing.T) {
	q := MustParse(`ASK { ?s ?p ?o }`)
	if _, _, err := q.Plan(nil, nil).Run(context.Background(), RunOptions{}); err == nil {
		t.Fatal("executing a source-free plan must error")
	}
}

// countingSource counts index callbacks to observe early termination.
type countingSource struct {
	store.Source
	calls int
}

func (c *countingSource) ForEach(s, p, o store.ID, fn func(store.ETriple) bool) {
	c.Source.ForEach(s, p, o, func(t store.ETriple) bool {
		c.calls++
		return fn(t)
	})
}

func TestAskStopsAtFirstSolution(t *testing.T) {
	_, src, dict := planFixture()
	cs := &countingSource{Source: src}
	q := MustParse(`ASK { ?x <http://t/common> ?y }`)
	res, err := run(q, cs, dict)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ask {
		t.Fatal("expected true")
	}
	if cs.calls != 1 {
		t.Errorf("ASK scanned %d triples; must stop at the first", cs.calls)
	}
}

func TestLimitStreamsEarly(t *testing.T) {
	_, src, dict := planFixture()
	cs := &countingSource{Source: src}
	q := MustParse(`SELECT ?x WHERE { ?x <http://t/common> ?y } LIMIT 3`)
	res, err := run(q, cs, dict)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("want 3 rows, got %d", res.Len())
	}
	if cs.calls > 4 {
		t.Errorf("LIMIT 3 scanned %d of 50 triples; must stop early", cs.calls)
	}
	// ORDER BY disables streaming: every solution must be seen.
	cs.calls = 0
	qo := MustParse(`SELECT ?x WHERE { ?x <http://t/common> ?y } ORDER BY ASC(?x) LIMIT 3`)
	if _, err := run(qo, cs, dict); err != nil {
		t.Fatal(err)
	}
	if cs.calls != 50 {
		t.Errorf("ORDER BY query scanned %d triples, want all 50", cs.calls)
	}
}

func TestExplainOnShowsEstimates(t *testing.T) {
	_, src, dict := planFixture()
	q := MustParse(`SELECT ?x WHERE { ?x <http://t/rare> ?y }`)
	out := q.ExplainOn(src, dict)
	if !strings.Contains(out, "[est 3]") {
		t.Errorf("ExplainOn must render real cardinalities:\n%s", out)
	}
}

// paperShapedFixture is a graph with the proportions of the paper-scale
// landscape that decide Listing 1's join order: few labelled classes, five
// rdf:type triples per object, one dm:hasName per object, and one
// dt:isMappedTo chain through all objects for Listing 2.
func paperShapedFixture(objects int) (store.Source, *store.Dict) {
	const classes = 20
	st := store.New()
	class := func(i int) rdf.Term { return rdf.IRI(rdf.DMNS + "C" + strconv.Itoa(i%classes)) }
	var ts []rdf.Triple
	for c := 0; c < classes; c++ {
		ts = append(ts, rdf.T(class(c), rdf.Label, rdf.Literal("Class "+strconv.Itoa(c))))
	}
	for i := 0; i < objects; i++ {
		o := rdf.IRI(rdf.InstNS + "o" + strconv.Itoa(i))
		for k := 0; k < 5; k++ {
			ts = append(ts, rdf.T(o, rdf.Type, class(i+k)))
		}
		name := "position_" + strconv.Itoa(i)
		if i%40 == 0 {
			name = "Customer_" + strconv.Itoa(i)
		}
		ts = append(ts, rdf.T(o, rdf.HasName, rdf.Literal(name)))
		if i > 0 {
			ts = append(ts, rdf.T(rdf.IRI(rdf.InstNS+"o"+strconv.Itoa(i-1)), rdf.IsMappedTo, o))
		}
	}
	st.AddAll("m", ts)
	return st.ViewOf("m"), st.Dict()
}

// firstPatterns returns the numbered pattern lines of a rendered plan,
// trimmed of their estimates.
func firstPatterns(plan string) []string {
	var out []string
	for _, line := range strings.Split(plan, "\n") {
		line = strings.TrimSpace(line)
		if len(line) > 2 && line[1] == '.' && line[0] >= '1' && line[0] <= '9' {
			pat, _, _ := strings.Cut(line[3:], "  [")
			out = append(out, pat)
		}
	}
	return out
}

// TestPlanListing1CostOrder: with the FILTER's selectivity in the cost,
// Listing 1 starts at the dm:hasName scan the regex prunes and that scan
// is the morsel plan; without the FILTER it keeps starting from the
// class labels, and Listing 2 from its constant class.
func TestPlanListing1CostOrder(t *testing.T) {
	src, dict := paperShapedFixture(2000)
	prefix := `PREFIX dm: <` + rdf.DMNS + `> PREFIX dt: <` + rdf.DTNS + `> `
	listing1 := `?object rdf:type ?c . ?c rdfs:label ?class . ?object dm:hasName ?term . `
	par := ParOptions{MaxWorkers: 4, MorselSize: 16, SerialThreshold: 64}

	filtered := MustParse(prefix + `SELECT * WHERE { ` + listing1 + `FILTER regex(?term, "customer", "i") }`)
	out := filtered.PlanOpts(src, dict, par).String()
	want := []string{"?object dm:hasName ?term", "?object rdf:type ?c", "?c rdfs:label ?class"}
	if got := firstPatterns(out); !reflect.DeepEqual(got, want) {
		t.Errorf("filtered Listing 1 order = %q, want %q:\n%s", got, want, out)
	}
	if !strings.Contains(out, "PARALLEL morsel scan") {
		t.Errorf("filtered Listing 1 must drive the morsel scan:\n%s", out)
	}
	res, err := runPlan(filtered.PlanOpts(src, dict, par))
	if err != nil || res.Len() != 2000/40*5 {
		t.Errorf("filtered Listing 1: %d rows, err %v; want %d", res.Len(), err, 2000/40*5)
	}

	unfiltered := MustParse(prefix + `SELECT * WHERE { ` + listing1 + `}`)
	want = []string{"?c rdfs:label ?class", "?object rdf:type ?c", "?object dm:hasName ?term"}
	if got := firstPatterns(unfiltered.Plan(src, dict).String()); !reflect.DeepEqual(got, want) {
		t.Errorf("unfiltered Listing 1 order = %q, want %q", got, want)
	}

	listing2 := MustParse(prefix + `SELECT * WHERE {
		?source_id dt:isMappedTo ?target_id .
		?target_id rdf:type dm:C3 .
		?target_id dm:hasName ?target_name }`)
	want = []string{"?target_id rdf:type dm:C3", "?source_id dt:isMappedTo ?target_id", "?target_id dm:hasName ?target_name"}
	if got := firstPatterns(listing2.Plan(src, dict).String()); !reflect.DeepEqual(got, want) {
		t.Errorf("Listing 2 order = %q, want %q", got, want)
	}
}

func runPlan(p *Plan) (*Result, error) {
	res, _, err := p.Run(context.Background(), RunOptions{})
	return res, err
}

// TestOneWorkerScanOrder: at one worker an unordered filtered scan over
// a large graph is the morsel scan too, so every run returns the one row
// sequence two workers return, not an order of Go's index maps.
func TestOneWorkerScanOrder(t *testing.T) {
	src, dict := namesFixture(20_000)
	q := MustParse(`SELECT ?o WHERE { ?o <` + rdf.MDWHasName + `> ?t FILTER regex(?t, "customer", "i") }`)
	rows := func(par ParOptions) []string {
		res, err := runPlan(q.PlanOpts(src, dict, par))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, b := range res.Bindings() {
			out = append(out, b["o"].Value)
		}
		return out
	}
	want := rows(ParOptions{MaxWorkers: 2})
	if len(want) != 400 {
		t.Fatalf("%d rows at 2 workers, want 400", len(want))
	}
	for run := range 3 {
		if got := rows(ParOptions{MaxWorkers: 1}); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d at 1 worker: rows %q…, want %q… as at 2 workers", run, got[:min(3, len(got))], want[:3])
		}
	}
}

// TestFilteredScanAllocations: the rows a pushed FILTER rejects cost no
// allocation — ten times the rows, all filtered out, allocate what the
// short scan does.
func TestFilteredScanAllocations(t *testing.T) {
	q := MustParse(`SELECT ?o WHERE { ?o <` + rdf.MDWHasName + `> ?t FILTER regex(?t, "no such name", "i") }`)
	for _, c := range []struct {
		name string
		par  ParOptions
	}{
		{"serial", ParOptions{MaxWorkers: 1}},
		// Two workers over 8-triple morsels: the morsels, and with them
		// the parts, grow tenfold with the rows.
		{"parallel", ParOptions{MaxWorkers: 2, MorselSize: 8, SerialThreshold: 1}},
	} {
		allocs := func(n int) float64 {
			src, dict := namesFixture(n)
			p := q.PlanOpts(src, dict, c.par)
			if c.par.MaxWorkers > 1 && p.Parallelism() < 2 {
				t.Fatalf("%s: plan is not a morsel scan:\n%s", c.name, p)
			}
			return testing.AllocsPerRun(5, func() {
				if res, err := runPlan(p); err != nil || res.Len() != 0 {
					t.Fatalf("rows = %d, err = %v", res.Len(), err)
				}
			})
		}
		small, large := allocs(1_000), allocs(10_000)
		t.Logf("%s allocs: %.0f for 1k rows, %.0f for 10k", c.name, small, large)
		if large > small+2 {
			t.Errorf("%s: allocations grow with rows filtered out: %.0f for 1k rows, %.0f for 10k", c.name, small, large)
		}
	}
}
