package sparql

import (
	"context"
	"strings"
	"testing"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/rescache"
	"mdw/internal/store"
)

// analyzeFixture: a small graph with enough shape variety (fan-out on p,
// a type edge, names) that multi-operator queries produce non-trivial
// per-operator counts.
func analyzeFixture(t *testing.T) (*store.Store, store.Source) {
	t.Helper()
	st := store.New()
	var ts []rdf.Triple
	for i := 0; i < 6; i++ {
		s := rdf.IRI(iriN("s", i))
		ts = append(ts, rdf.T(s, rdf.Type, rdf.IRI("http://x/Table")))
		ts = append(ts, rdf.T(s, rdf.HasName, rdf.Literal("n"+string(rune('a'+i%2)))))
		if i > 0 {
			ts = append(ts, rdf.T(rdf.IRI(iriN("s", i-1)), rdf.IsMappedTo, s))
		}
	}
	st.AddAll("m", ts)
	return st, st.ViewOf("m")
}

func iriN(prefix string, i int) string {
	return "http://x/" + prefix + string(rune('0'+i))
}

// countOps walks an ExecStats tree counting operator nodes (the synthetic
// root excluded).
func countOps(ops []*OpStats) int {
	n := 0
	for _, op := range ops {
		n += 1 + countOps(op.Children)
	}
	return n
}

// TestAnalyzeTreeShape checks that the stats tree mirrors the plan: one
// node per assigned stat slot, patterns carrying estimates, and sane
// query-wide accounting.
func TestAnalyzeTreeShape(t *testing.T) {
	st, src := analyzeFixture(t)
	q, err := Parse(`SELECT ?s ?n WHERE {
		?s <` + rdf.RDFType + `> <http://x/Table> .
		?s <` + rdf.MDWHasName + `> ?n .
		OPTIONAL { ?s <` + rdf.MDWIsMappedTo + `> ?t }
		FILTER (?n != "zzz")
	}`)
	if err != nil {
		t.Fatal(err)
	}
	p := q.Plan(src, st.Dict())
	res, stats, err := p.Run(context.Background(), RunOptions{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil || stats.Root == nil {
		t.Fatal("analyzed Run returned no stats tree")
	}
	if got := countOps(stats.Root.Children); got != p.nstats {
		t.Errorf("tree has %d operator nodes, plan assigned %d stat slots", got, p.nstats)
	}
	if stats.Rows != res.Len() {
		t.Errorf("stats.Rows = %d, result has %d rows", stats.Rows, res.Len())
	}
	if int64(stats.Root.Rows) != int64(res.Len()) {
		t.Errorf("root Rows = %d, want %d", stats.Root.Rows, res.Len())
	}
	if stats.Strategy != "serial" {
		t.Errorf("strategy = %q, want serial for an un-forced tiny plan", stats.Strategy)
	}
	if stats.RowsScanned == 0 {
		t.Error("RowsScanned = 0; pattern probes should have counted triples")
	}
	if stats.TermDecodes == 0 {
		t.Error("TermDecodes = 0; projecting ?s ?n must decode terms")
	}
	var kinds = map[string]int{}
	var walk func(ops []*OpStats)
	walk = func(ops []*OpStats) {
		for _, op := range ops {
			kinds[op.Op]++
			if op.Loops < 0 || op.Rows < 0 {
				t.Errorf("negative counters on %s %s", op.Op, op.Detail)
			}
			if op.Op == "pattern" {
				if op.Estimate < 0 {
					t.Errorf("pattern %q lost its estimate", op.Detail)
				}
				if op.Loops > 0 && op.Ratio < 1 {
					t.Errorf("pattern %q ran but Ratio = %v (< 1)", op.Detail, op.Ratio)
				}
			}
			walk(op.Children)
		}
	}
	walk(stats.Root.Children)
	if kinds["pattern"] != 3 {
		t.Errorf("tree has %d pattern nodes, want 3 (two BGP + one OPTIONAL)", kinds["pattern"])
	}
	if kinds["optional"] != 1 || kinds["filter"] != 1 {
		t.Errorf("tree kinds = %v, want one optional and one filter", kinds)
	}
}

// TestAnalyzeRendering checks the EXPLAIN ANALYZE text: per-operator
// estimated=/actual= annotations and the execution summary line.
func TestAnalyzeRendering(t *testing.T) {
	st, src := analyzeFixture(t)
	q, err := Parse(`SELECT ?s WHERE { ?s <` + rdf.RDFType + `> <http://x/Table> . ?s <` + rdf.MDWHasName + `> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := analyze(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	out := stats.String()
	for _, want := range []string{"estimated=", "actual=", "loops=", "time=", "ACTUAL:", "scanned"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyzed rendering missing %q:\n%s", want, out)
		}
	}
	// Analyzed rendering must still be the EXPLAIN rendering underneath.
	if !strings.Contains(out, "PLAN") && !strings.Contains(out, "pattern") {
		t.Errorf("analyzed rendering does not resemble the plan:\n%s", out)
	}
}

// TestAnalyzeNeverExecuted: an operator starved by an empty upstream must
// render as never executed, not as a misestimation.
func TestAnalyzeNeverExecuted(t *testing.T) {
	st, src := analyzeFixture(t)
	q, err := Parse(`SELECT ?s WHERE { ?s <http://x/absent> ?o . ?s <` + rdf.MDWHasName + `> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := analyze(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("expected empty result, got %d rows", res.Len())
	}
	if !strings.Contains(stats.String(), "never executed") {
		t.Errorf("starved operator not marked never executed:\n%s", stats.String())
	}
	var walk func(ops []*OpStats)
	walk = func(ops []*OpStats) {
		for _, op := range ops {
			if op.Loops == 0 && op.Ratio != 0 {
				t.Errorf("never-executed %s %q got Ratio %v", op.Op, op.Detail, op.Ratio)
			}
			walk(op.Children)
		}
	}
	walk(stats.Root.Children)
}

// TestAnalyzeDistinctLimit covers the merger-side counters: streaming
// DISTINCT drops and the stopped-at-LIMIT marker.
func TestAnalyzeDistinctLimit(t *testing.T) {
	st, src := analyzeFixture(t)
	q, err := Parse(`SELECT DISTINCT ?n WHERE { ?s <` + rdf.MDWHasName + `> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := analyze(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if stats.DistinctDropped == 0 {
		t.Errorf("six names over two values: expected DISTINCT drops, got %d", stats.DistinctDropped)
	}
	lq, err := Parse(`SELECT ?s WHERE { ?s <` + rdf.RDFType + `> <http://x/Table> } LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	res, lstats, err := analyze(lq, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || !lstats.LimitStopped {
		t.Errorf("LIMIT 2 over 6 tables: rows=%d limitStopped=%v", res.Len(), lstats.LimitStopped)
	}
	if !strings.Contains(lstats.String(), "stopped at LIMIT") {
		t.Errorf("rendering missing LIMIT marker:\n%s", lstats.String())
	}
}

// statementRow returns the default statement table's row of fp.
func statementRow(t *testing.T, fp string) obs.StatementStat {
	t.Helper()
	for _, s := range obs.DefaultStatements().Snapshot() {
		if s.Fingerprint == fp {
			return s
		}
	}
	t.Fatalf("no statement row for %s", fp)
	return obs.StatementStat{}
}

// TestMisestimateReporting checks the feedback channel end to end: an
// analyzed execution whose FILTER selectivity is off by more than the
// threshold increments mdw_sparql_misestimate_total and leaves its worst
// operator and analyzed plan on the statement's row; a LIMIT-stopped
// execution of the same shape leaves none of them.
func TestMisestimateReporting(t *testing.T) {
	obs.DefaultStatements().Reset()
	defer obs.DefaultStatements().Reset()
	// 500 names, ten of them customers, one "customer_account_0": the
	// planner expects a tenth of the input (50) to pass the regex, 1 does.
	src, dict := namesFixture(500)
	q := MustParse(`SELECT ?o WHERE { ?o <` + rdf.MDWHasName + `> ?t FILTER regex(?t, "customer_account_0", "i") }`)

	before := obsMisestimate.Value()
	_, stats, err := analyze(q, src, dict)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxRatio < misestimateThreshold || stats.WorstOp == "" {
		t.Fatalf("fixture misestimates by x%.1f (%q), want >= x%v", stats.MaxRatio, stats.WorstOp, misestimateThreshold)
	}
	if got := obsMisestimate.Value(); got != before+1 {
		t.Errorf("mdw_sparql_misestimate_total: got %d, want %d", got, before+1)
	}
	if !strings.Contains(stats.String(), "MISESTIMATE:") {
		t.Errorf("analyzed rendering lacks the MISESTIMATE line:\n%s", stats.String())
	}
	row := statementRow(t, q.Fingerprint())
	if row.MaxRatio != stats.MaxRatio || row.WorstOp != stats.WorstOp || row.AnalyzedCalls != 1 {
		t.Errorf("row worst = x%v %q (%d analyzed), want x%v %q (1)", row.MaxRatio, row.WorstOp, row.AnalyzedCalls, stats.MaxRatio, stats.WorstOp)
	}
	if !strings.Contains(row.WorstPlan, "actual=") || !strings.Contains(row.WorstPlan, "MISESTIMATE:") {
		t.Errorf("row's worst plan is not the analyzed plan:\n%s", row.WorstPlan)
	}
	if row.MaxPlan == "" || strings.Contains(row.MaxPlan, "actual=") {
		t.Errorf("row's max plan is not the estimate plan:\n%s", row.MaxPlan)
	}

	// The same shape stopped at LIMIT: counted, resources kept, no ratio.
	lq := MustParse(`SELECT ?o WHERE { ?o <` + rdf.MDWHasName + `> ?t FILTER regex(?t, "customer", "i") } LIMIT 1`)
	before = obsMisestimate.Value()
	_, lstats, err := analyze(lq, src, dict)
	if err != nil {
		t.Fatal(err)
	}
	if !lstats.LimitStopped {
		t.Fatal("LIMIT 1 over ten customers did not stop at the LIMIT")
	}
	if obsMisestimate.Value() != before {
		t.Error("a LIMIT-stopped execution incremented mdw_sparql_misestimate_total")
	}
	lrow := statementRow(t, lq.Fingerprint())
	if lrow.AnalyzedCalls != 1 || lrow.RowsScanned == 0 {
		t.Errorf("LIMIT-stopped row resources: %d analyzed, %d scanned", lrow.AnalyzedCalls, lrow.RowsScanned)
	}
	if lrow.MaxRatio != 0 || lrow.WorstOp != "" || lrow.WorstPlan != "" {
		t.Errorf("LIMIT-stopped execution set the row's worst: x%v %q\n%s", lrow.MaxRatio, lrow.WorstOp, lrow.WorstPlan)
	}
}

// TestCacheHitIsNotAnExecution: a results-cache hit counts as a call
// and a hit of the statement's row, and its lookup time stays out of the
// latency summary, which describes the one execution.
func TestCacheHitIsNotAnExecution(t *testing.T) {
	rescache.Enable(0, 0) // empty: the first run must execute
	defer rescache.Enable(0, 0)
	obs.DefaultStatements().Reset()
	defer obs.DefaultStatements().Reset()
	st, src := analyzeFixture(t)
	q := MustParse(`SELECT ?s ?t WHERE { ?s <` + rdf.MDWIsMappedTo + `> ?t }`)
	if !q.resultsCacheable() {
		t.Fatal("fixture query is not cacheable")
	}
	for i := 0; i < 2; i++ {
		if _, err := run(q, src, st.Dict()); err != nil {
			t.Fatal(err)
		}
	}
	row := statementRow(t, q.Fingerprint())
	if row.Calls != 2 || row.Hits != 1 {
		t.Fatalf("calls/hits = %d/%d, want 2/1", row.Calls, row.Hits)
	}
	if row.Min != row.Max || row.Mean != row.Max || row.Total != row.Max {
		t.Errorf("latency summary mixes in the hit: total %v min %v max %v mean %v", row.Total, row.Min, row.Max, row.Mean)
	}
}

// TestAnalyzeResourceAccounting: analyzed executions fold scanned/decoded
// counters into the statement table.
func TestAnalyzeResourceAccounting(t *testing.T) {
	st, src := analyzeFixture(t)
	q, err := Parse(`SELECT ?s ?n WHERE { ?s <` + rdf.MDWHasName + `> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := analyze(q, src, st.Dict())
	if err != nil {
		t.Fatal(err)
	}
	var row *obs.StatementStat
	for _, s := range obs.DefaultStatements().Snapshot() {
		if s.Fingerprint == q.Fingerprint() {
			row = &s
			break
		}
	}
	if row == nil {
		t.Fatal("analyzed execution missing from statement table")
	}
	if row.AnalyzedCalls == 0 {
		t.Error("AnalyzedCalls = 0 after an analyzed execution")
	}
	if row.RowsScanned < stats.RowsScanned || row.TermDecodes < stats.TermDecodes {
		t.Errorf("statement resources (%d scanned, %d decodes) below this execution's (%d, %d)",
			row.RowsScanned, row.TermDecodes, stats.RowsScanned, stats.TermDecodes)
	}
}

// TestAnalyzeMorselScanFilter: the driving pattern of a morsel scan is
// charged the scan's time, and a FILTER carries the count the planner
// expected to pass — its input times the selectivity the join order
// assumed — so a selectivity that is far off becomes the execution's
// worst misestimate.
func TestAnalyzeMorselScanFilter(t *testing.T) {
	src, dict := namesFixture(5_000)
	q := MustParse(`SELECT ?o WHERE { ?o <` + rdf.MDWHasName + `> ?t FILTER regex(?t, "customer_account_0", "i") }`)
	p := q.PlanOpts(src, dict, ParOptions{MaxWorkers: 2, MorselSize: 64, SerialThreshold: 64})
	_, stats, err := p.Run(context.Background(), RunOptions{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != "morsel" {
		t.Fatalf("strategy = %q, want morsel", stats.Strategy)
	}
	scan := stats.Root.Children[0]
	if scan.Op != "pattern" || scan.Time <= 0 {
		t.Errorf("driving pattern %q has time %v, want the scan's time", scan.Detail, scan.Time)
	}
	filter := scan.Children[0]
	if filter.Op != "filter" || filter.Loops != 5_000 || filter.Rows != 1 || filter.Estimate != 500 {
		t.Errorf("filter node = %+v, want 5000 in, 1 passed, 500 estimated", *filter)
	}
	if stats.WorstOp != filter.Detail || stats.MaxRatio < 100 {
		t.Errorf("worst operator = %q (x%.1f), want the filter", stats.WorstOp, stats.MaxRatio)
	}
	if out := stats.String(); !strings.Contains(out, "[in=5000 estimated=500 actual=1 (x250.5) time=") {
		t.Errorf("filter annotation missing from:\n%s", out)
	}
}
