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
	if stats.Rows != len(res.Rows) {
		t.Errorf("stats.Rows = %d, result has %d rows", stats.Rows, len(res.Rows))
	}
	if int64(stats.Root.Rows) != int64(len(res.Rows)) {
		t.Errorf("root Rows = %d, want %d", stats.Root.Rows, len(res.Rows))
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
	if len(res.Rows) != 0 {
		t.Fatalf("expected empty result, got %d rows", len(res.Rows))
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
	if len(res.Rows) != 2 || !lstats.LimitStopped {
		t.Errorf("LIMIT 2 over 6 tables: rows=%d limitStopped=%v", len(res.Rows), lstats.LimitStopped)
	}
	if !strings.Contains(lstats.String(), "stopped at LIMIT") {
		t.Errorf("rendering missing LIMIT marker:\n%s", lstats.String())
	}
}

// TestMisestimateReporting checks the feedback channel end to end: with
// the threshold floored every analyzed execution reports (any ratio is
// >= 1), with it maxed none do.
func TestMisestimateReporting(t *testing.T) {
	defer SetMisestimateThreshold(DefaultMisestimateThreshold)
	log := obs.DefaultMisestimates()
	log.Reset()
	defer log.Reset()

	st, src := analyzeFixture(t)
	q, err := Parse(`SELECT ?s WHERE { ?s <` + rdf.RDFType + `> <http://x/Table> }`)
	if err != nil {
		t.Fatal(err)
	}

	SetMisestimateThreshold(1)
	before := obsMisestimate.Value()
	if _, stats, err := analyze(q, src, st.Dict()); err != nil {
		t.Fatal(err)
	} else if stats.MaxRatio < 1 || stats.WorstOp == "" {
		t.Fatalf("analyzed execution found no worst operator: ratio=%v op=%q", stats.MaxRatio, stats.WorstOp)
	}
	if got := obsMisestimate.Value(); got != before+1 {
		t.Errorf("mdw_sparql_misestimate_total: got %d, want %d", got, before+1)
	}
	entries := log.Snapshot()
	if len(entries) != 1 {
		t.Fatalf("misestimation log has %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Fingerprint != q.Fingerprint() || e.WorstOp == "" || e.Count != 1 {
		t.Errorf("bad log entry: %+v", e)
	}
	if !strings.Contains(e.Plan, "actual=") {
		t.Errorf("log entry plan is not analyzed:\n%s", e.Plan)
	}

	// Re-report: the entry folds, count climbs.
	if _, _, err := analyze(q, src, st.Dict()); err != nil {
		t.Fatal(err)
	}
	if got := log.Snapshot()[0].Count; got != 2 {
		t.Errorf("folded entry count = %d, want 2", got)
	}

	// A threshold nothing can reach stays silent.
	SetMisestimateThreshold(1e12)
	log.Reset()
	before = obsMisestimate.Value()
	if _, _, err := analyze(q, src, st.Dict()); err != nil {
		t.Fatal(err)
	}
	if obsMisestimate.Value() != before || log.Len() != 0 {
		t.Error("misestimation reported despite unreachable threshold")
	}
}

// TestSlowQueryAutoAnalyze: a slow un-analyzed execution arms its
// fingerprint; the next execution collects stats and ships an analyzed
// plan to the slow log — exactly once.
func TestSlowQueryAutoAnalyze(t *testing.T) {
	// Every execution must actually execute (the results cache would
	// serve the repeat from memory and never hit the armed path).
	rescache.Disable()
	defer rescache.Enable(0, 0)
	sl := obs.DefaultSlowLog()
	prev := sl.Threshold()
	sl.SetThreshold(0) // log everything
	defer sl.SetThreshold(prev)

	st, src := analyzeFixture(t)
	q, err := Parse(`SELECT ?s WHERE { ?s <` + rdf.RDFType + `> <http://x/Table> . ?s <` + rdf.MDWIsMappedTo + `> ?t }`)
	if err != nil {
		t.Fatal(err)
	}
	fp := q.Fingerprint()
	defer disarmAnalyze(fp)

	if _, err := run(q, src, st.Dict()); err != nil {
		t.Fatal(err)
	}
	if e := sl.Entries()[0]; e.Analyzed {
		t.Fatal("first execution should not be analyzed")
	}
	if !analyzeArmed(fp) {
		t.Fatal("slow execution did not arm its fingerprint")
	}

	if _, err := run(q, src, st.Dict()); err != nil {
		t.Fatal(err)
	}
	e := sl.Entries()[0]
	if !e.Analyzed || !strings.Contains(e.Plan, "actual=") {
		t.Fatalf("second execution should carry an analyzed plan, got analyzed=%v plan:\n%s", e.Analyzed, e.Plan)
	}
	if analyzeArmed(fp) {
		t.Error("arming is one-shot; fingerprint still armed after analyzed run")
	}

	if _, err := run(q, src, st.Dict()); err != nil {
		t.Fatal(err)
	}
	// The third run re-arms (it was slow and un-analyzed again, by the
	// zero threshold) but must itself be un-analyzed.
	if e := sl.Entries()[0]; e.Analyzed {
		t.Error("third execution analyzed; arming leaked past one execution")
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
