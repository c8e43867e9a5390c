package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/search"
	"mdw/internal/sparql"
	"mdw/internal/store"
)

// TestQueryEntryPoints pins the warehouse's exported surface. The query
// entry points are Query and SemMatch, plus the four delegations
// bench/ladder.go still calls; there is no Save or dump writer — what a
// warehouse holds reaches disk through the data directory of OpenDurable
// and nothing else. A new variant fails here instead of being found at
// the next review.
func TestQueryEntryPoints(t *testing.T) {
	var got []string
	typ := reflect.TypeOf(&Warehouse{})
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name) // sorted by name
	}
	want := []string{
		"Audit", "Census", "CloneModel", "History", "ImpactOfRelease", "IntegrateDBpedia",
		"Lineage", "LineageService", "LoadExports", "LoadOntology", "LoadTriples",
		"Model", "Ontology", "Query", "QueryAnalyzeCtx", "QueryCtx", "Reindex", "Search", "SearchCtx",
		"SemMatch", "SemMatchAnalyzeCtx", "SemMatchCtx", "Snapshot", "Stats", "Store",
		"TextIndex", "Thesaurus", "Validate",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported methods of *Warehouse = %v, want %v", got, want)
	}
}

const attributeQuery = `PREFIX dm: <` + rdf.DMNS + `> SELECT ?x WHERE { ?x a dm:Attribute }`

const attributeCall = `SEM_MATCH({?x rdf:type dm:Attribute}, SEM_MODELS('DWH_CURR'), SEM_RULEBASES('OWLPRIME'),
	SEM_ALIASES(SEM_ALIAS('dm', '` + rdf.DMNS + `')), null)`

// TestQueryOptionsMatrix drives every QueryOptions combination through
// both fronts. Attribute membership is inherited (Figure 3 types its
// columns with subclasses), so the entailed graph has rows and the base
// facts have none.
func TestQueryOptionsMatrix(t *testing.T) {
	w := buildWarehouse(t)
	fronts := map[string]func(QueryOptions) (Response, error){
		"sparql":   func(o QueryOptions) (Response, error) { return w.Query(context.Background(), attributeQuery, o) },
		"semmatch": func(o QueryOptions) (Response, error) { return w.SemMatch(context.Background(), attributeCall, o) },
	}
	for front, call := range fronts {
		for i := 0; i < 8; i++ {
			opt := QueryOptions{FactsOnly: i&1 != 0, Analyze: i&2 != 0, ExplainOnly: i&4 != 0}
			t.Run(fmt.Sprintf("%s/%+v", front, opt), func(t *testing.T) {
				resp, err := call(opt)
				if err != nil {
					t.Fatal(err)
				}
				if opt.ExplainOnly {
					if resp.Result != nil || resp.Stats != nil {
						t.Errorf("explain-only executed: %+v", resp)
					}
					if !strings.Contains(resp.Plan, "?x rdf:type dm:Attribute  [est ") {
						t.Errorf("plan lacks the estimated pattern:\n%s", resp.Plan)
					}
					return
				}
				if resp.Plan != "" {
					t.Errorf("executed call carries a plan rendering:\n%s", resp.Plan)
				}
				if rows := resp.Result.Len(); (rows == 0) != opt.FactsOnly {
					t.Errorf("%d rows with FactsOnly=%v", rows, opt.FactsOnly)
				}
				if (resp.Stats != nil) != opt.Analyze {
					t.Errorf("Stats = %v with Analyze=%v", resp.Stats, opt.Analyze)
				}
				if opt.Analyze && resp.Stats.Rows != resp.Result.Len() {
					t.Errorf("analyzed %d rows, result has %d", resp.Stats.Rows, resp.Result.Len())
				}
			})
		}
	}
}

// TestBadQueryErrors: what the caller got wrong is ErrBadQuery with the
// parser's own message; a cancelled context is not.
func TestBadQueryErrors(t *testing.T) {
	w := buildWarehouse(t)
	ctx := context.Background()
	for name, call := range map[string]string{
		"call syntax":      `SEM_MATCH no parens`,
		"pattern syntax":   `SEM_MATCH({?s ?p}, SEM_MODELS('DWH_CURR'), null)`,
		"unknown model":    `SEM_MATCH({?s ?p ?o}, SEM_MODELS('NOPE'), null)`,
		"unknown rulebase": `SEM_MATCH({?s ?p ?o}, SEM_MODELS('DWH_CURR'), SEM_RULEBASES('RDFS'), null)`,
	} {
		_, err := w.SemMatch(ctx, call, QueryOptions{ExplainOnly: true})
		if !errors.Is(err, ErrBadQuery) || strings.Contains(err.Error(), ErrBadQuery.Error()) {
			t.Errorf("%s: err = %v, want ErrBadQuery under the parser's own message", name, err)
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	_, err := w.Query(cancelled, `SELECT ?cancelled WHERE { ?cancelled ?p ?o }`, QueryOptions{})
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrBadQuery) {
		t.Errorf("cancelled query: err = %v, want context.Canceled and not ErrBadQuery", err)
	}
}

// TestExplainNestsUnderCallerSpan: planning a SEM_MATCH call without
// executing it keeps the caller's trace — ExplainSemMatch used to drop
// the context — as one warehouse.query span with the parse below it.
func TestExplainNestsUnderCallerSpan(t *testing.T) {
	w := buildWarehouse(t)
	tracer := obs.NewTracer(4)
	root := tracer.Start("caller")
	resp, err := w.SemMatch(obs.ContextWithSpan(context.Background(), root), attributeCall, QueryOptions{ExplainOnly: true})
	if err != nil || resp.Plan == "" {
		t.Fatalf("explain: %v, plan %q", err, resp.Plan)
	}
	root.Finish()
	trace, ok := tracer.Get(root.TraceID())
	if !ok {
		t.Fatal("caller's trace not published")
	}
	var wq obs.SpanData
	for _, sp := range trace.Spans {
		if sp.Name == "warehouse.query" {
			wq = sp
		}
	}
	if wq.ID == 0 || wq.Parent != trace.ID {
		t.Fatalf("no warehouse.query span under the caller's root: %+v", trace.Spans)
	}
	for _, sp := range trace.Spans {
		if sp.Name == "sparql parse" && sp.Parent == wq.ID {
			return
		}
	}
	t.Errorf("no sparql parse span under warehouse.query: %+v", trace.Spans)
}

// TestOneRowCount: the warehouse's span, the engine's exec span and the
// statement table report one count, Result.Count(), on a miss and on a
// cache hit alike — 1 for ASK, whose root span once said 0.
func TestOneRowCount(t *testing.T) {
	w := buildWarehouse(t)
	for _, q := range []string{
		`ASK { ?s ?p ?o }`,
		`SELECT ?s ?n WHERE { ?s <` + rdf.HasName.Value + `> ?n }`,
	} {
		for run := range 2 { // the miss, then the hit
			tracer := obs.NewTracer(4)
			root := tracer.Start("caller")
			resp, err := w.Query(obs.ContextWithSpan(context.Background(), root), q, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			root.Finish()
			trace, _ := tracer.Get(root.TraceID())
			want := fmt.Sprint(resp.Result.Count())
			if strings.HasPrefix(q, "ASK") && want != "1" {
				t.Errorf("ASK result Count() = %s, want 1", want)
			}
			labels := map[string]string{}
			for _, sp := range trace.Spans {
				for _, l := range sp.Labels {
					if l.Key == "rows" {
						labels[sp.Name] = l.Value
					}
				}
			}
			if labels["warehouse.query"] != want || labels["sparql exec"] != want {
				t.Errorf("%s, run %d: rows labels %v, want %s on warehouse.query and sparql exec", q, run, labels, want)
			}
		}
	}
}

// namesWarehouse is a warehouse of n named objects, every 50th of them a
// "Customer" one, with its text index built: enough names that a name
// match runs as a morsel scan on two CPUs.
func namesWarehouse(t *testing.T, n int) *Warehouse {
	t.Helper()
	w := New("")
	ts := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("account_%d", i)
		if i%50 == 0 {
			name = fmt.Sprintf("Customer_%d", i)
		}
		ts = append(ts, rdf.T(rdf.IRI(fmt.Sprintf("%so%d", rdf.InstNS, i)), rdf.HasName, rdf.Literal(name)))
	}
	w.LoadTriples(ts)
	if _, err := w.TextIndex(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestQueryUsesTextIndexOfItsViewOnly: a query gets the kept text index
// as its KeyIndex only when the index is over the very view it reads —
// not over the facts alone, other models, or the graph after a load no
// search has indexed yet. The analyzed name match says "text index"
// there and nowhere else, with the same rows.
func TestQueryUsesTextIndexOfItsViewOnly(t *testing.T) {
	w := namesWarehouse(t, 5000)
	view := func(entailed bool, models ...string) store.Source {
		v, err := reason.View(w.st, entailed, models...)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if w.keysFor(view(true, w.model)) == nil {
		t.Error("no key index for the view the text index is over")
	}
	if _, err := w.CloneModel("", "other"); err != nil {
		t.Fatal(err)
	}
	if w.keysFor(view(false, w.model)) != nil || w.keysFor(view(true, w.model, "other")) != nil {
		t.Error("a key index for a view the text index is not over")
	}
	const q = `SELECT ?o WHERE { ?o <` + rdf.MDWHasName + `> ?t FILTER regex(?t, "customer", "i") }`
	for _, c := range []struct {
		name    string
		opt     QueryOptions
		indexed bool
	}{
		{"entailed", QueryOptions{Analyze: true}, true},
		{"facts only", QueryOptions{Analyze: true, FactsOnly: true}, false},
	} {
		resp, err := w.Query(context.Background(), q, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result.Count() != 100 {
			t.Errorf("%s: %d rows, want 100", c.name, resp.Result.Count())
		}
		if got := strings.Contains(resp.Stats.String(), "(pushed down, per key, text index)"); got != c.indexed {
			t.Errorf("%s: text index used %v, want %v:\n%s", c.name, got, c.indexed, resp.Stats)
		}
	}
	w.LoadTriples([]rdf.Triple{rdf.T(rdf.IRI(rdf.InstNS+"late"), rdf.HasName, rdf.Literal("Customer_late"))})
	resp, err := w.Query(context.Background(), q, QueryOptions{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Count() != 101 || strings.Contains(resp.Stats.String(), "text index") {
		t.Errorf("after a load: %d rows, want 101 without the stale text index:\n%s", resp.Result.Count(), resp.Stats)
	}
}

// TestQueryWorkIndependentOfCPUs: the analyzed name match returns one
// row sequence and counts one amount of work — triples scanned, terms
// decoded, every operator's loops and rows — at 1, 2 and 4 CPUs: a large
// root scan is the morsel scan at every worker count.
func TestQueryWorkIndependentOfCPUs(t *testing.T) {
	w := namesWarehouse(t, 5000)
	const q = `SELECT ?o ?t WHERE { ?o <` + rdf.MDWHasName + `> ?t FILTER regex(?t, "customer", "i") }`
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []string
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		resp, err := w.Query(context.Background(), q, QueryOptions{Analyze: true})
		if err != nil {
			t.Fatal(err)
		}
		st := resp.Stats
		got := []string{fmt.Sprintf("scanned %d, decoded %d", st.RowsScanned, st.TermDecodes)}
		var ops func(op *sparql.OpStats)
		ops = func(op *sparql.OpStats) {
			got = append(got, fmt.Sprintf("%s %s: loops=%d rows=%d", op.Op, op.Detail, op.Loops, op.Rows))
			for _, c := range op.Children {
				ops(c)
			}
		}
		ops(st.Root)
		for i := range resp.Result.Len() {
			row := resp.Result.Row(i)
			got = append(got, row["o"].Value+" "+row["t"].Value)
		}
		if resp.Result.Count() != 100 || !strings.Contains(st.String(), "text index") {
			t.Fatalf("GOMAXPROCS=%d: %d rows, want 100 through the text index:\n%s", procs, resp.Result.Count(), st)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: rows or work differ from GOMAXPROCS=1:\n%s", procs, st)
		}
	}
}

// TestQueryBuildsNoTextIndex: queries read the kept text index and never
// build or extend one — over a current index and over a stale one alike,
// the index build histograms do not move across 50 queries. A search
// does extend it.
func TestQueryBuildsNoTextIndex(t *testing.T) {
	w := namesWarehouse(t, 5000)
	full := obs.Default().Histogram("mdw_textindex_build_seconds", nil, "kind", "full")
	delta := obs.Default().Histogram("mdw_textindex_build_seconds", nil, "kind", "delta")
	for _, stale := range []bool{false, true} {
		if stale {
			w.LoadTriples([]rdf.Triple{rdf.T(rdf.IRI(rdf.InstNS+"late"), rdf.HasName, rdf.Literal("Customer_late"))})
		}
		builds, deltas := full.Count(), delta.Count()
		for i := 0; i < 50; i++ {
			q := fmt.Sprintf(`SELECT ?o WHERE { ?o <%s> ?t FILTER regex(?t, "customer_%d", "i") }`, rdf.MDWHasName, i)
			if _, err := w.Query(context.Background(), q, QueryOptions{Analyze: i%2 == 0, FactsOnly: i%5 == 0}); err != nil {
				t.Fatal(err)
			}
		}
		if full.Count() != builds || delta.Count() != deltas {
			t.Errorf("stale index %v: 50 queries built %d and extended %d text indexes, want none",
				stale, full.Count()-builds, delta.Count()-deltas)
		}
	}
	deltas := delta.Count()
	if _, err := w.Search("customer", search.Options{}); err != nil {
		t.Fatal(err)
	}
	if delta.Count() != deltas+1 {
		t.Errorf("a search after a load extended the text index %d times, want once", delta.Count()-deltas)
	}
}
