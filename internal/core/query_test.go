package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mdw/internal/obs"
	"mdw/internal/rdf"
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
