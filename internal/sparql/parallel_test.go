package sparql_test

// Tests for intra-query parallelism: morsel-scan selection, the
// deterministic-order guarantee (parallel execution returns the exact
// row sequence serial execution does, not just the same multiset),
// cancellation (no goroutine outlives Run), and early termination.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mdw/internal/rdf"
	"mdw/internal/sparql"
	"mdw/internal/store"
)

// forcedPar returns options that parallelize aggressively: any estimate
// triggers fan-out and morsels are tiny, so even test-sized fixtures
// exercise the worker pool.
func forcedPar(workers int) sparql.ParOptions {
	return sparql.ParOptions{
		MaxWorkers:      workers,
		MorselSize:      8,
		SerialThreshold: 1,
	}
}

// serialPar caps the plan at one worker with the default thresholds: the
// baseline runs' fixtures stay under SerialThreshold, so they take the
// serial pipeline; a larger scan is a one-worker morsel scan.
func serialPar() sparql.ParOptions {
	return sparql.ParOptions{MaxWorkers: 1}
}

// parLevels is the worker-count sweep the satellites require: 1, 2, and
// GOMAXPROCS, padded with 4 so multi-worker merging is exercised even on
// small machines.
func parLevels() []int {
	levels := []int{1, 2, 4}
	n := runtime.GOMAXPROCS(0)
	for _, l := range levels {
		if l == n {
			return levels
		}
	}
	return append(levels, n)
}

// typedFixture builds a model whose first join step is answered from an
// index slice ((?s, type, C) probes pos[type][C]), so the serial
// enumeration order is deterministic and parallel runs must reproduce it
// exactly.
func typedFixture(t testing.TB, n int) (store.Source, *store.Dict) {
	t.Helper()
	st := store.New()
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		s := rdf.IRI(fmt.Sprintf("http://d/s%05d", i))
		ts = append(ts, rdf.T(s, rdf.Type, rdf.IRI("http://d/C")))
		ts = append(ts, rdf.T(s, rdf.HasName, rdf.Literal(fmt.Sprintf("n%d", i%17))))
		if i%2 == 0 {
			ts = append(ts, rdf.T(s, rdf.Type, rdf.IRI("http://d/C2")))
		}
	}
	st.AddAll("m", ts)
	return st.ViewOf("m"), st.Dict()
}

// rowStrings renders result rows in order, for exact-sequence comparison.
func rowStrings(res *sparql.Result) []string {
	out := make([]string, 0, res.Len())
	for _, row := range res.Bindings() {
		var b strings.Builder
		for _, v := range res.Vars {
			if tm, ok := row[v]; ok {
				fmt.Fprintf(&b, "%s=%s;", v, tm.String())
			}
		}
		out = append(out, b.String())
	}
	return out
}

// runPlan executes a plan plainly under ctx.
func runPlan(ctx context.Context, p *sparql.Plan) (*sparql.Result, error) {
	res, _, err := p.Run(ctx, sparql.RunOptions{})
	return res, err
}

func mustExec(t *testing.T, q *sparql.Query, src store.Source, dict *store.Dict, opts sparql.ParOptions) *sparql.Result {
	t.Helper()
	res, err := runPlan(context.Background(), q.PlanOpts(src, dict, opts))
	if err != nil {
		t.Fatalf("exec failed: %v", err)
	}
	return res
}

// TestParallelDeterministicOrder: an ORDER BY-free SELECT must return
// identically ordered rows from a morsel scan at 1, 2 and N workers,
// matching the serial order.
func TestParallelDeterministicOrder(t *testing.T) {
	src, dict := typedFixture(t, 3000)
	queries := []string{
		`SELECT ?s ?n WHERE { ?s <` + rdf.RDFType + `> <http://d/C> . ?s <` + rdf.MDWHasName + `> ?n }`,
		`SELECT ?s WHERE { ?s <` + rdf.RDFType + `> <http://d/C> }`,
		`SELECT DISTINCT ?n WHERE { ?s <` + rdf.RDFType + `> <http://d/C> . ?s <` + rdf.MDWHasName + `> ?n }`,
		`SELECT ?s ?n WHERE { ?s <` + rdf.RDFType + `> <http://d/C> . ?s <` + rdf.MDWHasName + `> ?n } LIMIT 100`,
	}
	for _, text := range queries {
		q := sparql.MustParse(text)
		serial := rowStrings(mustExec(t, q, src, dict, serialPar()))
		for _, par := range parLevels() {
			p := q.PlanOpts(src, dict, forcedPar(par))
			if !strings.Contains(p.String(), "PARALLEL morsel scan") {
				t.Fatalf("no morsel scan at %d workers for %q:\n%s", par, text, p)
			}
			res, err := runPlan(context.Background(), p)
			if err != nil {
				t.Fatalf("parallel exec (%d workers) failed: %v", par, err)
			}
			got := rowStrings(res)
			if len(got) != len(serial) {
				t.Fatalf("row count at %d workers: got %d, want %d (%q)", par, len(got), len(serial), text)
			}
			for i := range got {
				if got[i] != serial[i] {
					t.Fatalf("row order diverges at %d workers, row %d: got %q, want %q (%q)",
						par, i, got[i], serial[i], text)
				}
			}
		}
	}
}

// TestParallelUnionOrder: a root UNION is not a morsel scan, so a plan
// given a worker budget runs it on the serial pipeline and reproduces the
// left-then-right sequence.
func TestParallelUnionOrder(t *testing.T) {
	src, dict := typedFixture(t, 2000)
	text := `SELECT ?s WHERE { { ?s <` + rdf.RDFType + `> <http://d/C> } UNION { ?s <` + rdf.RDFType + `> <http://d/C2> } }`
	q := sparql.MustParse(text)
	serial := rowStrings(mustExec(t, q, src, dict, serialPar()))
	got := rowStrings(mustExec(t, q, src, dict, forcedPar(4)))
	if len(got) != len(serial) {
		t.Fatalf("row count: got %d, want %d", len(got), len(serial))
	}
	for i := range got {
		if got[i] != serial[i] {
			t.Fatalf("UNION order diverges at row %d: got %q, want %q", i, got[i], serial[i])
		}
	}
}

// chainFixture builds a graph of e-edges with enough branching that BFS
// frontiers grow wide: 60 roots each starting a chain, plus skip edges.
func chainFixture(t testing.TB, n int) (store.Source, *store.Dict) {
	t.Helper()
	st := store.New()
	node := func(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("http://d/n%05d", i)) }
	edge := rdf.IRI("http://d/e")
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		if i+60 < n {
			ts = append(ts, rdf.T(node(i), edge, node(i+60)))
		}
		if i%3 == 0 && i+61 < n {
			ts = append(ts, rdf.T(node(i), edge, node(i+61)))
		}
	}
	st.AddAll("g", ts)
	return st.ViewOf("g"), st.Dict()
}

// TestParallelPathOrder: forward, backward, and both-unbound path
// queries must return the serial BFS discovery order whatever worker
// budget the plan was given.
func TestParallelPathOrder(t *testing.T) {
	src, dict := chainFixture(t, 1500)
	smallSrc, smallDict := chainFixture(t, 250) // all-pairs closure: keep the universe small
	queries := []string{
		`SELECT ?o WHERE { <http://d/n00000> <http://d/e>+ ?o }`,
		`SELECT ?o WHERE { <http://d/n00003> <http://d/e>* ?o }`,
		`SELECT ?s WHERE { ?s <http://d/e>* <http://d/n01490> }`,
		`SELECT ?s ?o WHERE { ?s <http://d/e>+ ?o }`,
	}
	for qi, text := range queries {
		src, dict := src, dict
		if qi == len(queries)-1 {
			src, dict = smallSrc, smallDict
		}
		q := sparql.MustParse(text)
		serial := rowStrings(mustExec(t, q, src, dict, serialPar()))
		for _, par := range parLevels()[1:] {
			got := rowStrings(mustExec(t, q, src, dict, forcedPar(par)))
			if len(got) != len(serial) {
				t.Fatalf("path rows at %d workers: got %d, want %d (%q)", par, len(got), len(serial), text)
			}
			for i := range got {
				if got[i] != serial[i] {
					t.Fatalf("path order diverges at %d workers, row %d (%q)", par, i, text)
				}
			}
		}
	}
}

// TestParallelAggregateParity: aggregation consumes the ordered merge on
// the caller goroutine, so grouped results must match serial exactly.
func TestParallelAggregateParity(t *testing.T) {
	src, dict := typedFixture(t, 3000)
	text := `SELECT ?n (COUNT(?s) AS ?c) WHERE { ?s <` + rdf.RDFType + `> <http://d/C> . ?s <` + rdf.MDWHasName + `> ?n } GROUP BY ?n`
	q := sparql.MustParse(text)
	serial := rowStrings(mustExec(t, q, src, dict, serialPar()))
	for _, par := range parLevels()[1:] {
		got := rowStrings(mustExec(t, q, src, dict, forcedPar(par)))
		if len(got) != len(serial) {
			t.Fatalf("group count at %d workers: got %d, want %d", par, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("aggregate rows diverge at %d workers, row %d: got %q want %q", par, i, got[i], serial[i])
			}
		}
	}
}

// TestParallelSelection checks the planner's thresholds: big scans run as
// morsel scans under default options, small ones stay serial, and
// the decision is visible in the plan rendering and Parallelism().
func TestParallelSelection(t *testing.T) {
	big, bigDict := typedFixture(t, 6000)
	small, smallDict := typedFixture(t, 20)
	q := sparql.MustParse(`SELECT ?s WHERE { ?s <` + rdf.RDFType + `> <http://d/C> }`)

	p := q.PlanOpts(big, bigDict, sparql.ParOptions{MaxWorkers: 4})
	if p.Parallelism() < 2 {
		t.Fatalf("big scan not parallel under default thresholds: parallelism=%d", p.Parallelism())
	}
	if !strings.Contains(p.String(), "PARALLEL morsel scan") {
		t.Fatalf("plan rendering lacks PARALLEL morsel line:\n%s", p)
	}

	ps := q.PlanOpts(small, smallDict, sparql.ParOptions{MaxWorkers: 4})
	if ps.Parallelism() != 1 {
		t.Fatalf("small scan parallelized: parallelism=%d", ps.Parallelism())
	}
	if strings.Contains(ps.String(), "PARALLEL") {
		t.Fatalf("serial plan rendering mentions PARALLEL:\n%s", ps)
	}

	// Worker cap 1 plans the morsel scan and starts no goroutine: its one
	// worker is the calling goroutine. The context's probe (every
	// cancelTick triples) counts the goroutines in the middle of the scan.
	p1 := q.PlanOpts(big, bigDict, serialPar())
	if got := p1.Parallelism(); got != 1 || !strings.Contains(p1.String(), "PARALLEL morsel scan: up to 1 workers") {
		t.Fatalf("MaxWorkers 1: parallelism %d, want the morsel scan at 1 worker:\n%s", got, p1)
	}
	ctx := &goroutineProbe{Context: context.Background()}
	base := runtime.NumGoroutine()
	_, stats, err := p1.Run(ctx, sparql.RunOptions{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != "morsel" || stats.Workers != 1 || ctx.probes == 0 || ctx.max > base {
		t.Fatalf("MaxWorkers 1: %s x%d workers, %d goroutines in the scan (%d probes), %d before",
			stats.Strategy, stats.Workers, ctx.max, ctx.probes, base)
	}
}

// goroutineProbe records the most goroutines seen when the execution
// probes it for cancellation.
type goroutineProbe struct {
	context.Context
	probes, max int
}

func (c *goroutineProbe) Err() error {
	c.probes++
	c.max = max(c.max, runtime.NumGoroutine())
	return c.Context.Err()
}

// viewFixture is typedFixture's graph read through a two-member view, the
// shape of every /api/query and rulebase SEM_MATCH: a second model repeats
// every third subject's dm:hasName triple and gives every fifth subject a
// name of its own.
func viewFixture(t testing.TB, n int) (store.Source, *store.Dict) {
	t.Helper()
	st := store.New()
	var base, second []rdf.Triple
	for i := 0; i < n; i++ {
		s := rdf.IRI(fmt.Sprintf("http://d/s%05d", i))
		name := rdf.T(s, rdf.HasName, rdf.Literal(fmt.Sprintf("n%d", i%17)))
		base = append(base, rdf.T(s, rdf.Type, rdf.IRI("http://d/C")), name)
		if i%2 == 0 {
			base = append(base, rdf.T(s, rdf.Type, rdf.IRI("http://d/C2")))
		}
		if i%3 == 0 {
			second = append(second, name)
		}
		if i%5 == 0 {
			second = append(second, rdf.T(s, rdf.HasName, rdf.Literal(fmt.Sprintf("N1x%d", i))))
		}
	}
	st.AddAll("m", base)
	st.AddAll("m2", second)
	return st.ViewOf("m", "m2"), st.Dict()
}

// TestParallelFilteredDrivingPattern: a FILTER pushed onto the pattern
// the morsel scan drives runs inside every worker — each reading its own
// slot row — and the rows are the naive evaluator's, without duplicates,
// in one order at every worker count (the parts walk their key ranges
// sorted, also when one worker scans them all). The two-member view also
// checks that a triple the second member repeats is reported once. Under
// -race this is the check that the filter loop shares nothing.
func TestParallelFilteredDrivingPattern(t *testing.T) {
	one, oneDict := typedFixture(t, 600)
	view, viewDict := viewFixture(t, 600)
	for _, in := range []struct {
		name string
		src  store.Source
		dict *store.Dict
	}{{"one model", one, oneDict}, {"two-member view", view, viewDict}} {
		for _, filter := range []string{
			`regex(?n, "N1", "i")`, // literal kernel
			`regex(?n, "^n1[0-6]$")`,
			`CONTAINS(?n, "1") && ?s != <http://d/s00001>`,
		} {
			q := sparql.MustParse(`SELECT ?s ?n ?c WHERE {
				?s <` + rdf.RDFType + `> ?c .
				?s <` + rdf.MDWHasName + `> ?n .
				FILTER (` + filter + `) }`)
			naive, err := q.ExecNaive(in.src, in.dict)
			if err != nil {
				t.Fatal(err)
			}
			want := rowKeys(naive)
			if len(want) == 0 {
				t.Fatalf("%s: %s keeps no row", in.name, filter)
			}
			var first []string
			for _, workers := range parLevels() {
				p := q.PlanOpts(in.src, in.dict, forcedPar(workers))
				if out := p.String(); !strings.Contains(out, "1. ?s dm:hasName ?n") {
					t.Fatalf("%s, %s: the filtered pattern must drive the scan:\n%s", in.name, filter, out)
				}
				res, err := runPlan(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				got := rowKeys(res)
				if !sameMultiset(got, want) {
					t.Errorf("%s, %s, %d workers: %d rows, naive evaluator has %d", in.name, filter, workers, len(got), len(want))
				}
				for i := 1; i < len(got); i++ {
					if got[i] == got[i-1] {
						t.Errorf("%s, %s, %d workers: row %s twice", in.name, filter, workers, got[i])
					}
				}
				if got := rowStrings(res); first == nil {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					t.Errorf("%s, %s, %d workers: row order differs from the one-worker run", in.name, filter, workers)
				}
			}
		}
	}
}

// TestParallelEarlyTermination: ASK and streamed LIMIT must stop the
// pool, return promptly, and leave no workers behind.
func TestParallelEarlyTermination(t *testing.T) {
	src, dict := typedFixture(t, 4000)
	base := runtime.NumGoroutine()
	for _, text := range []string{
		`ASK { ?s <` + rdf.RDFType + `> <http://d/C> }`,
		`SELECT ?s WHERE { ?s <` + rdf.RDFType + `> <http://d/C> } LIMIT 1`,
	} {
		q := sparql.MustParse(text)
		res := mustExec(t, q, src, dict, forcedPar(4))
		if q.Kind == sparql.AskQuery && !res.Ask {
			t.Fatalf("%q returned false", text)
		}
		if q.Kind == sparql.SelectQuery && res.Len() != 1 {
			t.Fatalf("%q returned %d rows, want 1", text, res.Len())
		}
	}
	waitForGoroutines(t, base)
}

// TestParallelCancellation is the satellite coverage: a context
// cancelled mid-execution stops every worker promptly, Run returns
// ctx.Err(), and the goroutine count settles back to the baseline.
func TestParallelCancellation(t *testing.T) {
	// A wide cross-ish join: 700 subjects each probing 700 candidates
	// through the shared object keeps execution busy for tens of
	// milliseconds, far longer than the cancellation delay.
	st := store.New()
	var ts []rdf.Triple
	for i := 0; i < 700; i++ {
		ts = append(ts, rdf.T(rdf.IRI(fmt.Sprintf("http://d/a%04d", i)), rdf.IRI("http://d/p1"), rdf.IRI("http://d/hub")))
		ts = append(ts, rdf.T(rdf.IRI(fmt.Sprintf("http://d/b%04d", i)), rdf.IRI("http://d/p2"), rdf.IRI("http://d/hub")))
	}
	st.AddAll("m", ts)
	src, dict := st.ViewOf("m"), st.Dict()
	q := sparql.MustParse(`SELECT ?x ?z WHERE { ?x <http://d/p1> ?y . ?z <http://d/p2> ?y }`)

	base := runtime.NumGoroutine()

	// Cancelled before execution starts: the error surfaces immediately.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := runPlan(pre, q.PlanOpts(src, dict, forcedPar(4))); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled exec returned %v, want context.Canceled", err)
	}

	// Cancelled mid-execution: workers notice via the amortized probe.
	ctx := cancelAfter(3)
	_, err := runPlan(ctx, q.PlanOpts(src, dict, forcedPar(4)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-execution cancel returned %v, want context.Canceled", err)
	}
	waitForGoroutines(t, base)

	// The serial pipeline honors cancellation too.
	if _, err := runPlan(cancelAfter(3), q.PlanOpts(src, dict, serialPar())); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial cancel returned %v, want context.Canceled", err)
	}
}

// probeCanceled is a context whose Err turns context.Canceled after its
// k-th call. The execution calls Err once before it starts and then every
// cancelTick steps, so the context cancels a run in the middle, after the
// same amount of work on every schedule, with no clock involved.
type probeCanceled struct {
	context.Context
	k      int64
	probes atomic.Int64
}

// cancelAfter returns a context cancelled at its k-th probe after the
// first.
func cancelAfter(k int64) *probeCanceled {
	return &probeCanceled{Context: context.Background(), k: k}
}

func (c *probeCanceled) Err() error {
	if c.probes.Add(1) > c.k {
		return context.Canceled
	}
	return nil
}

// TestParallelKeyFilterCancellation: a per-key FILTER that rejects every
// key visits no triple, so the scan's only cancellation probes are the
// per-key test's. A context cancelled mid-scan must still stop every
// worker, Run must return ctx.Err(), and no goroutine may outlive it.
func TestParallelKeyFilterCancellation(t *testing.T) {
	st := store.New()
	long := strings.Repeat("ab", 50)
	var ts []rdf.Triple
	for i := 0; i < 30_000; i++ {
		ts = append(ts, rdf.T(rdf.IRI(fmt.Sprintf("http://d/o%05d", i)), rdf.HasName, rdf.Literal(fmt.Sprintf("%s%d", long, i))))
	}
	st.AddAll("m", ts)
	src, dict := st.ViewOf("m"), st.Dict()
	// Go's regexp reads every byte of every name, and no name matches:
	// tens of milliseconds in all, far longer than the delay below.
	q := sparql.MustParse(`SELECT ?o WHERE { ?o <` + rdf.MDWHasName + `> ?n FILTER regex(?n, "(a|b)*c") }`)
	p := q.PlanOpts(src, dict, forcedPar(4))
	if !strings.Contains(p.String(), "(pushed down, per key)") {
		t.Fatalf("the filter is not tested per key:\n%s", p)
	}
	start := time.Now()
	if res, err := runPlan(context.Background(), p); err != nil || res.Len() != 0 {
		t.Fatalf("uncancelled run: %d rows, err %v; want 0 rows", res.Len(), err)
	}
	full := time.Since(start)

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 10)
		cancel()
	}()
	start = time.Now()
	if _, err := runPlan(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled after %v of a %v scan: err %v, want context.Canceled", full/10, full, err)
	}
	t.Logf("full scan %v, cancelled run returned after %v", full, time.Since(start))
	waitForGoroutines(t, base)
}

// TestParallelPathCancellation cancels an all-pairs closure.
func TestParallelPathCancellation(t *testing.T) {
	src, dict := chainFixture(t, 4000)
	q := sparql.MustParse(`SELECT ?s ?o WHERE { ?s <http://d/e>+ ?o }`)
	base := runtime.NumGoroutine()
	if _, err := runPlan(cancelAfter(3), q.PlanOpts(src, dict, forcedPar(4))); !errors.Is(err, context.Canceled) {
		t.Fatalf("path cancel returned %v, want context.Canceled", err)
	}
	waitForGoroutines(t, base)
}

// waitForGoroutines asserts the goroutine count returns to (near) the
// baseline: the pool's WaitGroup guarantees no worker outlives Run, so
// anything persistently above the baseline is a leak.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", base, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
