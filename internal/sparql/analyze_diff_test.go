package sparql_test

// Analyze-mode parity harness: EXPLAIN ANALYZE must be pure
// observation. Every random query runs twice over the same plan options
// — once plain, once with stats collection — and the solution multisets
// must be identical, at serial parallelism and at GOMAXPROCS with the
// parallel thresholds floored so morsel / parallel-UNION / frontier-BFS
// paths all execute instrumented. Run with -race, the shared stats
// record (atomics updated from worker goroutines) gets hunted too.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"mdw/internal/sparql"
)

// checkStatsTree asserts well-formedness of an analyzed execution's
// operator tree: a root is present, counters are non-negative, and
// ratios only appear on operators that ran.
func checkStatsTree(t *testing.T, tag, query string, stats *sparql.ExecStats, rows int) {
	t.Helper()
	if stats == nil || stats.Root == nil {
		t.Fatalf("[%s] no stats tree for %q", tag, query)
	}
	if stats.Rows != rows {
		t.Errorf("[%s] stats.Rows=%d result rows=%d for %q", tag, stats.Rows, rows, query)
	}
	if stats.Strategy == "" {
		t.Errorf("[%s] empty strategy for %q", tag, query)
	}
	var walk func(ops []*sparql.OpStats)
	walk = func(ops []*sparql.OpStats) {
		for _, op := range ops {
			if op.Op == "" {
				t.Errorf("[%s] unnamed operator in tree for %q", tag, query)
			}
			if op.Rows < 0 || op.Loops < 0 || op.Time < 0 {
				t.Errorf("[%s] negative counters on %s %q in %q", tag, op.Op, op.Detail, query)
			}
			if op.Loops == 0 && op.Rows != 0 {
				t.Errorf("[%s] %s %q produced %d rows without running in %q", tag, op.Op, op.Detail, op.Rows, query)
			}
			if op.Ratio != 0 && op.Ratio < 1 {
				t.Errorf("[%s] %s %q has ratio %v < 1 in %q", tag, op.Op, op.Detail, op.Ratio, query)
			}
			walk(op.Children)
		}
	}
	walk(stats.Root.Children)
}

// TestDifferentialAnalyze sweeps ~300 random queries (both fixtures,
// paths included) comparing analyzed and plain execution of identical
// plans, serial and parallel.
func TestDifferentialAnalyze(t *testing.T) {
	levels := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		levels = append(levels, n)
	} else {
		levels = append(levels, 4)
	}
	rng := rand.New(rand.NewSource(99))
	fixtures := []diffFixture{simpleFixture(rng), entailedFixture(rng)}
	const perFixture = 150
	for _, fx := range fixtures {
		g := &queryGen{rng: rng, fx: fx, paths: true}
		for i := 0; i < perFixture; i++ {
			full, unlimited := g.query()
			q, err := sparql.Parse(full)
			if err != nil {
				t.Fatalf("[%s #%d] generator emitted unparsable query %q: %v", fx.name, i, full, err)
			}
			for _, workers := range levels {
				opts := sparql.ParOptions{
					MaxWorkers:      workers,
					MorselSize:      4,
					SerialThreshold: 1,
				}
				plain, _, err := q.PlanOpts(fx.src, fx.dict, opts).Run(context.Background(), sparql.RunOptions{})
				if err != nil {
					t.Fatalf("[%s #%d w=%d] plain exec failed for %q: %v", fx.name, i, workers, full, err)
				}
				res, stats, err := q.PlanOpts(fx.src, fx.dict, opts).Run(context.Background(), sparql.RunOptions{Analyze: true})
				if err != nil {
					t.Fatalf("[%s #%d w=%d] analyzed exec failed for %q: %v", fx.name, i, workers, full, err)
				}
				rows := res.Len()
				if q.Kind == sparql.AskQuery {
					rows = 1
					if res.Ask != plain.Ask {
						t.Errorf("[%s #%d w=%d] ASK divergence on %q: analyzed=%v plain=%v",
							fx.name, i, workers, full, res.Ask, plain.Ask)
					}
				} else if unlimited != "" {
					// LIMIT without ORDER BY: row counts must agree, the
					// specific rows may legitimately differ between runs.
					if res.Len() != plain.Len() {
						t.Errorf("[%s #%d w=%d] LIMIT row count diverged on %q: analyzed=%d plain=%d",
							fx.name, i, workers, full, res.Len(), plain.Len())
					}
				} else if ak, pk := rowKeys(res), rowKeys(plain); !sameMultiset(ak, pk) {
					t.Errorf("[%s #%d w=%d] divergence on %q:\nanalyzed (%d): %v\nplain    (%d): %v",
						fx.name, i, workers, full, len(ak), ak, len(pk), pk)
				}
				checkStatsTree(t, fx.name, full, stats, rows)
			}
		}
	}
}
