package sparql_test

// Concurrent-writer differential: the harnesses in diff_test.go prove the
// engine right on a store at rest; this one proves it right beside a
// writer. A seeded writer publishes generations of one model while
// readers run seeded random queries through the read path production
// uses (reason.ViewCtx, then Query.Run with the results cache on), and
// every answer must equal what the naive reference evaluator computes
// over one whole published generation — never a mixture of two — that is
// no older than the generation current when the call began.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/rescache"
	"mdw/internal/sparql"
	"mdw/internal/store"
)

func TestDifferentialConcurrentWriter(t *testing.T) {
	rescache.Enable(0, 0)
	defer rescache.Enable(0, 0)

	const generations, nQueries, readers = 24, 12, 3
	rng := rand.New(rand.NewSource(23))
	fx := entailedFixture(rng) // generation 0
	initial := fx.st.Triples(fx.mutModel)
	class := func(i int) string { return fmt.Sprintf("http://d/C%d", i) }

	// The writer's script: per generation a batch that adds instances (so
	// inherited types are derived), renames, mappings between old and new
	// instances, and now and then a subclass edge (schema after facts).
	gens := make([][]rdf.Triple, generations+1)
	for g := 1; g <= generations; g++ {
		var b []rdf.Triple
		for i := 0; i < 3; i++ {
			s := rdf.IRI(fmt.Sprintf("http://d/g%d_%d", g, i))
			b = append(b,
				rdf.T(s, rdf.Type, rdf.IRI(class(rng.Intn(6)))),
				rdf.T(s, rdf.HasName, rdf.Literal(fmt.Sprintf("name%d", rng.Intn(3)))),
				rdf.T(rdf.IRI(fx.subjects[rng.Intn(len(fx.subjects))]), rdf.IsMappedTo, s))
		}
		if g%6 == 0 {
			b = append(b, rdf.T(rdf.IRI(class(5)), rdf.SubClassOf, rdf.IRI(class(g/6))))
		}
		gens[g] = b
	}

	gen := &queryGen{rng: rng, fx: fx}
	var queries []*sparql.Query
	for len(queries) < nQueries {
		full, unlimited := gen.query()
		if unlimited != "" {
			continue // LIMIT without ORDER BY has no single right answer
		}
		q, err := sparql.Parse(full)
		if err != nil {
			t.Fatalf("generator emitted unparsable query %q: %v", full, err)
		}
		queries = append(queries, q)
	}

	type observation struct {
		query      int
		from, upTo int // generations published when the call began / had returned
		ask        bool
		rows       []string
	}
	var published atomic.Int32
	done := make(chan struct{})
	obs := make([][]observation, readers)
	answered := make([]atomic.Int32, readers) // 1 + the generation each reader's last answer began at
	var wg sync.WaitGroup
	ctx := context.Background()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				o := observation{query: i % nQueries, from: int(published.Load())}
				v, err := reason.ViewCtx(ctx, fx.st, true, fx.mutModel)
				if err != nil {
					t.Error(err)
					return
				}
				res, _, err := queries[o.query].Run(ctx, v, fx.dict, sparql.RunOptions{})
				if err != nil {
					t.Errorf("query %q: %v", queries[o.query].Text, err)
					return
				}
				o.upTo, o.ask, o.rows = int(published.Load()), res.Ask, rowKeys(res)
				obs[r] = append(obs[r], o)
				answered[r].Store(int32(o.from) + 1)
			}
		}()
	}
	for g := 1; g <= generations; g++ {
		fx.st.AddAll(fx.mutModel, gens[g])
		published.Store(int32(g))
		// Wait for one reader, taking turns, to have begun an answer since
		// the previous write: the answers then straddle the writes instead
		// of all landing after the last, and the next write falls wherever
		// the other readers happen to be — mid-derivation, mid-query.
		for r := g % readers; int(answered[r].Load()) < g; {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()

	// The oracle: each generation rebuilt in a store of its own, entailed
	// from scratch, evaluated by the reference evaluator.
	oracle := make([]*store.View, generations+1)
	dicts := make([]*store.Dict, generations+1)
	for g, sofar := 0, initial; g <= generations; g++ {
		sofar = append(sofar, gens[g]...)
		st := store.New()
		st.AddAll("DWH", sofar)
		v, err := reason.View(st, true, "DWH")
		if err != nil {
			t.Fatal(err)
		}
		oracle[g], dicts[g] = v, st.Dict()
	}
	answer := func(q, g int) (bool, []string) {
		res, err := queries[q].ExecNaive(oracle[g], dicts[g])
		if err != nil {
			t.Fatalf("naive evaluator failed on %q: %v", queries[q].Text, err)
		}
		return res.Ask, rowKeys(res)
	}
	total, straddled := 0, 0
	for r := range obs {
		for _, o := range obs[r] {
			total++
			if o.upTo > o.from {
				straddled++
			}
			ok := false
			// The writer may have applied upTo+1 before publishing it.
			for g := o.from; g <= min(o.upTo+1, generations) && !ok; g++ {
				ask, rows := answer(o.query, g)
				ok = ask == o.ask && sameMultiset(rows, o.rows)
			}
			if !ok {
				t.Fatalf("query %q, begun at generation %d and answered by %d: %d rows (ask=%v) match no published generation in between",
					queries[o.query].Text, o.from, o.upTo, len(o.rows), o.ask)
			}
		}
	}
	if total < generations || straddled == 0 {
		t.Errorf("%d answers, %d of them across a write: the readers did not run beside the writer", total, straddled)
	}
}
