package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdw/internal/lineage"
	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/search"
	"mdw/internal/staging"
)

// batch returns n fresh column facts, distinct per (round, i): what one
// POST /api/load of a release delta adds.
func batch(round, n int) []rdf.Triple {
	ts := make([]rdf.Triple, 0, n)
	for i := 0; i < n/2; i++ {
		col := rdf.IRI(fmt.Sprintf("%sload_%d_%d", rdf.InstNS, round, i))
		ts = append(ts,
			rdf.T(col, rdf.Type, rdf.IRI(rdf.DMNS+"Application1_View_Column")),
			rdf.T(col, rdf.HasName, rdf.Literal(fmt.Sprintf("load_%d_%d", round, i))))
	}
	return ts
}

const listing1Filtered = `SEM_MATCH(
	{?object rdf:type ?c . ?c rdfs:label ?class . ?object dm:hasName ?term .
	 FILTER regex(?term, "customer", "i")},
	SEM_MODELS('DWH_CURR'), SEM_RULEBASES('OWLPRIME'),
	SEM_ALIASES(SEM_ALIAS('dm', '` + rdf.DMNS + `')), null)`

// TestQueryWhileLoad is the paper's §III.A situation — users read release
// N while the pipeline loads N+1 — as a race-detector test: one goroutine
// per read entry point beside a writer that loads batches and removes one
// triple (the from-scratch derivation path). Every read pins a snapshot
// (reason.ViewCtx → store.Snapshot), so `go test -race` must stay silent;
// when views read the live models it reported Model.Count, Model.ForEach
// and the map iterator against the writer's addIdx within 50 ms.
func TestQueryWhileLoad(t *testing.T) {
	w := buildWarehouse(t)
	at := time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC)
	if _, err := w.Snapshot("R1", at); err != nil {
		t.Fatal(err)
	}
	w.LoadTriples(batch(-1, 20))
	if _, err := w.Snapshot("R2", at.AddDate(0, 3, 0)); err != nil {
		t.Fatal(err)
	}
	item := staging.InstanceIRI("application1", "dwhdb", "mart", "v_customer", "customer_id")
	ctx := context.Background()
	readers := map[string]func() error{
		"Query": func() error {
			_, err := w.Query(ctx, `PREFIX dm: <`+rdf.DMNS+`> SELECT ?o ?n WHERE { ?o a dm:Attribute . ?o dm:hasName ?n }`, QueryOptions{})
			return err
		},
		"SemMatch": func() error {
			_, err := w.SemMatch(ctx, listing1Filtered, QueryOptions{})
			return err
		},
		"SearchCtx": func() error {
			_, err := w.SearchCtx(ctx, "customer", search.Options{})
			return err
		},
		"TraceCtx": func() error {
			_, err := w.LineageService().TraceCtx(ctx, item, lineage.Backward, lineage.Options{})
			return err
		},
		"Audit": func() error {
			_, err := w.Audit(item, true)
			return err
		},
		"ImpactOfRelease": func() error {
			_, err := w.ImpactOfRelease(1, 2)
			return err
		},
		"Stats": func() error {
			if s := w.Stats(); s.Triples == 0 {
				return fmt.Errorf("stats report an empty model")
			}
			return nil
		},
		"TextIndex": func() error {
			_, err := w.TextIndex()
			return err
		},
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var lapped atomic.Int32 // readers that have answered three times beside the writer
	errc := make(chan error, len(readers))
	for name, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for calls := 1; ; calls++ {
				select {
				case <-done:
					return
				default:
				}
				if err := read(); err != nil {
					errc <- fmt.Errorf("%s: %w", name, err)
					lapped.Add(1)
					return
				}
				if calls == 3 {
					lapped.Add(1)
				}
			}
		}()
	}
	rounds := 0
	for ; rounds < 40 || int(lapped.Load()) < len(readers); rounds++ {
		round := rounds
		b := batch(round, 20)
		if n := w.LoadTriples(b); n != len(b) {
			t.Errorf("round %d: loaded %d of %d", round, n, len(b))
		}
		if round == 20 && !w.Store().Remove(w.Model(), b[1]) {
			t.Error("Remove: triple just loaded is absent")
		}
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The last word is the writer's: a read after the load sees all of it.
	res, err := w.SearchCtx(ctx, fmt.Sprintf("load_%d_", rounds-1), search.Options{})
	if err != nil || res.Instances != 10 {
		t.Errorf("after the load: %d hits for the last batch (%v), want 10", res.Instances, err)
	}
}

// TestSnapshotCopiesCostModel pins what a pinned read costs, by the
// counter: nothing on an unchanged store, and one copy of the base model
// per load → first-read cycle — however many batches the load had, and
// shared by the derivation, the search and the query that follow it.
func TestSnapshotCopiesCostModel(t *testing.T) {
	w := buildWarehouse(t)
	item := staging.InstanceIRI("application1", "dwhdb", "mart", "v_customer", "customer_id")
	ctx := context.Background()
	copies := obs.Default().Counter("mdw_store_snapshot_copies_total")
	mixed := func(i int) {
		t.Helper()
		var err error
		switch i % 5 {
		case 0:
			_, err = w.SearchCtx(ctx, "customer", search.Options{})
		case 1:
			_, err = w.SemMatch(ctx, listing1Filtered, QueryOptions{})
		case 2:
			_, err = w.LineageService().TraceCtx(ctx, item, lineage.Backward, lineage.Options{})
		case 3:
			_, err = w.Audit(item, true)
		case 4:
			w.Stats()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	mixed(0) // bring everything up to date
	c0 := copies.Value()
	for i := 0; i < 1000; i++ {
		mixed(i)
	}
	if n := copies.Value() - c0; n != 0 {
		t.Errorf("1000 reads of an unchanged store took %d copies, want 0", n)
	}
	for cycle := 0; cycle < 50; cycle++ {
		for b := 0; b < 10; b++ {
			w.LoadTriples(batch(cycle*10+b, 200))
		}
		mixed(0)
		mixed(1)
	}
	if n := copies.Value() - c0; n != 50 {
		t.Errorf("50 load→search→query cycles took %d copies, want 50 (one of the base per cycle)", n)
	}
}
