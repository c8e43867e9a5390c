package search

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mdw/internal/landscape"
	"mdw/internal/metamodel"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/staging"
	"mdw/internal/store"
)

// TestConcurrentSearchAndWrite runs indexed and scan searches against
// concurrent AddTriple-style writes and Evolve/reload cycles. It is a
// race-detector test: run with -race it proves that pinned snapshots
// keep the index, the entailment materializer, and the dict free of data
// races; without -race it is a cheap smoke test.
func TestConcurrentSearchAndWrite(t *testing.T) {
	l := landscape.Generate(landscape.Small())
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
		t.Fatal(err)
	}
	svc := New(st, "m", nil)

	var wg sync.WaitGroup

	// Searchers: half indexed, half forced onto the scan oracle.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opt := Options{ForceScan: g%2 == 1, Semantic: g%3 == 0}
			terms := []string{"customer", "id", "zz_hot_row", "account"}
			for i := 0; i < 12; i++ {
				if _, err := svc.Search(terms[i%len(terms)], opt); err != nil {
					t.Errorf("searcher %d: %v", g, err)
					return
				}
			}
		}(g)
	}

	// Writer: single-triple adds, hammering Dict.Intern and the
	// generation counter.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			s := rdf.IRI(fmt.Sprintf("%shot/%d", rdf.InstNS, i))
			st.Add("m", rdf.T(s, rdf.Type, rdf.IRI(rdf.DMNS+"Column")))
			st.Add("m", rdf.T(s, rdf.HasName, rdf.Literal(fmt.Sprintf("zz_hot_row_%d", i))))
			if i%10 == 9 {
				st.Remove("m", rdf.T(s, rdf.HasName, rdf.Literal(fmt.Sprintf("zz_hot_row_%d", i))))
			}
		}
	}()

	// Evolver: whole-landscape releases re-running the staging pipeline,
	// which bulk-loads and re-materializes the entailment index.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 2; r <= 4; r++ {
			if _, err := landscape.Evolve(l, r, 0.03); err != nil {
				t.Errorf("evolve %d: %v", r, err)
				return
			}
			if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, nil); err != nil {
				t.Errorf("reload %d: %v", r, err)
				return
			}
		}
	}()

	wg.Wait()

	// At quiescence the two paths must agree again.
	for _, term := range []string{"customer", "zz_hot_row", "id"} {
		indexed, err := svc.Search(term, Options{})
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := svc.Search(term, Options{ForceScan: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(canon(indexed), canon(scanned)) {
			t.Errorf("post-race parity broken for %q", term)
		}
	}
}

// TestIndexedEqualsScanBesideWriter is the search half of the
// concurrent-writer differential: while a writer publishes generations —
// three named items per AddAll — every search pins a view, answers it
// through the text index built for that view and again by the scan
// oracle over the same view, and the two must agree. The answer must
// also be one whole generation (a multiple of three hot rows) no older
// than the one published when the search began.
func TestIndexedEqualsScanBesideWriter(t *testing.T) {
	l := landscape.Generate(landscape.Small())
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
		t.Fatal(err)
	}
	svc := New(st, "m", nil)
	const generations, perGen = 40, 3
	var published, searches atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			terms := []string{"zz_hot", "customer", "zz_hot_row_1", "id"}
			for i := g; int(published.Load()) < generations; i++ {
				from := int(published.Load())
				v, err := reason.ViewCtx(context.Background(), st, true, "m")
				if err != nil {
					t.Error(err)
					return
				}
				k := metamodel.NewGraph(v, st.Dict())
				term := terms[i%len(terms)]
				ix := svc.tix.For("m", v, st)
				expanded := []string{term}
				indexed := compute(k, ix, expanded, Options{}).materialize(k.Dict, term, expanded, nil, 0)
				scanned := compute(k, nil, expanded, Options{}).materialize(k.Dict, term, expanded, nil, 0)
				if !reflect.DeepEqual(canon(indexed), canon(scanned)) {
					t.Errorf("searcher %d: index (generation %d) and scan disagree on %q over the view pinned at generation %d: %d vs %d instances",
						g, ix.Gen(), term, v.Cut("m").Gen, indexed.Instances, scanned.Instances)
					return
				}
				if n := indexed.Instances; term == "zz_hot" && (n%perGen != 0 || n < perGen*from) {
					t.Errorf("searcher %d: %d hot rows, begun at generation %d: not one whole generation at or after it", g, n, from)
					return
				}
				searches.Add(1)
			}
		}()
	}
	for g := 1; g <= generations; g++ {
		var batch []rdf.Triple
		for i := 0; i < perGen; i++ {
			s := rdf.IRI(fmt.Sprintf("%shot/%d_%d", rdf.InstNS, g, i))
			batch = append(batch,
				rdf.T(s, rdf.Type, rdf.IRI(rdf.DMNS+"Column")),
				rdf.T(s, rdf.HasName, rdf.Literal(fmt.Sprintf("zz_hot_row_%d_%d", g, i))))
		}
		st.AddAll("m", batch)
		published.Store(int32(g))
		// One search per write at least, so that the writes fall between
		// and into the searches instead of all before them.
		for int(searches.Load()) < g && !t.Failed() {
			runtime.Gosched()
		}
	}
	wg.Wait()
}
