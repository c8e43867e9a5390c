package reason

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/store"
)

// genAnyRule draws one triple from a bounded vocabulary that reaches
// every supported rule: both hierarchies, domain and range (with literal
// objects the range rule must skip), symmetric, transitive and inverse
// properties, the equivalences and sameAs.
func genAnyRule(r *rand.Rand) rdf.Triple {
	classes := []rdf.Term{iri("A"), iri("B"), iri("C"), iri("D")}
	props := []rdf.Term{iri("p"), iri("q"), iri("r")}
	insts := []rdf.Term{iri("x"), iri("y"), iri("z"), iri("w")}
	class := func() rdf.Term { return classes[r.Intn(len(classes))] }
	prop := func() rdf.Term { return props[r.Intn(len(props))] }
	inst := func() rdf.Term { return insts[r.Intn(len(insts))] }
	switch r.Intn(14) {
	case 0:
		return rdf.T(class(), rdf.SubClassOf, class())
	case 1:
		return rdf.T(prop(), rdf.SubPropertyOf, prop())
	case 2:
		return rdf.T(prop(), rdf.Domain, class())
	case 3:
		return rdf.T(prop(), rdf.Range, class())
	case 4:
		return rdf.T(prop(), rdf.Type, rdf.IRI(rdf.OWLSymmetricProperty))
	case 5:
		return rdf.T(prop(), rdf.Type, rdf.IRI(rdf.OWLTransitiveProperty))
	case 6:
		return rdf.T(prop(), rdf.IRI(rdf.OWLInverseOf), prop())
	case 7:
		return rdf.T(class(), rdf.IRI(rdf.OWLEquivalentClass), class())
	case 8:
		return rdf.T(prop(), rdf.IRI(rdf.OWLEquivalentProperty), prop())
	case 9:
		return rdf.T(inst(), rdf.IRI(rdf.OWLSameAs), inst())
	case 10:
		return rdf.T(inst(), prop(), rdf.Literal("v"))
	case 11:
		return rdf.T(inst(), rdf.Type, class())
	default:
		return rdf.T(inst(), prop(), inst())
	}
}

// fromScratch derives the index of the given base triples on a store of
// its own, where there is nothing to extend.
func fromScratch(t *testing.T, base []rdf.Triple) []rdf.Triple {
	t.Helper()
	st := store.New()
	st.AddAll("m", base)
	idx, err := Materialize(st, "m")
	if err != nil {
		t.Fatal(err)
	}
	return st.Triples(idx)
}

// "Load A, derive, load B, extend" must leave the index that "load A∪B,
// derive" builds, whatever the batches hold: schema triples that arrive
// after the facts they apply to, facts the index had already derived,
// duplicates of what is loaded, and removals between loads (which send
// the next run back to a from-scratch derivation).
func TestExtensionEqualsFromScratchProperty(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		st := store.New()
		st.Model("m")
		var ops []store.Op // what the commit hook saw published under the index name
		st.SetCommitHook(func(mut store.Mutation) {
			if mut.Model == "m$OWLPRIME" {
				ops = append(ops, mut.Op)
			}
		})
		removedSince := true // no index yet: the first run cannot extend
		for step := 0; step < 6; step++ {
			var batch []rdf.Triple
			for i := 0; i < 1+r.Intn(6); i++ {
				batch = append(batch, genAnyRule(r))
			}
			if cur := st.Triples("m"); len(cur) > 0 {
				batch = append(batch, cur[r.Intn(len(cur))]) // a duplicate add
			}
			if derived := st.Triples("m$OWLPRIME"); len(derived) > 0 && r.Intn(2) == 0 {
				batch = append(batch, derived[r.Intn(len(derived))]) // assert what was derived
			}
			added := st.AddAll("m", batch)
			if cur := st.Triples("m"); r.Intn(4) == 0 {
				removedSince = st.Remove("m", cur[r.Intn(len(cur))]) || removedSince
			}

			ops = ops[:0]
			wasCurrent := st.Current("m", "m$OWLPRIME")
			idx, err := Materialize(st, "m")
			if err != nil {
				t.Fatal(err)
			}
			snap := st.Snapshot("m", idx)
			if !st.Current("m", idx) || snap.Cut(idx).Basis != snap.Cut("m").Gen {
				t.Fatalf("seed %d step %d: index basis %d, base generation %d", seed, step, snap.Cut(idx).Basis, snap.Cut("m").Gen)
			}
			switch {
			case wasCurrent:
				if len(ops) != 0 || added != 0 {
					t.Fatalf("seed %d step %d: current index republished (%v) after %d adds", seed, step, ops, added)
				}
			case removedSince:
				if len(ops) != 1 || ops[0] != store.OpInstall {
					t.Fatalf("seed %d step %d: want one from-scratch install after a Remove, hook saw %v", seed, step, ops)
				}
			default:
				if len(ops) != 1 || ops[0] != store.OpExtend {
					t.Fatalf("seed %d step %d: want one extension, hook saw %v", seed, step, ops)
				}
			}
			removedSince = false

			got, want := st.Triples(idx), fromScratch(t, st.Triples("m"))
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: extended index has %d triples, from-scratch %d\n got %v\nwant %v",
					seed, step, len(got), len(want), got, want)
			}
			for i := range got { // both sorted by Store.Triples
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d: extended index differs at %d: %v, from-scratch %v", seed, step, i, got[i], want[i])
				}
			}
			for _, tr := range got {
				if st.Contains("m", tr) {
					t.Fatalf("seed %d step %d: asserted triple %v left in the index", seed, step, tr)
				}
			}
		}
	}
}

// Concurrent callers that find the index stale wait for one run.
func TestMaterializeSingleFlight(t *testing.T) {
	st := store.New()
	st.AddAll("m", []rdf.Triple{
		rdf.T(iri("x"), rdf.Type, iri("A")),
		rdf.T(iri("A"), rdf.SubClassOf, iri("B")),
	})
	installs := 0
	st.SetCommitHook(func(mut store.Mutation) {
		if mut.Op == store.OpInstall || mut.Op == store.OpExtend {
			installs++ // under the store's write lock
		}
	})
	errs := make(chan error, 8)
	for i := 0; i < cap(errs); i++ {
		go func() {
			_, err := Materialize(st, "m")
			errs <- err
		}()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	st.SetCommitHook(nil)
	if installs != 1 {
		t.Errorf("%d concurrent callers published %d indexes, want 1", cap(errs), installs)
	}
}

// A traced caller that finds the index stale gets a "reindex" span that
// says how much the run started from and how much it derived; one that
// finds it current gets no span.
func TestReindexSpanLabels(t *testing.T) {
	st := store.New()
	st.AddAll("m", []rdf.Triple{
		rdf.T(iri("A"), rdf.SubClassOf, iri("B")),
		rdf.T(iri("x"), rdf.Type, iri("A")),
	})
	if _, err := Materialize(st, "m"); err != nil {
		t.Fatal(err)
	}
	st.Add("m", rdf.T(iri("y"), rdf.Type, iri("A")))

	tracer := obs.NewTracer(4)
	spansOf := func() []obs.SpanData {
		root := tracer.Start("request")
		for i := 0; i < 2; i++ { // the second call finds the index current
			if _, err := MaterializeCtx(obs.ContextWithSpan(context.Background(), root), st, "m"); err != nil {
				t.Fatal(err)
			}
		}
		root.Finish()
		tr, ok := tracer.Get(root.TraceID())
		if !ok {
			t.Fatal("trace not published")
		}
		return tr.Spans
	}
	spans := spansOf()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v, want the root and one reindex child", spans)
	}
	labels := map[string]string{}
	for _, sp := range spans {
		if sp.Name == "reindex" {
			for _, l := range sp.Labels {
				labels[l.Key] = l.Value
			}
		}
	}
	if labels["delta"] != "1" || labels["derived"] != "1" {
		t.Errorf("reindex span labels = %v, want delta=1 derived=1", labels)
	}
	if spans := spansOf(); len(spans) != 1 {
		t.Errorf("a current index still produced spans: %+v", spans)
	}
}

// Loads keep arriving while runs are in flight: every run works on its
// own cut, none of the writers' triples is lost between two runs, and the
// index that results is the one a from-scratch derivation builds.
func TestMaterializeUnderConcurrentLoads(t *testing.T) {
	st := store.New()
	st.AddAll("m", []rdf.Triple{rdf.T(iri("A"), rdf.SubClassOf, iri("B"))})
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			st.AddAll("m", []rdf.Triple{genAnyRule(r), genAnyRule(r)})
		}
	}()
	errs := make(chan error, 2)
	for g := 0; g < cap(errs); g++ {
		go func() {
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				if _, err := Materialize(st, "m"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	idx, err := Materialize(st, "m")
	if err != nil {
		t.Fatal(err)
	}
	got, want := st.Triples(idx), fromScratch(t, st.Triples("m"))
	if len(got) != len(want) {
		t.Fatalf("index maintained under load has %d triples, from-scratch %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("index maintained under load differs at %d: %v, from-scratch %v", i, got[i], want[i])
		}
	}
}

// The triples an extension installs are kept by the index's change feed
// until it is cut back. They must be an array of their own, exactly as
// long as the extension: a window of the derivation queue would keep the
// whole queue live, the delta the run started from included.
func TestExtensionKeepsExactWindow(t *testing.T) {
	st := store.New()
	var chain []rdf.Triple
	for i := 0; i < 9; i++ {
		chain = append(chain, rdf.T(iri("A"+strconv.Itoa(i)), rdf.SubClassOf, iri("A"+strconv.Itoa(i+1))))
	}
	st.AddAll("m", chain)
	if _, err := Materialize(st, "m"); err != nil {
		t.Fatal(err)
	}
	var delta []rdf.Triple
	for i := 0; i < 100; i++ {
		delta = append(delta, rdf.T(iri("x"+strconv.Itoa(i)), rdf.Type, iri("A0")))
	}
	st.AddAll("m", delta)
	var kept []store.ETriple
	st.SetCommitHook(func(mut store.Mutation) {
		if mut.Op == store.OpExtend {
			kept = mut.Triples
		}
	})
	if _, err := Materialize(st, "m"); err != nil {
		t.Fatal(err)
	}
	st.SetCommitHook(nil)
	if want := 9 * len(delta); len(kept) != want {
		t.Fatalf("extension installed %d triples, want %d", len(kept), want)
	}
	if cap(kept) != len(kept) {
		t.Errorf("extension window has cap %d for %d triples: it shares the derivation queue's array", cap(kept), len(kept))
	}
}
