package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"mdw/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.IRI("http://t/" + s) }

func TestDictInternIdempotent(t *testing.T) {
	d := NewDict()
	a := d.Intern(iri("a"))
	b := d.Intern(iri("b"))
	if a == b {
		t.Fatal("distinct terms share an ID")
	}
	if got := d.Intern(iri("a")); got != a {
		t.Errorf("re-intern gave %d, want %d", got, a)
	}
	if d.Term(a) != iri("a") {
		t.Errorf("Term(%d) = %v", a, d.Term(a))
	}
	if n := d.Len(); n != 2 || len(d.Since(1)) != 1 {
		t.Errorf("%d terms interned, want 2", n)
	}
	if _, ok := d.Lookup(iri("zzz")); ok {
		t.Error("Lookup of unknown term succeeded")
	}
}

func TestDictNeverAssignsWildcard(t *testing.T) {
	d := NewDict()
	for i := 0; i < 100; i++ {
		if id := d.Intern(iri(fmt.Sprintf("n%d", i))); id == Wildcard {
			t.Fatal("dictionary assigned the wildcard ID")
		}
	}
}

// TestDictTermWhileInterning: readers decode the IDs a writer publishes
// while it interns across several chunk boundaries — Term takes no lock —
// and every term reads back exactly. The check is the race detector's.
func TestDictTermWhileInterning(t *testing.T) {
	d := NewDict()
	const n = 4<<chunkBits + 100
	name := func(id ID) rdf.Term { return iri(fmt.Sprintf("n%d", id)) }
	var published atomic.Uint32
	stop := make(chan struct{})
	bad := make(chan string, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The freshest IDs: those in the chunk being filled.
				hi := ID(published.Load())
				for id := hi; id > 0 && id+32 > hi; id-- {
					if got := d.Term(id); got != name(id) {
						bad <- fmt.Sprintf("Term(%d) = %v, want %v", id, got, name(id))
						return
					}
				}
			}
		}()
	}
	for id := ID(1); id <= n; id++ {
		if got := d.Intern(name(id)); got != id {
			t.Errorf("Intern assigned %d, want %d", got, id)
			break
		}
		published.Store(uint32(id))
	}
	close(stop)
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Error(msg)
	}
	for id := ID(1); id <= n; id++ {
		if got := d.Term(id); got != name(id) {
			t.Fatalf("after interning, Term(%d) = %v", id, got)
		}
	}
}

func TestDictConcurrent(t *testing.T) {
	d := NewDict()
	var wg sync.WaitGroup
	ids := make([][]ID, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]ID, 100)
			for i := 0; i < 100; i++ {
				ids[g][i] = d.Intern(iri(fmt.Sprintf("n%d", i)))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range ids[g] {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got different ID for n%d", g, i)
			}
		}
	}
}

func TestModelAddContainsRemove(t *testing.T) {
	m := NewModel("m")
	tr := ETriple{1, 2, 3}
	if !m.Add(tr) {
		t.Fatal("first Add returned false")
	}
	if m.Add(tr) {
		t.Error("duplicate Add returned true")
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
	if !m.Contains(tr) {
		t.Error("Contains = false")
	}
	if !m.Remove(tr) {
		t.Error("Remove returned false")
	}
	if m.Remove(tr) {
		t.Error("second Remove returned true")
	}
	if m.Len() != 0 || m.Contains(tr) {
		t.Error("model not empty after Remove")
	}
}

func TestModelPatternAccessPaths(t *testing.T) {
	m := NewModel("m")
	// Build a small star: s1 -p-> o1,o2 ; s2 -p-> o1 ; s1 -q-> o3.
	data := []ETriple{{1, 10, 100}, {1, 10, 101}, {2, 10, 100}, {1, 11, 102}}
	for _, tr := range data {
		m.Add(tr)
	}
	tests := []struct {
		s, p, o ID
		want    int
	}{
		{1, 10, 100, 1},
		{1, 10, Wildcard, 2},
		{Wildcard, 10, 100, 2},
		{1, Wildcard, 100, 1},
		{1, Wildcard, Wildcard, 3},
		{Wildcard, 10, Wildcard, 3},
		{Wildcard, Wildcard, 100, 2},
		{Wildcard, Wildcard, Wildcard, 4},
		{9, Wildcard, Wildcard, 0},
	}
	for _, tc := range tests {
		n := 0
		m.ForEach(tc.s, tc.p, tc.o, func(tr ETriple) bool {
			// Every reported triple must match the pattern and exist.
			if tc.s != Wildcard && tr.S != tc.s || tc.p != Wildcard && tr.P != tc.p || tc.o != Wildcard && tr.O != tc.o {
				t.Errorf("pattern (%d,%d,%d) returned non-matching %v", tc.s, tc.p, tc.o, tr)
			}
			if !m.Contains(tr) {
				t.Errorf("reported triple %v not in model", tr)
			}
			n++
			return true
		})
		if n != tc.want {
			t.Errorf("pattern (%d,%d,%d): got %d matches, want %d", tc.s, tc.p, tc.o, n, tc.want)
		}
		if c := m.Count(tc.s, tc.p, tc.o); c != tc.want {
			t.Errorf("Count(%d,%d,%d) = %d, want %d", tc.s, tc.p, tc.o, c, tc.want)
		}
	}
}

func TestModelEarlyStop(t *testing.T) {
	m := NewModel("m")
	for i := ID(1); i <= 10; i++ {
		m.Add(ETriple{i, 1, 1})
	}
	n := 0
	m.ForEach(Wildcard, Wildcard, Wildcard, func(ETriple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestModelSubjectsObjects(t *testing.T) {
	m := NewModel("m")
	m.Add(ETriple{1, 10, 100})
	m.Add(ETriple{2, 10, 100})
	m.Add(ETriple{1, 10, 101})
	if got := m.Subjects(10, 100); len(got) != 2 {
		t.Errorf("Subjects = %v", got)
	}
	if got := m.Objects(1, 10); len(got) != 2 {
		t.Errorf("Objects = %v", got)
	}
}

func TestModelClone(t *testing.T) {
	m := NewModel("m")
	m.Add(ETriple{1, 2, 3})
	c := m.Clone("c")
	c.Add(ETriple{4, 5, 6})
	if m.Len() != 1 {
		t.Error("clone mutation leaked into original")
	}
	if c.Len() != 2 {
		t.Error("clone missing triples")
	}
	m.Remove(ETriple{1, 2, 3})
	if !c.Contains(ETriple{1, 2, 3}) {
		t.Error("original mutation leaked into clone")
	}
}

func TestStoreBasics(t *testing.T) {
	s := New()
	tr := rdf.T(iri("s"), iri("p"), iri("o"))
	if !s.Add("m", tr) {
		t.Fatal("Add returned false")
	}
	if s.Add("m", tr) {
		t.Error("duplicate Add returned true")
	}
	if !s.Contains("m", tr) {
		t.Error("Contains = false")
	}
	if s.Contains("other", tr) {
		t.Error("triple leaked across models")
	}
	if s.Len("m") != 1 {
		t.Errorf("Len = %d", s.Len("m"))
	}
	if !s.Remove("m", tr) || s.Len("m") != 0 {
		t.Error("Remove failed")
	}
	if s.Remove("m", rdf.T(iri("u"), iri("p"), iri("o"))) {
		t.Error("Remove of unknown-term triple returned true")
	}
}

func TestStoreAddAllAndMatch(t *testing.T) {
	s := New()
	ts := []rdf.Triple{
		rdf.T(iri("s1"), iri("p"), iri("o1")),
		rdf.T(iri("s1"), iri("p"), iri("o2")),
		rdf.T(iri("s2"), iri("p"), iri("o1")),
		rdf.T(iri("s1"), iri("p"), iri("o1")), // dup
	}
	if n := s.AddAll("m", ts); n != 3 {
		t.Errorf("AddAll added %d, want 3", n)
	}
	got := s.Match("m", iri("s1"), rdf.Term{}, rdf.Term{})
	if len(got) != 2 {
		t.Errorf("Match = %v", got)
	}
	if n := s.CountPattern("m", rdf.Term{}, iri("p"), rdf.Term{}); n != 3 {
		t.Errorf("CountPattern = %d", n)
	}
	// Unknown constant in pattern: no matches, no panic.
	if got := s.Match("m", iri("nope"), rdf.Term{}, rdf.Term{}); got != nil {
		t.Errorf("Match with unknown term = %v", got)
	}
}

func TestStoreModelManagement(t *testing.T) {
	s := New()
	s.Add("b", rdf.T(iri("s"), iri("p"), iri("o")))
	s.Add("a", rdf.T(iri("s"), iri("p"), iri("o")))
	if names := s.ModelNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("ModelNames = %v", names)
	}
	if !s.HasModel("a") || s.HasModel("zz") {
		t.Error("HasModel wrong")
	}
	if !s.DropModel("a") || s.DropModel("a") {
		t.Error("DropModel wrong")
	}
}

func TestStoreCloneModel(t *testing.T) {
	s := New()
	s.Add("src", rdf.T(iri("s"), iri("p"), iri("o")))
	if err := s.CloneModel("src", "dst"); err != nil {
		t.Fatal(err)
	}
	if s.Len("dst") != 1 {
		t.Error("clone missing triples")
	}
	if err := s.CloneModel("src", "dst"); err == nil {
		t.Error("clone onto existing model should fail")
	}
	if err := s.CloneModel("missing", "x"); err == nil {
		t.Error("clone of missing model should fail")
	}
}

func TestStoreStats(t *testing.T) {
	s := New()
	s.Add("m", rdf.T(iri("s1"), iri("p"), iri("o1")))
	s.Add("m", rdf.T(iri("s1"), iri("q"), iri("o2")))
	st := s.ModelStats("m")
	if st.Triples != 2 || st.Subjects != 1 || st.Predicates != 2 || st.Objects != 2 {
		t.Errorf("stats = %+v", st)
	}
	if s.ModelStats("none").Triples != 0 {
		t.Error("stats of missing model should be zero")
	}
}

func TestViewUnionDedup(t *testing.T) {
	s := New()
	shared := rdf.T(iri("s"), iri("p"), iri("o"))
	s.Add("base", shared)
	s.Add("base", rdf.T(iri("s"), iri("p"), iri("o2")))
	s.Add("idx", shared) // duplicate across models
	s.Add("idx", rdf.T(iri("s"), iri("p"), iri("o3")))
	v := s.ViewOf("base", "idx")
	if v.Len() != 3 {
		t.Errorf("view Len = %d, want 3 (dedup across models)", v.Len())
	}
	et, _ := s.encodeLookup(shared)
	if !v.Contains(et) {
		t.Error("view Contains = false")
	}
	// Missing models are skipped silently.
	v2 := s.ViewOf("base", "no-such-model")
	if v2.Len() != 2 {
		t.Errorf("view over missing model Len = %d", v2.Len())
	}
}

func TestViewSubjectsObjects(t *testing.T) {
	s := New()
	s.Add("a", rdf.T(iri("s1"), iri("p"), iri("o")))
	s.Add("b", rdf.T(iri("s2"), iri("p"), iri("o")))
	s.Add("b", rdf.T(iri("s1"), iri("p"), iri("o"))) // dup of model a content? no: same triple exists only in b
	v := s.ViewOf("a", "b")
	d := s.Dict()
	p, _ := d.Lookup(iri("p"))
	o, _ := d.Lookup(iri("o"))
	if got := v.Subjects(p, o); len(got) != 2 {
		t.Errorf("view Subjects = %v", got)
	}
	s1, _ := d.Lookup(iri("s1"))
	if got := v.Objects(s1, p); len(got) != 1 {
		t.Errorf("view Objects = %v", got)
	}
	if v.Count(Wildcard, p, Wildcard) != 2 {
		t.Errorf("view Count = %d", v.Count(Wildcard, p, Wildcard))
	}
}

// TestViewPredStats pins the combination rule for planner statistics
// over a multi-model view: triples and distinct objects are summed
// (upper bounds, like EstCount), but distinct subjects take the max
// across members — derived-index members re-state the base model's
// subjects, and summing them would inflate the denominator of the
// planner's per-subject fanout estimate.
func TestViewPredStats(t *testing.T) {
	s := New()
	// base: s1-p->{o1,o2}, s2-p->o1. idx re-states both subjects (the
	// entailment-index overlap case) with one new derived object.
	s.Add("base", rdf.T(iri("s1"), iri("p"), iri("o1")))
	s.Add("base", rdf.T(iri("s1"), iri("p"), iri("o2")))
	s.Add("base", rdf.T(iri("s2"), iri("p"), iri("o1")))
	s.Add("idx", rdf.T(iri("s1"), iri("p"), iri("o3")))
	s.Add("idx", rdf.T(iri("s2"), iri("p"), iri("o3")))
	v := s.ViewOf("base", "idx")
	p, _ := s.Dict().Lookup(iri("p"))
	ps := v.PredStats(p)
	if ps.Triples != 5 {
		t.Errorf("Triples = %d, want 5 (sum of members)", ps.Triples)
	}
	if ps.DistinctSubjects != 2 {
		t.Errorf("DistinctSubjects = %d, want 2 (max, not sum 4)", ps.DistinctSubjects)
	}
	if ps.DistinctObjects != 3 {
		t.Errorf("DistinctObjects = %d, want 3 (sum of {2,1})", ps.DistinctObjects)
	}
	// A predicate absent everywhere yields zeros.
	q, _ := s.Dict().Lookup(iri("o1"))
	if z := v.PredStats(q); z != (PredStats{}) {
		t.Errorf("PredStats of non-predicate = %+v", z)
	}
}

// Property: a model behaves as a set of triples — after adding any
// multiset, Len equals the number of distinct triples and every added
// triple is contained.
func TestModelSetSemanticsProperty(t *testing.T) {
	f := func(raw []struct{ S, P, O uint8 }) bool {
		m := NewModel("m")
		set := map[ETriple]bool{}
		for _, r := range raw {
			tr := ETriple{ID(r.S) + 1, ID(r.P) + 1, ID(r.O) + 1}
			m.Add(tr)
			set[tr] = true
		}
		if m.Len() != len(set) {
			return false
		}
		for tr := range set {
			if !m.Contains(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: removing everything added leaves an empty model with empty
// indexes (no dangling map entries observable through iteration).
func TestModelRemoveAllProperty(t *testing.T) {
	f := func(raw []struct{ S, P, O uint8 }) bool {
		m := NewModel("m")
		set := map[ETriple]bool{}
		for _, r := range raw {
			tr := ETriple{ID(r.S) + 1, ID(r.P) + 1, ID(r.O) + 1}
			m.Add(tr)
			set[tr] = true
		}
		for tr := range set {
			if !m.Remove(tr) {
				return false
			}
		}
		if m.Len() != 0 {
			return false
		}
		n := 0
		m.ForEach(Wildcard, Wildcard, Wildcard, func(ETriple) bool { n++; return true })
		return n == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreConcurrentReadersAndWriters(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Add("m", rdf.T(iri(fmt.Sprintf("s%d-%d", g, i)), iri("p"), iri("o")))
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.CountPattern("m", rdf.Term{}, iri("p"), rdf.Term{})
			}
		}()
	}
	wg.Wait()
	if s.Len("m") != 800 {
		t.Errorf("Len = %d, want 800", s.Len("m"))
	}
}
