package sparql

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// randomEdgeGraph builds a random directed graph over n nodes with the
// given number of edges under one predicate.
func randomEdgeGraph(r *rand.Rand, n, edges int) (*store.Store, []rdf.Term) {
	st := store.New()
	nodes := make([]rdf.Term, n)
	for i := range nodes {
		nodes[i] = rdf.IRI(fmt.Sprintf("http://t/n%d", i))
	}
	pred := rdf.IRI("http://t/edge")
	for i := 0; i < edges; i++ {
		st.Add("m", rdf.T(nodes[r.Intn(n)], pred, nodes[r.Intn(n)]))
	}
	// Guarantee every node exists in the graph (self-describing label) so
	// the closure semantics over "nodes in the graph" are well-defined.
	for _, nd := range nodes {
		st.Add("m", rdf.T(nd, rdf.Label, rdf.Literal(rdf.LocalName(nd.Value))))
	}
	return st, nodes
}

// referenceReach computes reachability via plain BFS over the stored
// edges.
func referenceReach(st *store.Store, start rdf.Term, includeSelf bool) map[rdf.Term]bool {
	adj := map[rdf.Term][]rdf.Term{}
	st.ForEach("m", rdf.Term{}, rdf.IRI("http://t/edge"), rdf.Term{}, func(t rdf.Triple) bool {
		adj[t.S] = append(adj[t.S], t.O)
		return true
	})
	out := map[rdf.Term]bool{}
	if includeSelf {
		out[start] = true
	}
	frontier := []rdf.Term{start}
	visited := map[rdf.Term]bool{start: true}
	for len(frontier) > 0 {
		var next []rdf.Term
		for _, n := range frontier {
			for _, m := range adj[n] {
				if !visited[m] {
					visited[m] = true
					out[m] = true
					next = append(next, m)
				}
			}
		}
		frontier = next
	}
	return out
}

// Property: the '+' closure through the SPARQL engine equals BFS
// reachability, and '*' additionally includes the start node — even on
// random graphs with cycles.
func TestPathClosureMatchesBFSProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		st, nodes := randomEdgeGraph(r, n, r.Intn(3*n))
		start := nodes[r.Intn(n)]

		for _, tc := range []struct {
			op          string
			includeSelf bool
		}{{"+", false}, {"*", true}} {
			q, err := Parse(fmt.Sprintf(
				`SELECT ?x WHERE { <%s> <http://t/edge>%s ?x }`, start.Value, tc.op))
			if err != nil {
				return false
			}
			res, err := run(q, st.ViewOf("m"), st.Dict())
			if err != nil {
				return false
			}
			got := map[rdf.Term]bool{}
			for _, row := range res.Bindings() {
				got[row["x"]] = true
			}
			want := referenceReach(st, start, tc.includeSelf)
			// '+' may also revisit the start through a cycle, which BFS
			// reachability covers (start reachable from itself).
			if len(got) != len(want) {
				return false
			}
			for k := range want {
				if !got[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: forward and inverse closures agree — x reaches y via p+ iff
// y reaches x via ^p+ ... iff y is a solution of { x p+ ?y } and x of
// { ?x p+ y }.
func TestPathForwardBackwardAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		st, nodes := randomEdgeGraph(r, n, r.Intn(3*n))
		x := nodes[r.Intn(n)]
		y := nodes[r.Intn(n)]

		ask := func(query string) bool {
			q, err := Parse(query)
			if err != nil {
				return false
			}
			res, err := run(q, st.ViewOf("m"), st.Dict())
			if err != nil {
				return false
			}
			return res.Ask
		}
		forward := ask(fmt.Sprintf(`ASK { <%s> <http://t/edge>+ <%s> }`, x.Value, y.Value))
		backward := ask(fmt.Sprintf(`ASK { <%s> ^<http://t/edge>+ <%s> }`, y.Value, x.Value))
		return forward == backward
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a sequence path p/p matches exactly the two-hop pairs.
func TestPathSequenceEqualsTwoHopsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		st, nodes := randomEdgeGraph(r, n, r.Intn(2*n))
		start := nodes[r.Intn(n)]

		q := MustParse(fmt.Sprintf(
			`SELECT DISTINCT ?x WHERE { <%s> <http://t/edge>/<http://t/edge> ?x }`, start.Value))
		res, err := run(q, st.ViewOf("m"), st.Dict())
		if err != nil {
			return false
		}
		got := map[rdf.Term]bool{}
		for _, row := range res.Bindings() {
			got[row["x"]] = true
		}
		// Reference: join the edge relation with itself.
		want := map[rdf.Term]bool{}
		pred := rdf.IRI("http://t/edge")
		for _, mid := range st.Match("m", start, pred, rdf.Term{}) {
			for _, end := range st.Match("m", mid.O, pred, rdf.Term{}) {
				want[end.O] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
