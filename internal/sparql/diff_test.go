package sparql_test

// Differential correctness harness for the cost-based planner: seeded
// random queries run through both the planned evaluator (Query.Run)
// and the retained naive reference evaluator (Query.ExecNaive), and
// their solution multisets must agree. The naive evaluator performs no
// join reordering, no filter pushdown, and no early termination, so any
// planner bug that changes semantics — an unsafe pushdown, a broken
// join order, an overeager LIMIT cut — shows up as a divergence.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/sparql"
	"mdw/internal/store"
)

// diffFixture is one data set both evaluators run against.
type diffFixture struct {
	name string
	src  store.Source
	dict *store.Dict
	// Pools the generator draws from. Constants overlap with the data so
	// joins and filters actually select.
	subjects, preds, objects []string
	// The owning store and a member model of src, retained so sweeps can
	// interleave mutations (the results-cache differential does).
	st       *store.Store
	mutModel string
}

// simpleFixture: one model of dense random triples over small pools, so
// multi-pattern joins produce non-trivial intermediate results.
func simpleFixture(rng *rand.Rand) diffFixture {
	st := store.New()
	var subjects, preds, objects []string
	for i := 0; i < 8; i++ {
		subjects = append(subjects, fmt.Sprintf("http://d/s%d", i))
	}
	for i := 0; i < 4; i++ {
		preds = append(preds, fmt.Sprintf("http://d/p%d", i))
	}
	// Objects include the subjects so paths can chain.
	objects = append(objects, subjects...)
	for i := 0; i < 4; i++ {
		objects = append(objects, fmt.Sprintf("http://d/o%d", i))
	}
	var ts []rdf.Triple
	for i := 0; i < 120; i++ {
		ts = append(ts, rdf.T(
			rdf.IRI(subjects[rng.Intn(len(subjects))]),
			rdf.IRI(preds[rng.Intn(len(preds))]),
			rdf.IRI(objects[rng.Intn(len(objects))])))
	}
	st.AddAll("m", ts)
	return diffFixture{
		name: "simple", src: st.ViewOf("m"), dict: st.Dict(),
		subjects: subjects, preds: preds, objects: objects,
		st: st, mutModel: "m",
	}
}

// entailedFixture: a base model plus its OWLPRIME index model, queried
// through a two-model union view — the configuration Listings 1 and 2
// use. Inferred rdf:type and rdfs:subClassOf triples are part of the
// solution space.
func entailedFixture(rng *rand.Rand) diffFixture {
	st := store.New()
	class := func(i int) string { return fmt.Sprintf("http://d/C%d", i) }
	inst := func(i int) string { return fmt.Sprintf("http://d/i%d", i) }
	var ts []rdf.Triple
	// A subclass chain C0 ⊂ C1 ⊂ C2 ⊂ C3 plus a side branch.
	for i := 0; i < 3; i++ {
		ts = append(ts, rdf.T(rdf.IRI(class(i)), rdf.SubClassOf, rdf.IRI(class(i+1))))
	}
	ts = append(ts, rdf.T(rdf.IRI(class(4)), rdf.SubClassOf, rdf.IRI(class(2))))
	var subjects, objects []string
	for i := 0; i < 8; i++ {
		s := inst(i)
		subjects = append(subjects, s)
		ts = append(ts, rdf.T(rdf.IRI(s), rdf.Type, rdf.IRI(class(rng.Intn(5)))))
		ts = append(ts, rdf.T(rdf.IRI(s), rdf.HasName, rdf.Literal(fmt.Sprintf("name%d", i%3))))
		if i > 0 {
			ts = append(ts, rdf.T(rdf.IRI(inst(i-1)), rdf.IsMappedTo, rdf.IRI(s)))
		}
	}
	for i := 0; i < 5; i++ {
		objects = append(objects, class(i))
	}
	st.AddAll("DWH", ts)
	if _, err := reason.Materialize(st, "DWH"); err != nil {
		panic(err)
	}
	idx := reason.IndexModelName("DWH", reason.RulebaseOWLPrime)
	return diffFixture{
		name:     "entailed",
		src:      st.ViewOf("DWH", idx),
		dict:     st.Dict(),
		subjects: subjects,
		preds: []string{
			rdf.RDFType, rdf.RDFSSubClassOf, rdf.MDWIsMappedTo, rdf.MDWHasName,
		},
		objects:  objects,
		st:       st,
		mutModel: "DWH",
	}
}

// queryGen builds random query strings from a fixture's vocabulary.
type queryGen struct {
	rng *rand.Rand
	fx  diffFixture
	// paths makes pattern() occasionally emit <p>* / <p>+ property paths,
	// exercising the parallel frontier BFS in the parallel sweep.
	paths bool
}

var diffVars = []string{"a", "b", "c", "d"}

func (g *queryGen) variable() string { return diffVars[g.rng.Intn(len(diffVars))] }

func (g *queryGen) pattern() string {
	s := "?" + g.variable()
	if g.rng.Intn(5) == 0 {
		s = "<" + g.fx.subjects[g.rng.Intn(len(g.fx.subjects))] + ">"
	}
	p := "<" + g.fx.preds[g.rng.Intn(len(g.fx.preds))] + ">"
	if g.paths && g.rng.Intn(4) == 0 {
		if g.rng.Intn(2) == 0 {
			p += "*"
		} else {
			p += "+"
		}
	} else if g.rng.Intn(10) == 0 {
		p = "?" + g.variable()
	}
	o := "?" + g.variable()
	if g.rng.Intn(4) == 0 {
		o = "<" + g.fx.objects[g.rng.Intn(len(g.fx.objects))] + ">"
	}
	return s + " " + p + " " + o + " ."
}

func (g *queryGen) bgp(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(g.pattern())
		b.WriteString(" ")
	}
	return b.String()
}

func (g *queryGen) filter() string {
	v := "?" + g.variable()
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("FILTER (%s = <%s>) ", v, g.fx.objects[g.rng.Intn(len(g.fx.objects))])
	case 1:
		return fmt.Sprintf("FILTER (%s != <%s>) ", v, g.fx.objects[g.rng.Intn(len(g.fx.objects))])
	case 2:
		return fmt.Sprintf("FILTER (BOUND(%s)) ", v)
	default:
		w := "?" + g.variable()
		return fmt.Sprintf("FILTER (%s != %s) ", v, w)
	}
}

// where builds a group: a BGP optionally decorated with UNION, OPTIONAL,
// and FILTER elements.
func (g *queryGen) where() string {
	var b strings.Builder
	if g.rng.Intn(4) == 0 {
		fmt.Fprintf(&b, "{ %s} UNION { %s} ", g.bgp(1+g.rng.Intn(2)), g.bgp(1+g.rng.Intn(2)))
	} else {
		b.WriteString(g.bgp(1 + g.rng.Intn(3)))
	}
	if g.rng.Intn(3) == 0 {
		fmt.Fprintf(&b, "OPTIONAL { %s} ", g.bgp(1+g.rng.Intn(2)))
	}
	if g.rng.Intn(3) == 0 {
		b.WriteString(g.filter())
	}
	return b.String()
}

// query returns the full query text and, when a streamed LIMIT was
// attached, the same query without the LIMIT for subset checking.
func (g *queryGen) query() (full, unlimited string) {
	where := g.where()
	switch g.rng.Intn(10) {
	case 0:
		q := "ASK { " + where + "}"
		return q, ""
	case 1:
		v := g.variable()
		q := fmt.Sprintf("SELECT (COUNT(?%s) AS ?n) WHERE { %s}", v, where)
		return q, ""
	}
	sel := "*"
	if g.rng.Intn(2) == 0 {
		n := 1 + g.rng.Intn(2)
		var vs []string
		for i := 0; i < n; i++ {
			vs = append(vs, "?"+diffVars[i])
		}
		sel = strings.Join(vs, " ")
	}
	distinct := ""
	if g.rng.Intn(3) == 0 {
		distinct = "DISTINCT "
	}
	q := fmt.Sprintf("SELECT %s%s WHERE { %s}", distinct, sel, where)
	if sel != "*" && g.rng.Intn(4) == 0 {
		limit := 1 + g.rng.Intn(5)
		return fmt.Sprintf("%s LIMIT %d", q, limit), q
	}
	return q, ""
}

// rowKeys canonicalizes a result into a sorted multiset of row strings.
func rowKeys(res *sparql.Result) []string {
	keys := make([]string, 0, res.Len())
	for _, row := range res.Bindings() {
		vars := make([]string, 0, len(row))
		for v := range row {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var b strings.Builder
		for _, v := range vars {
			fmt.Fprintf(&b, "%s=%s;", v, row[v].String())
		}
		keys = append(keys, b.String())
	}
	sort.Strings(keys)
	return keys
}

func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subsetOf reports whether multiset a is contained in multiset b.
func subsetOf(a, b []string) bool {
	counts := map[string]int{}
	for _, k := range b {
		counts[k]++
	}
	for _, k := range a {
		if counts[k] == 0 {
			return false
		}
		counts[k]--
	}
	return true
}

// TestDifferentialParallel is the parallel twin of the harness below:
// the same class of random queries (plus property paths), executed
// through plans forced to fan out at several worker counts, must agree
// with the naive reference at every level. The thresholds are floored to
// 1 so even these tiny fixtures take the morsel code path (UNION roots
// and property paths run serially at every level); run it with -race to
// make it a data-race hunt as well as a semantics check.
func TestDifferentialParallel(t *testing.T) {
	levels := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		levels = append(levels, n)
	}
	rng := rand.New(rand.NewSource(77))
	fixtures := []diffFixture{simpleFixture(rng), entailedFixture(rng)}
	const perFixture = 150 // 300 queries, each at every parallelism level
	for _, fx := range fixtures {
		g := &queryGen{rng: rng, fx: fx, paths: true}
		for i := 0; i < perFixture; i++ {
			full, unlimited := g.query()
			q, err := sparql.Parse(full)
			if err != nil {
				t.Fatalf("[%s #%d] generator emitted unparsable query %q: %v", fx.name, i, full, err)
			}
			naive, err := q.ExecNaive(fx.src, fx.dict)
			if err != nil {
				t.Fatalf("[%s #%d] naive exec failed for %q: %v", fx.name, i, full, err)
			}
			// For LIMIT-without-ORDER-BY, precompute the full solution
			// multiset once: any right-sized subset of it is correct.
			var fk []string
			if unlimited != "" {
				uq, err := sparql.Parse(unlimited)
				if err != nil {
					t.Fatalf("[%s #%d] unlimited variant unparsable: %v", fx.name, i, err)
				}
				fullRes, err := uq.ExecNaive(fx.src, fx.dict)
				if err != nil {
					t.Fatalf("[%s #%d] unlimited naive exec failed: %v", fx.name, i, err)
				}
				fk = rowKeys(fullRes)
			}
			nk := rowKeys(naive)
			for _, workers := range levels {
				p := q.PlanOpts(fx.src, fx.dict, sparql.ParOptions{
					MaxWorkers:      workers,
					MorselSize:      4,
					SerialThreshold: 1,
				})
				res, _, err := p.Run(context.Background(), sparql.RunOptions{})
				if err != nil {
					t.Fatalf("[%s #%d w=%d] parallel exec failed for %q: %v", fx.name, i, workers, full, err)
				}
				if q.Kind == sparql.AskQuery {
					if res.Ask != naive.Ask {
						t.Errorf("[%s #%d w=%d] ASK divergence on %q: parallel=%v naive=%v",
							fx.name, i, workers, full, res.Ask, naive.Ask)
					}
					continue
				}
				pk := rowKeys(res)
				if unlimited == "" {
					if !sameMultiset(pk, nk) {
						t.Errorf("[%s #%d w=%d] divergence on %q:\nparallel (%d): %v\nnaive    (%d): %v",
							fx.name, i, workers, full, len(pk), pk, len(nk), nk)
					}
					continue
				}
				want := len(fk)
				if q.Limit < want {
					want = q.Limit
				}
				if len(pk) != want {
					t.Errorf("[%s #%d w=%d] LIMIT row count wrong on %q: got %d want %d",
						fx.name, i, workers, full, len(pk), want)
				}
				if !subsetOf(pk, fk) {
					t.Errorf("[%s #%d w=%d] LIMIT rows not drawn from full solutions on %q",
						fx.name, i, workers, full)
				}
			}
		}
	}
}

func TestDifferentialPlannerVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fixtures := []diffFixture{simpleFixture(rng), entailedFixture(rng)}
	const perFixture = 150 // 300 total, spec floor is 200
	for _, fx := range fixtures {
		g := &queryGen{rng: rng, fx: fx}
		for i := 0; i < perFixture; i++ {
			full, unlimited := g.query()
			q, err := sparql.Parse(full)
			if err != nil {
				t.Fatalf("[%s #%d] generator emitted unparsable query %q: %v", fx.name, i, full, err)
			}
			planned, _, err := q.Run(context.Background(), fx.src, fx.dict, sparql.RunOptions{})
			if err != nil {
				t.Fatalf("[%s #%d] planned exec failed for %q: %v", fx.name, i, full, err)
			}
			naive, err := q.ExecNaive(fx.src, fx.dict)
			if err != nil {
				t.Fatalf("[%s #%d] naive exec failed for %q: %v", fx.name, i, full, err)
			}
			if q.Kind == sparql.AskQuery {
				if planned.Ask != naive.Ask {
					t.Errorf("[%s #%d] ASK divergence on %q: planned=%v naive=%v",
						fx.name, i, full, planned.Ask, naive.Ask)
				}
				continue
			}
			pk, nk := rowKeys(planned), rowKeys(naive)
			if unlimited == "" {
				if !sameMultiset(pk, nk) {
					t.Errorf("[%s #%d] divergence on %q:\nplanned (%d): %v\nnaive   (%d): %v",
						fx.name, i, full, len(pk), pk, len(nk), nk)
				}
				continue
			}
			// LIMIT without ORDER BY: any subset of the full solution
			// multiset of the right size is a correct answer, and the two
			// evaluators may legitimately pick different rows.
			uq, err := sparql.Parse(unlimited)
			if err != nil {
				t.Fatalf("[%s #%d] unlimited variant unparsable: %v", fx.name, i, err)
			}
			fullRes, err := uq.ExecNaive(fx.src, fx.dict)
			if err != nil {
				t.Fatalf("[%s #%d] unlimited naive exec failed: %v", fx.name, i, err)
			}
			fk := rowKeys(fullRes)
			want := len(fk)
			if q.Limit < want {
				want = q.Limit
			}
			if len(pk) != want || len(nk) != want {
				t.Errorf("[%s #%d] LIMIT row count wrong on %q: planned=%d naive=%d want=%d",
					fx.name, i, full, len(pk), len(nk), want)
			}
			if !subsetOf(pk, fk) {
				t.Errorf("[%s #%d] planned LIMIT rows not drawn from full solutions on %q", fx.name, i, full)
			}
		}
	}
}
