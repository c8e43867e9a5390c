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
	"slices"
	"sort"
	"strings"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/sparql"
	"mdw/internal/store"
	"mdw/internal/textindex"
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
	// keys is the text index kept over exactly src, as the warehouse
	// passes it to a run (sparql.RunOptions.Keys); nil when there is none.
	keys sparql.KeyIndex
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

// textFixture: 96 named objects, every eighth spelled with ſ or the
// Kelvin sign (which Fold and Go's (?i) both fold to ASCII), İ or ı
// (which only Fold does) or an underscore, and a name held only as an
// rdfs:label, in a base model
// and its OWLPRIME index, with the text index a warehouse keeps over that
// view. view picks what is queried: "indexed" is that view, whose runs
// get the index; "facts" the base model alone and "stale" the view after
// a later load, both of which the kept index is not over, so their runs
// get none. Most scans the generator draws here are over names.
func textFixture(rng *rand.Rand, view string) diffFixture {
	st := store.New()
	special := []string{"ſk_id", "SK_ID", "\u212aey_Id", "İd_flag", "ıd_flag", "kelvin_\u212a",
		"customer_id", "v_customer", "a_b", "name1", "NAME1_x", "id"}
	var subjects []string
	var ts []rdf.Triple
	for i := 0; i < 96; i++ {
		s, name := fmt.Sprintf("http://d/n%d", i), fmt.Sprintf("acct_%d", i)
		if i%8 == 0 {
			name = special[i/8]
		}
		subjects = append(subjects, s)
		ts = append(ts, rdf.T(rdf.IRI(s), rdf.HasName, rdf.Literal(name)),
			rdf.T(rdf.IRI(s), rdf.Type, rdf.IRI(fmt.Sprintf("http://d/C%d", rng.Intn(2)))))
	}
	ts = append(ts, rdf.T(rdf.IRI("http://d/C0"), rdf.SubClassOf, rdf.IRI("http://d/C1")),
		rdf.T(rdf.IRI("http://d/C0"), rdf.Label, rdf.Literal("label_only_Id")))
	st.AddAll("DWH", ts)
	tix := textindex.NewManager(textindex.Config{})
	entailed, err := reason.View(st, true, "DWH")
	if err != nil {
		panic(err)
	}
	tix.For("DWH", entailed, st)
	src := entailed
	switch view {
	case "facts":
		src, err = reason.View(st, false, "DWH")
	case "stale":
		st.Add("DWH", rdf.T(rdf.IRI("http://d/late"), rdf.HasName, rdf.Literal("late_id")))
		src, err = reason.View(st, true, "DWH")
	}
	if err != nil {
		panic(err)
	}
	fx := diffFixture{
		name: "text/" + view, src: src, dict: st.Dict(),
		subjects: subjects,
		preds:    []string{rdf.MDWHasName, rdf.MDWHasName, rdf.MDWHasName, rdf.RDFSLabel, rdf.RDFType},
		objects:  []string{"http://d/C0", "http://d/C1", subjects[0]},
		st:       st, mutModel: "DWH",
	}
	if ix := tix.Kept("DWH", src.Version()); ix != nil {
		fx.keys = ix
	}
	return fx
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

// keyFilter is one FILTER of keyFilterQuery: its text, whether the
// morsel scan may test it once per walked key, and whether the plan moves
// it in front of the other key-only filters — the first name match of a
// scan whose walked keys are objects, which a KeyIndex may answer.
type keyFilter struct {
	text          string
	perKey, front bool
}

// keyFilterQuery builds a single-pattern scan whose walked index key is
// bound to ?k (object, subject or predicate, by which positions are
// constants) with one or two FILTERs: key-only ones, which read ?k alone,
// and the near misses that must stay per triple — a filter that also
// reads the pattern's other variable and FILTER EXISTS. One scan in six
// repeats its variable (?k <p> ?k), which keeps every filter per triple.
// Some key-only filters are name matches (names): on the text fixtures
// they meet the names spelled with ſ, K, İ and ı, and they include an
// underscore, a literal with no letter or digit, and a letter so common
// that the KeyIndex's guard gives up. It returns the query text, its filters in
// text order, and whether the pattern repeats its variable.
func (g *queryGen) keyFilterQuery() (string, []keyFilter, bool) {
	pick := func(pool []string) string { return "<" + pool[g.rng.Intn(len(pool))] + ">" }
	p := pick(g.fx.preds)
	shape := min(g.rng.Intn(6), 4)
	pattern := [...]string{
		"?x " + p + " ?k",
		"?k ?x " + pick(g.fx.objects),
		pick(g.fx.subjects) + " ?k ?x",
		"?k ?x ?y",
		"?k " + p + " ?k",
	}[shape]
	repeated := strings.Count(pattern, "?k") == 2
	names := []string{
		`regex(?k, "NAME1", "i")`,
		`regex(?k, "id", "i")`,
		`regex(?k, "K_I", "i")`,
		`regex(?k, "Id")`,
		`CONTAINS(?k, "_id")`,
		`CONTAINS(?k, "İd")`,
		`regex(?k, "_", "i")`,
		`regex(?k, "a", "i")`,
	}
	keyOnly := []string{
		`regex(STR(?k), "1")`,
		`regex(?k, "^name[02]$")`,
		`CONTAINS(STR(?k), "s")`,
		`STRSTARTS(STR(?k), "http://d/o")`,
		`?k = ` + pick(g.fx.objects),
		`?k != ` + pick(g.fx.objects),
		`?k = "name1"`,
		`?k != "name2"`,
		`BOUND(?k)`,
		`?k < 3`, // an error on every IRI and string literal: rejects
		`!(?k < 3)`,
	}
	nearMiss := []string{
		`?k != ?x`,
		`regex(STR(?k), "1") || ?x = ` + pick(g.fx.objects),
		`EXISTS { ?k ` + p + ` ?z }`,
	}
	var fs []keyFilter
	named := false // a name match came already
	for n := 1 + g.rng.Intn(2); len(fs) < n; {
		if repeated || g.rng.Intn(3) > 0 { // ?k <p> ?k has no ?x to miss with
			i := g.rng.Intn(len(keyOnly) + len(names))
			if i < len(keyOnly) {
				fs = append(fs, keyFilter{text: keyOnly[i], perKey: !repeated})
				continue
			}
			fs = append(fs, keyFilter{text: names[i-len(keyOnly)], perKey: !repeated, front: shape == 0 && !named})
			named = true
		} else {
			fs = append(fs, keyFilter{text: nearMiss[g.rng.Intn(len(nearMiss))]})
		}
	}
	var b strings.Builder
	for _, f := range fs {
		if strings.HasPrefix(f.text, "EXISTS") {
			fmt.Fprintf(&b, "FILTER %s ", f.text)
		} else {
			fmt.Fprintf(&b, "FILTER (%s) ", f.text)
		}
	}
	sel := [...]string{"SELECT * WHERE", "SELECT DISTINCT ?k WHERE", "SELECT (COUNT(?k) AS ?n) WHERE"}[g.rng.Intn(3)]
	return fmt.Sprintf("%s { %s . %s}", sel, pattern, b.String()), fs, repeated
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
	fixtures := []diffFixture{simpleFixture(rng), entailedFixture(rng),
		textFixture(rng, "indexed"), textFixture(rng, "facts"), textFixture(rng, "stale")}
	const perFixture = 150 // per fixture, each query at every parallelism level
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
		differentialKeyFilters(t, rng, fx)
	}
}

// differentialKeyFilters is TestDifferentialParallel's sweep over key-only
// FILTERs and their near misses (keyFilterQuery): at 1, 2 and 4 workers
// the rows are the naive evaluator's, a morsel plan marks exactly the
// key-only filters per key, and, where those come first in the text and
// no name match moves ahead of one (so the per-key test reorders
// nothing), the analyzed operator counts are the serial plan's — a
// rejected key's triples are counted though never visited. Runs pass the
// fixture's KeyIndex, if it has one; where the index answered, the
// analyzed counts are also those of the same plan run without it.
func differentialKeyFilters(t *testing.T, rng *rand.Rand, fx diffFixture) {
	const queries = 150
	perKeyPlans, indexed := 0, 0
	for i := 0; i < queries; i++ {
		g := &queryGen{rng: rng, fx: fx}
		text, filters, repeated := g.keyFilterQuery()
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("[%s key #%d] generator emitted unparsable query %q: %v", fx.name, i, text, err)
		}
		naive, err := q.ExecNaive(fx.src, fx.dict)
		if err != nil {
			t.Fatalf("[%s key #%d] naive exec failed for %q: %v", fx.name, i, text, err)
		}
		want, keyed, keyFirst := rowKeys(naive), 0, true
		for j, f := range filters {
			if f.perKey {
				keyed++
				keyFirst = keyFirst && keyed == j+1 && (!f.front || j == 0)
			}
		}
		serial, serialStats, err := q.PlanOpts(fx.src, fx.dict, sparql.ParOptions{MaxWorkers: 1}).Run(context.Background(), sparql.RunOptions{Analyze: true})
		if err != nil || !sameMultiset(rowKeys(serial), want) {
			t.Fatalf("[%s key #%d] serial run of %q: err %v, rows differ from the naive evaluator's", fx.name, i, text, err)
		}
		for _, workers := range []int{1, 2, 4} {
			p := q.PlanOpts(fx.src, fx.dict, sparql.ParOptions{MaxWorkers: workers, MorselSize: 4, SerialThreshold: 1})
			plan := p.String()
			if !strings.Contains(plan, "PARALLEL morsel scan") {
				continue // estimated below one row, or a path drives the scan
			}
			if got := strings.Count(plan, "(pushed down, per key"); got != keyed {
				t.Errorf("[%s key #%d w=%d] %d filters per key, want %d (repeated variable: %v):\n%s",
					fx.name, i, workers, got, keyed, repeated, plan)
			}
			if keyed > 0 {
				perKeyPlans++
			}
			for _, analyze := range []bool{false, true} {
				res, stats, err := p.Run(context.Background(), sparql.RunOptions{Analyze: analyze, Keys: fx.keys})
				if err != nil {
					t.Fatalf("[%s key #%d w=%d] exec failed for %q: %v", fx.name, i, workers, text, err)
				}
				if analyze && strings.Contains(stats.String(), ", text index)") {
					indexed++
					_, plain, err := p.Run(context.Background(), sparql.RunOptions{Analyze: true})
					if a, b := opCounts(stats.Root), opCounts(plain.Root); err != nil || !slices.Equal(a, b) {
						t.Errorf("[%s key #%d w=%d] analyzed counts with the index differ from those without on %q (err %v):\nindex %v\nplain %v",
							fx.name, i, workers, text, err, a, b)
					}
				}
				if got := rowKeys(res); !sameMultiset(got, want) {
					t.Errorf("[%s key #%d w=%d analyze=%v] divergence on %q:\nparallel (%d): %v\nnaive    (%d): %v",
						fx.name, i, workers, analyze, text, len(got), got, len(want), want)
				}
				if analyze && keyFirst && stats.Strategy == "morsel" {
					if a, b := opCounts(stats.Root), opCounts(serialStats.Root); !slices.Equal(a, b) {
						t.Errorf("[%s key #%d w=%d] analyzed counts differ from the serial plan's on %q:\nmorsel %v\nserial %v\n%s",
							fx.name, i, workers, text, a, b, stats)
					}
				}
			}
		}
	}
	if perKeyPlans < queries/4 {
		t.Errorf("[%s] only %d of %d key-filter queries ran a per-key test", fx.name, perKeyPlans, 3*queries)
	}
	if (fx.keys != nil) != (indexed > 0) {
		t.Errorf("[%s] the key index answered %d analyzed runs; fixture has one: %v", fx.name, indexed, fx.keys != nil)
	}
}

// opCounts lists an operator tree's loops and rows, depth first.
func opCounts(op *sparql.OpStats) []string {
	out := []string{fmt.Sprintf("%s %s: loops=%d rows=%d", op.Op, op.Detail, op.Loops, op.Rows)}
	for _, c := range op.Children {
		out = append(out, opCounts(c)...)
	}
	return out
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
