// Package mdw holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation narrative. The per-experiment
// index in DESIGN.md maps each benchmark to the artifact it reproduces;
// EXPERIMENTS.md records paper-vs-measured results.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package mdw

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mdw/internal/audit"
	"mdw/internal/dbpedia"
	"mdw/internal/history"
	"mdw/internal/impact"
	"mdw/internal/landscape"
	"mdw/internal/lineage"
	"mdw/internal/metamodel"
	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/relstore"
	"mdw/internal/rescache"
	"mdw/internal/schemalearn"
	"mdw/internal/search"
	"mdw/internal/semmatch"
	"mdw/internal/sparql"
	"mdw/internal/staging"
	"mdw/internal/store"
	"mdw/internal/textindex"
)

// ---------------------------------------------------------------------
// Shared fixtures (built once, reused across benchmarks).

type fixture struct {
	l     *landscape.Landscape
	st    *store.Store
	stats staging.LoadStats
}

var (
	smallOnce sync.Once
	smallFix  *fixture

	figOnce sync.Once
	figFix  *fixture

	paperOnce sync.Once
	paperFix  *fixture
)

func smallLandscape(b *testing.B) *fixture {
	b.Helper()
	smallOnce.Do(func() {
		l := landscape.Generate(landscape.Small())
		st := store.New()
		stats, err := staging.Pipeline{Store: st, Model: "DWH_CURR"}.Run(l.Exports, l.Ontology.Triples())
		if err != nil {
			panic(err)
		}
		st.AddAll("DWH_CURR", l.ExtraTriples())
		if _, err := reason.Materialize(st, "DWH_CURR"); err != nil {
			panic(err)
		}
		smallFix = &fixture{l: l, st: st, stats: stats}
	})
	return smallFix
}

func paperLandscape(b *testing.B) *fixture {
	b.Helper()
	paperOnce.Do(func() {
		l := landscape.Generate(landscape.PaperScale())
		st := store.New()
		stats, err := staging.Pipeline{Store: st, Model: "DWH_CURR"}.Run(l.Exports, l.Ontology.Triples())
		if err != nil {
			panic(err)
		}
		st.AddAll("DWH_CURR", l.ExtraTriples())
		if _, err := reason.Materialize(st, "DWH_CURR"); err != nil {
			panic(err)
		}
		paperFix = &fixture{l: l, st: st, stats: stats}
	})
	return paperFix
}

func figure3Fixture(b *testing.B) *fixture {
	b.Helper()
	figOnce.Do(func() {
		st := store.New()
		stats, err := staging.Pipeline{Store: st, Model: "DWH_CURR"}.Run(
			[]*staging.Export{landscape.Figure3Export()}, ontology.DWH().Triples())
		if err != nil {
			panic(err)
		}
		figFix = &fixture{st: st, stats: stats}
	})
	return figFix
}

func pathTerm(path string) rdf.Term {
	return staging.InstanceIRI(strings.Split(path, "/")...)
}

// ---------------------------------------------------------------------
// E1 — Table I: census of node types × edge categories.

func BenchmarkTable1Census(b *testing.B) {
	f := smallLandscape(b)
	var cs *metamodel.Census
	for i := 0; i < b.N; i++ {
		cs, _ = metamodel.TakeCensus(f.st.ViewOf("DWH_CURR"), f.st.Dict())
	}
	b.ReportMetric(float64(cs.NodeTotal()), "nodes")
	b.ReportMetric(float64(cs.Total), "edges")
}

// ---------------------------------------------------------------------
// E3 — Figures 2/3: the customer-identification snippet, built and
// traced end to end.

func BenchmarkFigure3Snippet(b *testing.B) {
	target := pathTerm(landscape.Figure3Paths()[3])
	for i := 0; i < b.N; i++ {
		st := store.New()
		if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(
			[]*staging.Export{landscape.Figure3Export()}, ontology.DWH().Triples()); err != nil {
			b.Fatal(err)
		}
		g, err := lineage.New(st, "m").Trace(target, lineage.Backward, lineage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(g.Nodes) != 4 {
			b.Fatalf("nodes = %d", len(g.Nodes))
		}
	}
}

// ---------------------------------------------------------------------
// E4 — Figure 4: the full load pipeline (XML → RDF → staging → bulk
// load → OWLPRIME index). The "paper" sub-benchmark runs at the
// published graph scale (~130k nodes, ~1M edges including the index).

func BenchmarkFigure4Pipeline(b *testing.B) {
	run := func(b *testing.B, cfg landscape.Config) {
		var stats staging.LoadStats
		for i := 0; i < b.N; i++ {
			l := landscape.Generate(cfg)
			st := store.New()
			var err error
			stats, err = staging.Pipeline{Store: st, Model: "DWH_CURR"}.Run(l.Exports, l.Ontology.Triples())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(stats.Loaded), "base-triples")
		b.ReportMetric(float64(stats.Derived), "derived-triples")
	}
	b.Run("small", func(b *testing.B) { run(b, landscape.Small()) })
	b.Run("paper", func(b *testing.B) { run(b, landscape.PaperScale()) })
}

// ---------------------------------------------------------------------
// E5 — Figures 5/6 and Listing 1: the search facility.

func BenchmarkFigure6Search(b *testing.B) {
	f := smallLandscape(b)
	th := dbpedia.FromTriples(dbpedia.Banking())
	// One manager shared by every case, so the inverted index is built
	// once; a warm-up search triggers that build before the timer runs.
	mgr := textindex.NewManager(textindex.Config{})

	cases := []struct {
		name string
		svc  *search.Service
		opt  search.Options
	}{
		{"plain", search.New(f.st, "DWH_CURR", nil), search.Options{}},
		{"filtered", search.New(f.st, "DWH_CURR", nil), search.Options{
			FilterClasses: []string{rdf.DMNS + "Attribute"},
		}},
		{"semantic", search.New(f.st, "DWH_CURR", th), search.Options{Semantic: true}},
		{"descriptions", search.New(f.st, "DWH_CURR", nil), search.Options{MatchDescriptions: true}},
	}
	for _, c := range cases {
		svc := c.svc.WithIndexManager(mgr)
		for _, mode := range []string{"indexed", "cold", "scan"} {
			opt := c.opt
			opt.ForceScan = mode == "scan"
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				searchLoop(b, svc, "customer", opt, mode == "cold")
			})
		}
	}
}

// searchLoop times b.N searches for term after one untimed warm-up,
// which builds the indexes and fills the results cache. Each timed
// search is then a cache hit (ForceScan ones never are) unless cold
// purges the cache before every search, so that each one computes its
// answer through the index.
func searchLoop(b *testing.B, svc *search.Service, term string, opt search.Options, cold bool) {
	if _, err := svc.Search(term, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		if cold {
			rescache.Default().Purge()
		}
		res, err := svc.Search(term, opt)
		if err != nil {
			b.Fatal(err)
		}
		hits = res.Instances
	}
	b.ReportMetric(float64(hits), "hits")
}

// BenchmarkSearchIndexed isolates the tentpole comparison: the inverted
// full-text index against the retained literal-scan oracle, at the small
// scale and at the paper's published graph scale; "indexed" times
// results-cache hits, "cold" the index path computing every answer.
func BenchmarkSearchIndexed(b *testing.B) {
	scales := []struct {
		name string
		fix  func(*testing.B) *fixture
	}{
		{"small", smallLandscape},
		{"paper", paperLandscape},
	}
	for _, sc := range scales {
		f := sc.fix(b)
		svc := search.New(f.st, "DWH_CURR", nil)
		for _, mode := range []string{"indexed", "cold", "scan"} {
			opt := search.Options{ForceScan: mode == "scan"}
			b.Run(sc.name+"/"+mode, func(b *testing.B) {
				searchLoop(b, svc, "customer", opt, mode == "cold")
			})
		}
	}
}

// BenchmarkListing1 runs the paper's Listing 1 SEM_MATCH call verbatim.
func BenchmarkListing1(b *testing.B) {
	f := figure3Fixture(b)
	call := `SEM_MATCH(
		{?object rdf:type ?c .
		 ?c rdfs:label ?class .
		 ?object dm:hasName ?term},
		SEM_MODELS('DWH_CURR'),
		SEM_RULEBASES('OWLPRIME'),
		SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'),
		            SEM_ALIAS('owl', 'http://www.w3.org/2002/07/owl#')),
		null)`
	req, err := semmatch.ParseCall(call)
	if err != nil {
		b.Fatal(err)
	}
	req.Filter = `regex(?term, "customer", "i")`
	req.Select = []string{"class", "object"}
	req.GroupBy = []string{"class", "object"}
	var rows int
	for i := 0; i < b.N; i++ {
		res, _, err := req.Run(context.Background(), f.st, sparql.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Len()
	}
	b.ReportMetric(float64(rows), "rows")
}

// ---------------------------------------------------------------------
// E6 — Figures 7/8 and Listing 2: lineage.

func BenchmarkFigure8Lineage(b *testing.B) {
	f := smallLandscape(b)
	svc := lineage.New(f.st, "DWH_CURR")
	target := pathTerm(f.l.MartColumns[0])

	b.Run("trace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := svc.Trace(target, lineage.Backward, lineage.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sources", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := svc.Sources(target, lineage.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("impact", func(b *testing.B) {
		origin := pathTerm(f.l.Chains[0][0])
		for i := 0; i < b.N; i++ {
			if _, err := svc.Impact(origin, lineage.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rollup", func(b *testing.B) {
		g, err := svc.Trace(target, lineage.Backward, lineage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := svc.Rollup(g, lineage.LevelApplication); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The (isMappedTo)* property path through the SPARQL engine.
	b.Run("sparql-path", func(b *testing.B) {
		idx := reason.IndexModelName("DWH_CURR", reason.RulebaseOWLPrime)
		src := f.st.ViewOf("DWH_CURR", idx)
		q := sparql.MustParse(`PREFIX dt: <` + rdf.DTNS + `>
			SELECT ?s WHERE { ?s dt:isMappedTo* <` + target.Value + `> }`)
		for i := 0; i < b.N; i++ {
			if _, _, err := q.Run(context.Background(), src, f.st.Dict(), sparql.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkListing2 runs the paper's Listing 2 lineage SEM_MATCH call.
func BenchmarkListing2(b *testing.B) {
	f := figure3Fixture(b)
	call := `SEM_MATCH(
		{?source_id dt:isMappedTo ?target_id .
		 ?target_id rdf:type dm:Application1_View_Column .
		 ?target_id dm:hasName ?target_name},
		SEM_MODELS('DWH_CURR'),
		SEM_RULEBASES('OWLPRIME'),
		SEM_ALIASES(
			SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'),
			SEM_ALIAS('dt', 'http://www.credit-suisse.com/dwh/mdm/data_transfer#')),
		null)`
	req, err := semmatch.ParseCall(call)
	if err != nil {
		b.Fatal(err)
	}
	req.Select = []string{"source_id", "target_id", "target_name"}
	for i := 0; i < b.N; i++ {
		res, _, err := req.Run(context.Background(), f.st, sparql.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() != 1 {
			b.Fatalf("rows = %d", res.Len())
		}
	}
}

// ---------------------------------------------------------------------
// E7 — Section III.A: historization across release cycles with growth.

func BenchmarkHistorization(b *testing.B) {
	base := time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)
	var versions []history.Version
	for i := 0; i < b.N; i++ {
		l := landscape.Generate(landscape.Small())
		st := store.New()
		if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
			b.Fatal(err)
		}
		h := history.NewHistorian(st, "m")
		// Eight releases a year; each adds ~3% new meta-data, matching
		// the paper's 20-30% annual growth.
		for r := 0; r < 8; r++ {
			grow := st.Len("m") * 3 / 100
			var ts []rdf.Triple
			for k := 0; k < grow; k++ {
				iri := rdf.IRI(fmt.Sprintf("%sgen/v%d/i%d", rdf.InstNS, r, k))
				ts = append(ts, rdf.T(iri, rdf.Type, rdf.IRI(rdf.DMNS+"Table")))
			}
			st.AddAll("m", ts)
			v, err := h.Snapshot(fmt.Sprintf("2009-R%d", r+1), base.AddDate(0, 0, r*45))
			if err != nil {
				b.Fatal(err)
			}
			versions = append(versions, v)
		}
		// As-of access and a release diff, the typical audit operations.
		if _, err := h.AsOf(base.AddDate(0, 6, 0)); err != nil {
			b.Fatal(err)
		}
		d, err := h.DiffVersions(1, 8)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Added) == 0 {
			b.Fatal("no growth recorded")
		}
	}
	if len(versions) >= 8 {
		first, last := versions[0], versions[7]
		b.ReportMetric(float64(last.Triples-first.Triples)/float64(first.Triples)*100, "growth-%/yr")
	}
}

// ---------------------------------------------------------------------
// E8 — Section III.B: the OWLPRIME index adds derived edges and changes
// what queries can see.

func BenchmarkOWLPrimeIndex(b *testing.B) {
	f := smallLandscape(b)

	b.Run("materialize", func(b *testing.B) {
		var derived int
		for i := 0; i < b.N; i++ {
			st := store.New()
			l := f.l
			if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
				b.Fatal(err)
			}
			derived = st.Len("m$OWLPRIME")
		}
		b.ReportMetric(float64(derived), "derived-triples")
	})

	q := sparql.MustParse(`PREFIX dm: <` + rdf.DMNS + `>
		SELECT (COUNT(?x) AS ?n) WHERE { ?x a dm:Attribute }`)
	idx := reason.IndexModelName("DWH_CURR", reason.RulebaseOWLPrime)

	b.Run("query-with-index", func(b *testing.B) {
		src := f.st.ViewOf("DWH_CURR", idx)
		var n string
		for i := 0; i < b.N; i++ {
			res, _, err := q.Run(context.Background(), src, f.st.Dict(), sparql.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			n = res.Row(0)["n"].Value
		}
		if n == "0" {
			b.Fatal("index query found nothing")
		}
	})
	b.Run("query-facts-only", func(b *testing.B) {
		src := f.st.ViewOf("DWH_CURR")
		for i := 0; i < b.N; i++ {
			res, _, err := q.Run(context.Background(), src, f.st.Dict(), sparql.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Row(0)["n"].Value != "0" {
				b.Fatal("facts-only query saw inferred types")
			}
		}
	})
}

// ---------------------------------------------------------------------
// E18 — Figure 4: a release is loaded by additions, and the OWLPRIME
// index is extended from what was added instead of derived again. Both
// cases are one algorithm; "scratch" is its worst case (no index, the
// delta is the whole model) and "extend-3pct" the release the mdwbench
// release_cycle workload loads (landscape.Evolve at 3% growth).
// Run with -benchtime 5x: every iteration sets up a model of its own.

func BenchmarkMaterialize(b *testing.B) {
	f := paperLandscape(b)
	ctx := context.Background()
	next := landscape.Generate(landscape.PaperScale())
	if _, err := landscape.Evolve(next, 2, 0.03); err != nil {
		b.Fatal(err)
	}
	var release []rdf.Triple // AddAll keeps only what release 2 added
	for _, e := range next.Exports {
		ts, err := staging.Transform(e)
		if err != nil {
			b.Fatal(err)
		}
		release = append(release, ts...)
	}
	models := 0
	run := func(b *testing.B, extend bool) {
		var delta, derived int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			models++
			m := fmt.Sprintf("materialize-%d", models)
			if err := f.st.CloneModel("DWH_CURR", m); err != nil {
				b.Fatal(err)
			}
			idx := reason.IndexModelName(m, reason.RulebaseOWLPrime)
			delta = f.st.Len(m)
			if extend {
				if _, err := reason.MaterializeCtx(ctx, f.st, m); err != nil {
					b.Fatal(err)
				}
				delta = f.st.AddAll(m, release)
			}
			before := f.st.Len(idx)
			b.StartTimer()
			if _, err := reason.MaterializeCtx(ctx, f.st, m); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if !f.st.Current(m, idx) {
				b.Fatal("index not current after Materialize")
			}
			derived = f.st.Len(idx) - before
			f.st.DropModel(m)
			f.st.DropModel(idx)
		}
		b.ReportMetric(float64(delta), "delta-triples")
		b.ReportMetric(float64(derived), "derived-triples")
	}
	b.Run("scratch", func(b *testing.B) { run(b, false) })
	b.Run("extend-3pct", func(b *testing.B) { run(b, true) })
}

// ---------------------------------------------------------------------
// E9 — Section V: semantic (synonym-expanded) search recall vs. plain
// keyword search.

func BenchmarkSynonymSearch(b *testing.B) {
	f := smallLandscape(b)
	th := dbpedia.FromTriples(dbpedia.Banking())
	mgr := textindex.NewManager(textindex.Config{})
	plain := search.New(f.st, "DWH_CURR", nil).WithIndexManager(mgr)
	semantic := search.New(f.st, "DWH_CURR", th).WithIndexManager(mgr)

	cases := []struct {
		name string
		svc  *search.Service
		opt  search.Options
	}{
		{"plain", plain, search.Options{}},
		{"semantic", semantic, search.Options{Semantic: true}},
	}
	for _, c := range cases {
		for _, mode := range []string{"indexed", "scan"} {
			opt := c.opt
			opt.ForceScan = mode == "scan"
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				// Cold: the cost of expansion is in computing the answer.
				searchLoop(b, c.svc, "client", opt, true)
			})
		}
	}
}

// ---------------------------------------------------------------------
// E10 — Section III: graph flexibility vs. the textbook relational
// schema when a new meta-data kind arrives.

func BenchmarkGraphVsRelational(b *testing.B) {
	l := landscape.Generate(landscape.Small())
	var plain []*staging.Export
	var concepts []*staging.Export
	for _, e := range l.Exports {
		stripped := *e
		stripped.Concepts = nil
		plain = append(plain, &stripped)
		if len(e.Concepts) > 0 {
			concepts = append(concepts, &staging.Export{Concepts: e.Concepts})
		}
	}

	b.Run("graph-load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := store.New()
			if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(plain, l.Ontology.Triples()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("relational-load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := relstore.NewTextbook()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.LoadExports(plain); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("graph-new-kind", func(b *testing.B) {
		st := store.New()
		if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(plain, l.Ontology.Triples()); err != nil {
			b.Fatal(err)
		}
		tbl := staging.NewTable()
		for _, e := range concepts {
			if err := tbl.InsertExport(e); err != nil {
				b.Fatal(err)
			}
		}
		newTriples := tbl.Triples()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.AddAll("m", newTriples) // idempotent after the first pass
		}
		b.ReportMetric(0, "ddl-statements")
	})
	b.Run("relational-new-kind", func(b *testing.B) {
		var ddl int
		for i := 0; i < b.N; i++ {
			c, err := relstore.NewTextbook()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.LoadExports(plain); err != nil {
				b.Fatal(err)
			}
			n, err := c.MigrateForConcepts()
			if err != nil {
				b.Fatal(err)
			}
			if err := c.LoadConcepts(concepts); err != nil {
				b.Fatal(err)
			}
			ddl = n
		}
		b.ReportMetric(float64(ddl), "ddl-statements")
	})
}

// ---------------------------------------------------------------------
// E11 — Section V: lineage path explosion across stages, with and
// without rule-condition filters.

func BenchmarkLineagePathExplosion(b *testing.B) {
	const width = 3
	build := func(stages int) (*store.Store, rdf.Term) {
		st := store.New()
		node := func(s, i int) rdf.Term {
			return rdf.IRI(fmt.Sprintf("%sexp/s%d_n%d", rdf.InstNS, s, i))
		}
		rules := []string{"country = 'CH'", "amount > 0", ""}
		for s := 0; s+1 < stages; s++ {
			for i := 0; i < width; i++ {
				for j := 0; j < width; j++ {
					from, to := node(s, i), node(s+1, j)
					st.Add("m", rdf.T(from, rdf.IsMappedTo, to))
					m := rdf.IRI(fmt.Sprintf("%sexp/map_s%d_%d_%d", rdf.InstNS, s, i, j))
					st.Add("m", rdf.T(m, rdf.IRI(rdf.MDWMapsFrom), from))
					st.Add("m", rdf.T(m, rdf.IRI(rdf.MDWMapsTo), to))
					st.Add("m", rdf.T(m, rdf.IRI(rdf.MDWRuleCond), rdf.Literal(rules[(i+j)%len(rules)])))
				}
			}
		}
		return st, node(stages-1, 0)
	}
	for _, stages := range []int{3, 5, 7} {
		st, target := build(stages)
		svc := lineage.New(st, "m")
		b.Run(fmt.Sprintf("stages=%d/unfiltered", stages), func(b *testing.B) {
			var paths int
			for i := 0; i < b.N; i++ {
				n, err := svc.CountPaths(target, lineage.Backward, lineage.Options{})
				if err != nil {
					b.Fatal(err)
				}
				paths = n
			}
			b.ReportMetric(float64(paths), "paths")
		})
		b.Run(fmt.Sprintf("stages=%d/rule-filtered", stages), func(b *testing.B) {
			filter := func(rule string) bool { return strings.Contains(rule, "CH") }
			var paths int
			for i := 0; i < b.N; i++ {
				n, err := svc.CountPaths(target, lineage.Backward, lineage.Options{RuleFilter: filter})
				if err != nil {
					b.Fatal(err)
				}
				paths = n
			}
			b.ReportMetric(float64(paths), "paths")
		})
	}
}

// ---------------------------------------------------------------------
// E12 — Section VII future work: learn a relational schema from the
// evolved graph and measure how much of it the schema captures.

func BenchmarkSchemaLearning(b *testing.B) {
	f := smallLandscape(b)
	src := f.st.ViewOf("DWH_CURR")
	var schema *schemalearn.Schema
	b.Run("learn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			schema = schemalearn.Learn(src, f.st.Dict(), schemalearn.DefaultOptions())
		}
		b.ReportMetric(float64(len(schema.Tables)), "tables")
		b.ReportMetric(schema.Coverage()*100, "coverage-%")
	})
	b.Run("migrate", func(b *testing.B) {
		schema = schemalearn.Learn(src, f.st.Dict(), schemalearn.DefaultOptions())
		var rows, uncovered int
		for i := 0; i < b.N; i++ {
			cat := relstore.New()
			if err := schema.Apply(cat); err != nil {
				b.Fatal(err)
			}
			var err error
			rows, uncovered, err = schemalearn.Migrate(src, f.st.Dict(), schema, cat)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(rows), "rows")
		b.ReportMetric(float64(uncovered), "uncovered-triples")
	})
}

// ---------------------------------------------------------------------
// E13 — the roles use case (Section II): access audits, direct and
// lineage-extended.

func BenchmarkAccessAudit(b *testing.B) {
	f := smallLandscape(b)
	svc := audit.New(f.st, "DWH_CURR")
	target := pathTerm(f.l.MartColumns[0])
	b.Run("direct", func(b *testing.B) {
		var users int
		for i := 0; i < b.N; i++ {
			rep, err := svc.WhoCanAccess(target, false)
			if err != nil {
				b.Fatal(err)
			}
			users = len(rep.Users())
		}
		b.ReportMetric(float64(users), "users")
	})
	b.Run("with-lineage", func(b *testing.B) {
		var users int
		for i := 0; i < b.N; i++ {
			rep, err := svc.WhoCanAccess(target, true)
			if err != nil {
				b.Fatal(err)
			}
			users = len(rep.Users())
		}
		b.ReportMetric(float64(users), "users")
	})
}

// ---------------------------------------------------------------------
// E14 — change management: release diff → forward lineage → affected
// applications and reports.

func BenchmarkReleaseImpact(b *testing.B) {
	// Build two releases with organic evolution between them.
	l := landscape.Generate(landscape.Small())
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
		b.Fatal(err)
	}
	h := history.NewHistorian(st, "m")
	if _, err := h.Snapshot("R1", time.Date(2009, 1, 15, 0, 0, 0, 0, time.UTC)); err != nil {
		b.Fatal(err)
	}
	if _, err := landscape.Evolve(l, 2, 0.05); err != nil {
		b.Fatal(err)
	}
	if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := h.Snapshot("R2", time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		b.Fatal(err)
	}
	a := impact.New(st, h)
	var changed, apps int
	for i := 0; i < b.N; i++ {
		an, err := a.Analyze(1, 2)
		if err != nil {
			b.Fatal(err)
		}
		changed, apps = len(an.Changed), len(an.Applications)
	}
	b.ReportMetric(float64(changed), "changed-items")
	b.ReportMetric(float64(apps), "affected-apps")
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks: the primitives everything above rests on.

// Ablation: the paper's base/index model separation makes every indexed
// query a two-model union view with cross-model deduplication. This
// measures that design's overhead against a hypothetical single merged
// model.
func BenchmarkViewUnionAblation(b *testing.B) {
	f := smallLandscape(b)
	idx := reason.IndexModelName("DWH_CURR", reason.RulebaseOWLPrime)

	// Build the merged alternative once.
	merged := store.New()
	f.st.ForEach("DWH_CURR", rdf.Term{}, rdf.Term{}, rdf.Term{}, func(t rdf.Triple) bool {
		merged.Add("all", t)
		return true
	})
	f.st.ForEach(idx, rdf.Term{}, rdf.Term{}, rdf.Term{}, func(t rdf.Triple) bool {
		merged.Add("all", t)
		return true
	})

	q := sparql.MustParse(`PREFIX dm: <` + rdf.DMNS + `>
		SELECT (COUNT(?x) AS ?n) WHERE { ?x a dm:Attribute . ?x dm:hasName ?name }`)

	b.Run("two-model-view", func(b *testing.B) {
		src := f.st.ViewOf("DWH_CURR", idx)
		for i := 0; i < b.N; i++ {
			if _, _, err := q.Run(context.Background(), src, f.st.Dict(), sparql.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("merged-model", func(b *testing.B) {
		src := merged.ViewOf("all")
		for i := 0; i < b.N; i++ {
			if _, _, err := q.Run(context.Background(), src, merged.Dict(), sparql.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: search latency as the landscape grows (series over scale
// factors).
func BenchmarkSearchScaling(b *testing.B) {
	for _, factor := range []int{1, 2, 4} {
		cfg := landscape.Small()
		cfg.SourceApps *= factor
		cfg.TablesPerSchema *= factor
		l := landscape.Generate(cfg)
		st := store.New()
		if _, err := (staging.Pipeline{Store: st, Model: "m"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
			b.Fatal(err)
		}
		svc := search.New(st, "m", nil)
		b.Run(fmt.Sprintf("apps=%d", cfg.SourceApps), func(b *testing.B) {
			var hits int
			for i := 0; i < b.N; i++ {
				rescache.Default().Purge() // time the search, not a cache hit
				res, err := svc.Search("customer", search.Options{})
				if err != nil {
					b.Fatal(err)
				}
				hits = res.Instances
			}
			b.ReportMetric(float64(hits), "hits")
			b.ReportMetric(float64(st.Len("m")), "triples")
		})
	}
}

func BenchmarkStoreAdd(b *testing.B) {
	st := store.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Add("m", rdf.T(
			rdf.IRI(fmt.Sprintf("%sn%d", rdf.InstNS, i)),
			rdf.Type,
			rdf.IRI(rdf.DMNS+"Table"),
		))
	}
}

func BenchmarkStorePatternMatch(b *testing.B) {
	f := smallLandscape(b)
	pred := rdf.IRI(rdf.MDWHasName)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		f.st.ForEach("DWH_CURR", rdf.Term{}, pred, rdf.Term{}, func(rdf.Triple) bool {
			n++
			return true
		})
		if n == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkSPARQLJoin(b *testing.B) {
	f := smallLandscape(b)
	idx := reason.IndexModelName("DWH_CURR", reason.RulebaseOWLPrime)
	src := f.st.ViewOf("DWH_CURR", idx)
	q := sparql.MustParse(`PREFIX dm: <` + rdf.DMNS + `> PREFIX dt: <` + rdf.DTNS + `>
		SELECT ?name WHERE {
			?x dt:isMappedTo ?y .
			?y dm:hasName ?name .
		}`)
	for i := 0; i < b.N; i++ {
		if _, _, err := q.Run(context.Background(), src, f.st.Dict(), sparql.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
