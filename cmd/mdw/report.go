package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"time"

	"mdw/internal/history"
	"mdw/internal/landscape"
	"mdw/internal/lineage"
	"mdw/internal/metamodel"
	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/search"
	"mdw/internal/staging"
	"mdw/internal/store"
)

// reports are the paper artifacts cmdReport regenerates, each from a
// landscape of the given scale.
var reports = []struct {
	name string
	run  func(scale string) error
}{
	{"table1", reportTable1},
	{"subjects", reportSubjects},
	{"scale", reportScale},
	{"figure6", reportFigure6},
	{"figure7", func(string) error { return reportFigure7() }},
	{"growth", reportGrowth},
}

// reportNames lists the artifacts in reports, in order.
func reportNames() []string {
	names := make([]string, len(reports))
	for i, r := range reports {
		names[i] = r.name
	}
	return names
}

// cmdReport regenerates the paper's tables and figures from a generated
// landscape.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	scale := fs.String("scale", "small", "landscape scale: small or paper")
	// Accept the artifact name either before or after the flags.
	artifact := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		artifact, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if artifact == "" {
		if fs.NArg() != 1 {
			return fmt.Errorf("report: want one of %s", strings.Join(reportNames(), ", "))
		}
		artifact = fs.Arg(0)
	}
	for _, r := range reports {
		if r.name == artifact {
			return r.run(*scale)
		}
	}
	return fmt.Errorf("report: unknown artifact %q; want one of %s", artifact, strings.Join(reportNames(), ", "))
}

// reportGrowth reproduces the Section III.A historization narrative:
// eight releases in a year, each historized completely, with the graph
// growing 20–30% over the year.
func reportGrowth(scale string) error {
	cfg, err := landscape.ScaleConfig(scale)
	if err != nil {
		return err
	}
	l := landscape.Generate(cfg)
	st := store.New()
	if _, err := (staging.Pipeline{Store: st, Model: "DWH_CURR"}).Run(l.Exports, l.Ontology.Triples()); err != nil {
		return err
	}
	h := history.NewHistorian(st, "DWH_CURR")
	base := time.Date(2009, 1, 15, 0, 0, 0, 0, time.UTC)
	if _, err := h.Snapshot("2009-R1", base); err != nil {
		return err
	}
	for r := 2; r <= 8; r++ {
		if _, err := landscape.Evolve(l, r, 0.05); err != nil {
			return err
		}
		if _, err := (staging.Pipeline{Store: st, Model: "DWH_CURR"}).Run(l.Exports, nil); err != nil {
			return err
		}
		if _, err := h.Snapshot(fmt.Sprintf("2009-R%d", r), base.AddDate(0, 0, (r-1)*45)); err != nil {
			return err
		}
	}
	fmt.Println("Section III.A: release cadence and growth (8 releases/year)")
	fmt.Println()
	fmt.Printf("  %-10s %-12s %10s %9s\n", "release", "date", "triples", "growth")
	g := h.Growth()
	for i, v := range g.Versions {
		growth := ""
		if i > 0 {
			growth = fmt.Sprintf("%+.1f%%", g.Growth[i-1]*100)
		}
		fmt.Printf("  %-10s %-12s %10d %9s\n", v.Tag, v.At.Format("2006-01-02"), v.Triples, growth)
	}
	first, last := g.Versions[0], g.Versions[len(g.Versions)-1]
	fmt.Printf("\n  annual growth: %+.1f%%   (paper: 20-30%% per year)\n",
		(float64(last.Triples)/float64(first.Triples)-1)*100)
	return nil
}

func loadLandscape(scale string) (*landscape.Landscape, *store.Store, staging.LoadStats, error) {
	cfg, err := landscape.ScaleConfig(scale)
	if err != nil {
		return nil, nil, staging.LoadStats{}, err
	}
	l := landscape.Generate(cfg)
	st := store.New()
	stats, err := staging.Pipeline{Store: st, Model: "DWH_CURR"}.Run(l.Exports, l.Ontology.Triples())
	if err != nil {
		return nil, nil, stats, err
	}
	st.AddAll("DWH_CURR", l.ExtraTriples())
	return l, st, stats, nil
}

// reportTable1 prints the Table I census of the generated graph.
func reportTable1(scale string) error {
	_, st, _, err := loadLandscape(scale)
	if err != nil {
		return err
	}
	facts, err := reason.View(st, false, "DWH_CURR")
	if err != nil {
		return err
	}
	cs, _ := metamodel.TakeCensus(facts, st.Dict())
	fmt.Printf("Table I census of the generated meta-data graph (%s scale)\n\n", scale)
	fmt.Println(cs.Table1())
	return nil
}

// reportSubjects prints the Figure 1 / Figure 9 subject-area inventory.
func reportSubjects(scale string) error {
	l, st, _, err := loadLandscape(scale)
	if err != nil {
		return err
	}
	fmt.Printf("Subject areas of the generated IT landscape (%s scale)\n\n", scale)
	// Count through the entailment index so instances of subclasses
	// (e.g. Programming_Language under Technology) are included.
	k, err := metamodel.Open(st, "DWH_CURR")
	if err != nil {
		return err
	}
	count := func(class string) int {
		id, _ := k.Dict.Lookup(rdf.IRI(rdf.DMNS + class)) // Wildcard when unknown: no instances
		return len(k.Subjects(k.Type, id))
	}
	rows := []struct{ area, class string }{
		{"Applications", "Application"},
		{"Databases", "Database"},
		{"Schemas", "Schema"},
		{"Tables", "Table"},
		{"Views", "View"},
		{"Source files", "Source_File"},
		{"Interfaces", "Interface"},
		{"Mappings (data flows)", "Mapping"},
		{"Users", "User"},
		{"Reports", "Report"},
		{"Technologies", "Technology"},
		{"Log files", "Log_File"},
	}
	for _, r := range rows {
		fmt.Printf("  %-24s %7d\n", r.area, count(r.class))
	}
	fmt.Printf("  %-24s %7d\n", "Mapping chains", len(l.Chains))
	return nil
}

// reportScale prints the Section III.A scale figures next to the paper's.
func reportScale(scale string) error {
	t0 := time.Now()
	_, st, stats, err := loadLandscape(scale)
	if err != nil {
		return err
	}
	loadTime := time.Since(t0)
	facts, err := reason.View(st, false, "DWH_CURR")
	if err != nil {
		return err
	}
	cs, _ := metamodel.TakeCensus(facts, st.Dict())
	fmt.Printf("Graph scale (%s configuration) vs. Section III.A\n\n", scale)
	fmt.Printf("  %-28s %12s %15s\n", "", "measured", "paper")
	fmt.Printf("  %-28s %12d %15s\n", "nodes", cs.NodeTotal(), "~130,000")
	fmt.Printf("  %-28s %12d %15s\n", "base edges", cs.Total, "")
	fmt.Printf("  %-28s %12d %15s\n", "derived (index) edges", stats.Derived, "")
	fmt.Printf("  %-28s %12d %15s\n", "total edges", cs.Total+stats.Derived, "~1,200,000")
	fmt.Printf("  %-28s %12s\n", "load+materialize", loadTime.Round(time.Millisecond).String())
	return nil
}

// reportFigure6 reproduces the Figure 6 search-result screenshot: the
// grouped class counts for the term "customer".
func reportFigure6(scale string) error {
	_, st, _, err := loadLandscape(scale)
	if err != nil {
		return err
	}
	svc := search.New(st, "DWH_CURR", nil)
	res, err := svc.Search("customer", search.Options{MaxHitsPerGroup: 3})
	if err != nil {
		return err
	}
	fmt.Println("Figure 6: search results for \"customer\", grouped by class")
	fmt.Println()
	fmt.Print(search.FormatResult(res))
	return nil
}

// reportFigure7 reproduces the Figure 7/8 lineage drill-down on the
// Figure 3 example: the customer identification chain at every roll-up
// level.
func reportFigure7() error {
	st := store.New()
	l := landscape.Figure3Export()
	if _, err := (staging.Pipeline{Store: st, Model: "DWH_CURR"}).Run(
		[]*staging.Export{l}, ontology.DWH().Triples()); err != nil {
		return err
	}
	svc := lineage.New(st, "DWH_CURR")
	item := staging.InstanceIRI(strings.Split(landscape.Figure3Paths()[3], "/")...)
	g, err := svc.Trace(item, lineage.Backward, lineage.Options{})
	if err != nil {
		return err
	}
	fmt.Println("Figure 7/8: provenance of customer_id at each granularity")
	for _, lvl := range []lineage.Level{
		lineage.LevelAttribute, lineage.LevelRelation, lineage.LevelSchema, lineage.LevelApplication,
	} {
		rolled, err := svc.Rollup(g, lvl)
		if err != nil {
			return err
		}
		fmt.Printf("\n-- level: %s --\n", lvl)
		fmt.Print(lineage.Format(rolled))
	}
	// The Figure 8 path expression, answered via classes.
	fmt.Println("\n(isMappedTo)* rdf:type classes of the chain:")
	var names []string
	for _, n := range g.Nodes {
		for _, c := range n.Classes {
			names = append(names, n.Name+" : "+rdf.LocalName(c))
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Println("  " + n)
	}
	return nil
}
