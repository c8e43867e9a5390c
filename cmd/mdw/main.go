// Command mdw is the meta-data warehouse command-line frontend: it
// generates synthetic landscapes, loads meta-data through the Figure 4
// pipeline, and exposes the paper's services — search (Section IV.A),
// lineage (Section IV.B), SPARQL / SEM_MATCH queries, and the Table I
// census reports.
//
// Usage:
//
//	mdw generate     -scale small|paper -out DIR   write XML exports + ontology
//	mdw search       [-data DIR] [flags] TERM      search the graph (§IV.A)
//	mdw lineage      [-data DIR] [flags] ITEM      trace provenance (§IV.B)
//	mdw query        [-data DIR] [-explain] [-facts-only] 'SPARQL'
//	mdw explain      [-data DIR] [-analyze] 'SPARQL'|'SEM_MATCH(...)'  print (or run and annotate) the plan
//	mdw semmatch     [-data DIR] 'SEM_MATCH(...)'  Oracle-style call (Listings 1/2)
//	mdw audit        [-data DIR] [-lineage=false] ITEM  who can access the item
//	mdw impact       [-data-dir DIR] -from N -to M  release change impact
//	mdw stats        [-data DIR] [-validate]       census + validation
//	mdw learn-schema [-data DIR] [-min-instances N] [-migrate]  §VII schema learning
//	mdw metrics      [-data DIR]                   sample workload + Prometheus metrics dump
//	mdw top          [-data DIR | -url URL]        per-statement query statistics
//	mdw checkpoint   [-url URL]                    force a durability checkpoint on a running mdwd
//	mdw clone        [-data DIR | -url URL] [-src MODEL] DST  copy-on-write model clone
//	mdw report       [-scale small|paper] table1|subjects|scale|figure6|figure7|growth
//
// Without -data, commands operate on the built-in Figure 3 example
// landscape, so every command works out of the box.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	neturl "net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mdw/internal/audit"
	"mdw/internal/core"
	"mdw/internal/dbpedia"
	"mdw/internal/durable"
	"mdw/internal/impact"
	"mdw/internal/landscape"
	"mdw/internal/lineage"
	"mdw/internal/ntriples"
	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/relstore"
	"mdw/internal/schemalearn"
	"mdw/internal/search"
	"mdw/internal/semmatch"
	"mdw/internal/sparql"
	"mdw/internal/staging"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mdw:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage(os.Stderr)
		return fmt.Errorf("missing command")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "generate":
		return cmdGenerate(rest)
	case "search":
		return cmdSearch(rest)
	case "lineage":
		return cmdLineage(rest)
	case "query":
		return cmdQuery(rest)
	case "explain":
		return cmdExplain(rest)
	case "semmatch":
		return cmdSemMatch(rest)
	case "audit":
		return cmdAudit(rest)
	case "impact":
		return cmdImpact(rest)
	case "stats":
		return cmdStats(rest)
	case "learn-schema":
		return cmdLearnSchema(rest)
	case "metrics":
		return cmdMetrics(rest)
	case "top":
		return cmdTop(rest)
	case "checkpoint":
		return cmdCheckpoint(rest)
	case "clone":
		return cmdClone(rest)
	case "report":
		return cmdReport(rest)
	case "help", "-h", "--help":
		usage(os.Stderr)
		return nil
	default:
		usage(os.Stderr)
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: mdw <command> [flags] [args]

commands:
  generate     write a synthetic landscape (XML exports + ontology) to a directory
  search       search the meta-data graph for a term (Section IV.A)
  lineage      trace the lineage of an information item (Section IV.B)
  query        run a SPARQL query against the graph
  explain      print the evaluation plan of a SPARQL query or SEM_MATCH call
  semmatch     run an Oracle-style SEM_MATCH call (Listings 1 and 2)
  audit        report which users and roles can access an information item
  impact       analyze the downstream impact of changes between two releases
  stats        print graph statistics, the Table I census, and validation issues
  learn-schema derive a relational schema from the evolved graph (Section VII)
  metrics      run a sample workload and dump the collected metrics (Prometheus text)
  top          show per-statement query statistics, heaviest total time first
  checkpoint   force a durability checkpoint on a running mdwd (-data-dir mode)
  clone        clone a model copy-on-write under a new name (locally or on a running mdwd)
  report       reproduce a paper artifact: `+strings.Join(reportNames(), ", "))
}

// cmdGenerate writes a landscape to disk.
func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	scale := fs.String("scale", "small", "landscape scale: small or paper")
	out := fs.String("out", "mdw-data", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := landscape.ScaleConfig(*scale)
	if err != nil {
		return err
	}
	l := landscape.Generate(cfg)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, e := range l.Exports {
		doc, err := e.Encode()
		if err != nil {
			return err
		}
		name := filepath.Join(*out, staging.Slug(e.Source)+".xml")
		if err := os.WriteFile(name, []byte(doc), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", name)
	}
	ont := filepath.Join(*out, "ontology.ttl")
	if err := os.WriteFile(ont, []byte(l.Ontology.Turtle()), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", ont)
	if extra := l.ExtraTriples(); len(extra) > 0 {
		nt := filepath.Join(*out, "auxiliary.nt")
		if err := os.WriteFile(nt, []byte(ntriples.Marshal(extra)), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", nt)
	}
	dbp := filepath.Join(*out, "dbpedia.nt")
	if err := os.WriteFile(dbp, []byte(ntriples.Marshal(dbpedia.Banking())), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", dbp)
	fmt.Printf("generated %d mapping chains across %d source applications\n",
		len(l.Chains), cfg.SourceApps)
	return nil
}

// buildWarehouse loads a warehouse either from a data directory written
// by `mdw generate` or from the built-in Figure 3 example.
func buildWarehouse(dataDir string) (*core.Warehouse, error) {
	w := core.New("")
	if err := core.Seed(w, dataDir, ""); err != nil {
		return nil, err
	}
	return w, nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	data := fs.String("data", "", "data directory written by `mdw generate`")
	classes := fs.String("class", "", "comma-separated class local names (dm:) the hits must all belong to")
	area := fs.String("area", "", "restrict to items under a container with this name")
	layer := fs.String("layer", "", "restrict to a schema layer (conceptual or physical)")
	semantic := fs.Bool("semantic", false, "expand the term with DBpedia synonyms")
	desc := fs.Bool("desc", false, "also match descriptions")
	tag := fs.String("tag", "", "restrict to items carrying this governance tag (e.g. pii)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("search: want exactly one TERM argument")
	}
	w, err := buildWarehouse(*data)
	if err != nil {
		return err
	}
	opt := search.Options{
		Area:              *area,
		Layer:             *layer,
		Semantic:          *semantic,
		MatchDescriptions: *desc,
		Tag:               *tag,
		MaxHitsPerGroup:   5,
	}
	for _, c := range splitList(*classes) {
		opt.FilterClasses = append(opt.FilterClasses, rdf.DMNS+c)
	}
	res, err := w.Search(fs.Arg(0), opt)
	if err != nil {
		return err
	}
	fmt.Print(search.FormatResult(res))
	return nil
}

func cmdLineage(args []string) error {
	fs := flag.NewFlagSet("lineage", flag.ContinueOnError)
	data := fs.String("data", "", "data directory written by `mdw generate`")
	dir := fs.String("dir", "backward", "traversal direction: backward (provenance) or forward (impact)")
	level := fs.String("level", "attribute", "roll-up level: attribute, relation, schema, application")
	rule := fs.String("rule", "", "only follow mappings whose rule contains this substring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("lineage: want exactly one ITEM-PATH argument (e.g. application1/dwhdb/mart/v_customer/customer_id)")
	}
	w, err := buildWarehouse(*data)
	if err != nil {
		return err
	}
	direction := lineage.Backward
	if *dir == "forward" {
		direction = lineage.Forward
	} else if *dir != "backward" {
		return fmt.Errorf("lineage: unknown direction %q", *dir)
	}
	var opt lineage.Options
	if *rule != "" {
		needle := *rule
		opt.RuleFilter = func(r string) bool { return strings.Contains(r, needle) }
	}
	item := staging.InstanceIRI(strings.Split(fs.Arg(0), "/")...)
	svc := w.LineageService()
	g, err := svc.Trace(item, direction, opt)
	if err != nil {
		return err
	}
	lvl, err := parseLevel(*level)
	if err != nil {
		return err
	}
	g, err = svc.Rollup(g, lvl)
	if err != nil {
		return err
	}
	fmt.Print(lineage.Format(g))
	return nil
}

func parseLevel(s string) (lineage.Level, error) {
	switch s {
	case "attribute":
		return lineage.LevelAttribute, nil
	case "relation":
		return lineage.LevelRelation, nil
	case "schema":
		return lineage.LevelSchema, nil
	case "application":
		return lineage.LevelApplication, nil
	default:
		return 0, fmt.Errorf("lineage: unknown level %q", s)
	}
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	data := fs.String("data", "", "data directory written by `mdw generate`")
	factsOnly := fs.Bool("facts-only", false, "query base facts without the OWLPRIME index")
	explain := fs.Bool("explain", false, "print the evaluation plan instead of executing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("query: want exactly one SPARQL argument")
	}
	w, err := buildWarehouse(*data)
	if err != nil {
		return err
	}
	resp, err := w.Query(context.Background(), fs.Arg(0), core.QueryOptions{FactsOnly: *factsOnly, ExplainOnly: *explain})
	if err != nil {
		return err
	}
	if *explain {
		fmt.Print(resp.Plan)
		return nil
	}
	res := resp.Result
	if len(res.Triples) > 0 {
		fmt.Print(ntriples.Marshal(res.Triples))
		fmt.Printf("(%d triples)\n", len(res.Triples))
		return nil
	}
	printResultTable(res.Vars, resultRows(res))
	return nil
}

// cmdExplain prints the statistics-driven evaluation plan — join order
// with estimated cardinalities, filter placement, streaming notes — for
// a SPARQL query or an Oracle-style SEM_MATCH call, without executing it.
// With -analyze it executes the query once and annotates every operator
// with estimated vs actual rows, loop counts, and wall time (EXPLAIN
// ANALYZE), followed by the execution's resource summary.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	data := fs.String("data", "", "data directory written by `mdw generate`")
	analyze := fs.Bool("analyze", false, "execute the query and annotate the plan with actual rows, loops, and timings")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("explain: want exactly one SPARQL or SEM_MATCH(...) argument")
	}
	w, err := buildWarehouse(*data)
	if err != nil {
		return err
	}
	run := w.Query
	if strings.Contains(fs.Arg(0), "SEM_MATCH") {
		run = w.SemMatch
	}
	resp, err := run(context.Background(), fs.Arg(0), core.QueryOptions{Analyze: *analyze, ExplainOnly: !*analyze})
	if err != nil {
		return err
	}
	if *analyze {
		fmt.Print(resp.Stats.String())
		return nil
	}
	fmt.Print(resp.Plan)
	return nil
}

func cmdSemMatch(args []string) error {
	fs := flag.NewFlagSet("semmatch", flag.ContinueOnError)
	data := fs.String("data", "", "data directory written by `mdw generate`")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("semmatch: want exactly one SEM_MATCH(...) argument")
	}
	w, err := buildWarehouse(*data)
	if err != nil {
		return err
	}
	resp, err := w.SemMatch(context.Background(), fs.Arg(0), core.QueryOptions{})
	if err != nil {
		return err
	}
	printResultTable(resp.Result.Vars, resultRows(resp.Result))
	return nil
}

func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	data := fs.String("data", "", "data directory written by `mdw generate`")
	withLineage := fs.Bool("lineage", true, "extend the audit across the item's data flows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("audit: want exactly one ITEM-PATH argument")
	}
	w, err := buildWarehouse(*data)
	if err != nil {
		return err
	}
	item := staging.InstanceIRI(strings.Split(fs.Arg(0), "/")...)
	rep, err := w.Audit(item, *withLineage)
	if err != nil {
		return err
	}
	fmt.Print(audit.Format(rep))
	return nil
}

func cmdImpact(args []string) error {
	fs := flag.NewFlagSet("impact", flag.ContinueOnError)
	dataDir := fs.String("data-dir", "", "durable data directory written by mdwd -data-dir, holding the historized releases; read, never written")
	from := fs.Int("from", 1, "baseline release number")
	to := fs.Int("to", 2, "target release number")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *core.Warehouse
	var err error
	if *dataDir != "" {
		w, err = core.OpenReadOnly(*dataDir, "")
		if err != nil {
			return err
		}
	} else {
		// Built-in demo: Figure 3 with a release-2 change to the source
		// application's column.
		w, err = buildWarehouse("")
		if err != nil {
			return err
		}
		if _, err := w.Snapshot("R1", time.Date(2009, 1, 15, 0, 0, 0, 0, time.UTC)); err != nil {
			return err
		}
		src := staging.InstanceIRI("pb_frontend", "pbdb", "clients", "client_info", "client_information_id")
		w.LoadTriples([]rdf.Triple{rdf.T(src, rdf.IRI(rdf.MDWLength), rdf.Integer(64))})
		if _, err := w.Snapshot("R2", time.Date(2009, 3, 1, 0, 0, 0, 0, time.UTC)); err != nil {
			return err
		}
		fmt.Println("(no -data-dir given: analyzing the built-in Figure 3 demo scenario)")
	}
	an, err := w.ImpactOfRelease(*from, *to)
	if err != nil {
		return err
	}
	fmt.Print(impact.Format(an))
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	data := fs.String("data", "", "data directory written by `mdw generate`")
	validate := fs.Bool("validate", false, "also run convention validation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := buildWarehouse(*data)
	if err != nil {
		return err
	}
	if _, err := w.Reindex(); err != nil {
		return err
	}
	s := w.Stats()
	fmt.Printf("model      %s\n", s.Model)
	fmt.Printf("triples    %d base + %d derived = %d total\n", s.Triples, s.Derived, s.Triples+s.Derived)
	fmt.Printf("nodes      %d\n", s.Nodes)
	fmt.Printf("versions   %d\n", s.Versions)
	fmt.Println()
	fmt.Println(w.Census().Table1())
	if *validate {
		issues := w.Validate()
		fmt.Printf("validation: %d issues\n", len(issues))
		for i, is := range issues {
			if i >= 20 {
				fmt.Printf("  ... and %d more\n", len(issues)-20)
				break
			}
			fmt.Printf("  %s\n", is)
		}
	}
	return nil
}

func cmdLearnSchema(args []string) error {
	fs := flag.NewFlagSet("learn-schema", flag.ContinueOnError)
	data := fs.String("data", "", "data directory written by `mdw generate`")
	opt := schemalearn.DefaultOptions()
	minInstances := fs.Int("min-instances", opt.MinInstances, "skip classes with fewer direct instances")
	migrate := fs.Bool("migrate", false, "also migrate the instances into the learned tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := buildWarehouse(*data)
	if err != nil {
		return err
	}
	src, err := reason.View(w.Store(), false, w.Model())
	if err != nil {
		return err
	}
	opt.MinInstances = *minInstances
	schema := schemalearn.Learn(src, w.Store().Dict(), opt)
	for _, ddl := range schema.DDL() {
		fmt.Println(ddl)
		fmt.Println()
	}
	fmt.Printf("-- %d tables; schema covers %.1f%% of instance fact triples (%d of %d)\n",
		len(schema.Tables), schema.Coverage()*100, schema.Covered, schema.Total)
	if *migrate {
		cat := relstore.New()
		if err := schema.Apply(cat); err != nil {
			return err
		}
		rows, uncovered, err := schemalearn.Migrate(src, w.Store().Dict(), schema, cat)
		if err != nil {
			return err
		}
		fmt.Printf("-- migrated %d rows; %d fact triples did not fit the schema\n", rows, uncovered)
	}
	return nil
}

// cmdMetrics exercises the warehouse with a small representative
// workload — a search, a SPARQL query, a lineage trace of the search's
// first hit — and dumps the metrics the instrumented subsystems
// collected, in the Prometheus text exposition format.
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	data := fs.String("data", "", "data directory written by `mdw generate`")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := buildWarehouse(*data)
	if err != nil {
		return err
	}
	res, err := w.Search("customer", search.Options{})
	if err != nil {
		return err
	}
	q := `PREFIX dm: <` + rdf.DMNS + `>
SELECT ?n WHERE { ?x a dm:Attribute . ?x dm:hasName ?n }`
	if _, err := w.Query(context.Background(), q, core.QueryOptions{}); err != nil {
		return err
	}
	if groups := res.Groups(); len(groups) > 0 && len(groups[0].Hits) > 0 {
		if _, err := w.Lineage(groups[0].Hits[0].IRI, lineage.Backward, lineage.Options{}); err != nil {
			return err
		}
	}
	obs.SampleRuntime(obs.Default())
	if err := obs.Default().WritePrometheus(os.Stdout); err != nil {
		return err
	}
	printQuantiles(obs.Default().Snapshot())
	return nil
}

// printQuantiles summarizes every populated latency histogram in the
// snapshot as p50/p95/p99 estimates, interpolated from the cumulative
// bucket counts exactly the way Prometheus's histogram_quantile does.
func printQuantiles(snap []obs.SeriesValue) {
	header := false
	for _, sv := range snap {
		if sv.Kind != "histogram" || sv.Value == 0 || !strings.HasSuffix(sv.Family, "_seconds") {
			continue
		}
		if !header {
			fmt.Println("\n# latency quantiles (interpolated from histogram buckets)")
			header = true
		}
		name := sv.Family
		if sv.Labels != "" {
			name += "{" + sv.Labels + "}"
		}
		fmt.Printf("%-64s p50=%-10s p95=%-10s p99=%s\n", name,
			quantileDur(sv, 0.50), quantileDur(sv, 0.95), quantileDur(sv, 0.99))
	}
}

func quantileDur(sv obs.SeriesValue, q float64) string {
	v := obs.Quantile(sv.Bounds, sv.Counts, q)
	if math.IsNaN(v) {
		return "n/a"
	}
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

// cmdTop prints the statement table — per-fingerprint call counts, row
// counts, latency aggregates and the planner's worst misestimate,
// heaviest total time first (the pg_stat_statements view of the
// warehouse). With -url it reads GET /api/statements from a running mdwd;
// without, it replays the paper's Listing 1 and Listing 2 SEM_MATCH
// workload in-process so the aggregation is visible out of the box:
// Listing 1 runs with several different search terms, and because
// fingerprints normalize literals away, all of them fold into one row.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	data := fs.String("data", "", "data directory written by `mdw generate`")
	url := fs.String("url", "", "base URL of a running mdwd; fetch its /api/statements instead of replaying locally")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url != "" {
		resp, err := http.Get(strings.TrimSuffix(*url, "/") + "/api/statements")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("top: %s returned %s", *url, resp.Status)
		}
		var remote struct {
			Evicted    int64               `json:"evicted"`
			Statements []obs.StatementStat `json:"statements"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&remote); err != nil {
			return fmt.Errorf("top: decoding /api/statements: %w", err)
		}
		printStatements(remote.Statements, remote.Evicted)
		return nil
	}
	w, err := buildWarehouse(*data)
	if err != nil {
		return err
	}
	if err := topWorkload(w); err != nil {
		return err
	}
	tbl := obs.DefaultStatements()
	printStatements(tbl.Snapshot(), tbl.Evicted())
	return nil
}

// cmdCheckpoint asks a running mdwd (started with -data-dir) to write a
// checkpoint of its current state — a whole base, or a delta on the last
// checkpoint — and truncate the WAL it covers.
func cmdCheckpoint(args []string) error {
	fs := flag.NewFlagSet("checkpoint", flag.ContinueOnError)
	url := fs.String("url", "http://localhost:8080", "base URL of the running mdwd")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := http.Post(strings.TrimSuffix(*url, "/")+"/api/checkpoint", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var remote struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&remote) == nil && remote.Error != "" {
			return fmt.Errorf("checkpoint: %s: %s", resp.Status, remote.Error)
		}
		return fmt.Errorf("checkpoint: %s returned %s", *url, resp.Status)
	}
	var stats durable.CheckpointStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return fmt.Errorf("checkpoint: decoding response: %w", err)
	}
	if stats.Kind == durable.CheckpointNone {
		fmt.Printf("no checkpoint needed: %s still covers the store\n", stats.Path)
	} else {
		fmt.Printf("checkpoint written: %s\n", stats.Path)
	}
	fmt.Printf("  kind     %s\n", stats.Kind)
	fmt.Printf("  lsn      %d\n", stats.LSN)
	fmt.Printf("  size     %d bytes\n", stats.Bytes)
	fmt.Printf("  contents %d models, %d triples (%d written)\n", stats.Models, stats.Triples, stats.Written)
	fmt.Printf("  wal      %d segments removed\n", stats.SegmentsRemoved)
	fmt.Printf("  took     %s\n", stats.Duration.Round(time.Millisecond))
	return nil
}

// cmdClone clones a model copy-on-write under a new name — O(1) at any
// scale, because the clone shares its source's immutable base, delta and
// tombstones, and each side's writes replace its own. The clone starts at
// a fresh generation, so cached query results never alias source and
// clone. With -url the clone happens on a running mdwd (and, in
// -data-dir mode, lands in its write-ahead log); without, it runs
// locally against the loaded data set and reports the clone size.
func cmdClone(args []string) error {
	fs := flag.NewFlagSet("clone", flag.ContinueOnError)
	data := fs.String("data", "", "data directory written by `mdw generate`")
	url := fs.String("url", "", "base URL of a running mdwd; clone there instead of locally")
	src := fs.String("src", "", "source model name (default: the base model)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("clone: want exactly one DST model-name argument")
	}
	dst := fs.Arg(0)
	if *url != "" {
		u := strings.TrimSuffix(*url, "/") + "/api/clone?dst=" + neturl.QueryEscape(dst)
		if *src != "" {
			u += "&src=" + neturl.QueryEscape(*src)
		}
		resp, err := http.Post(u, "application/json", nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var remote struct {
				Error string `json:"error"`
			}
			if json.NewDecoder(resp.Body).Decode(&remote) == nil && remote.Error != "" {
				return fmt.Errorf("clone: %s: %s", resp.Status, remote.Error)
			}
			return fmt.Errorf("clone: %s returned %s", *url, resp.Status)
		}
		var out struct {
			Src     string `json:"src"`
			Dst     string `json:"dst"`
			Triples int    `json:"triples"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return fmt.Errorf("clone: decoding response: %w", err)
		}
		fmt.Printf("cloned %s -> %s (%d triples, copy-on-write)\n", out.Src, out.Dst, out.Triples)
		return nil
	}
	w, err := buildWarehouse(*data)
	if err != nil {
		return err
	}
	start := time.Now()
	n, err := w.CloneModel(*src, dst)
	if err != nil {
		return err
	}
	from := *src
	if from == "" {
		from = w.Model()
	}
	fmt.Printf("cloned %s -> %s (%d triples, copy-on-write) in %s\n",
		from, dst, n, time.Since(start).Round(time.Microsecond))
	return nil
}

// topWorkload replays the paper's two listings against the warehouse:
// Listing 1 (classify search hits by ontology class) once per term in a
// small term set, and Listing 2 (column-level lineage) — each repeated
// three times so the statement table has latency distributions to show.
// The first round runs analyzed, so every row has its worst misestimate.
func topWorkload(w *core.Warehouse) error {
	l1, err := semmatch.ParseCall(`SEM_MATCH(
		{?object rdf:type ?c .
		 ?c rdfs:label ?class .
		 ?object dm:hasName ?term},
		SEM_MODELS('DWH_CURR'),
		SEM_RULEBASES('OWLPRIME'),
		SEM_ALIASES(SEM_ALIAS('dm', '` + rdf.DMNS + `'),
		            SEM_ALIAS('owl', 'http://www.w3.org/2002/07/owl#')),
		null)`)
	if err != nil {
		return err
	}
	l1.Select = []string{"class", "object"}
	l1.GroupBy = []string{"class", "object"}
	l2, err := semmatch.ParseCall(`SEM_MATCH(
		{?source_id dt:isMappedTo ?target_id .
		 ?target_id rdf:type dm:Application1_View_Column .
		 ?target_id dm:hasName ?target_name},
		SEM_MODELS('DWH_CURR'),
		SEM_RULEBASES('OWLPRIME'),
		SEM_ALIASES(SEM_ALIAS('dm', '` + rdf.DMNS + `'),
		            SEM_ALIAS('dt', '` + rdf.DTNS + `')),
		null)`)
	if err != nil {
		return err
	}
	l2.Select = []string{"source_id", "target_id", "target_name"}
	run := func(req semmatch.Request, analyze bool) error {
		_, _, err := req.Run(context.Background(), w.Store(), sparql.RunOptions{Analyze: analyze})
		return err
	}
	for i := range 3 {
		for _, term := range []string{"customer", "account", "branch"} {
			req := *l1
			req.Filter = fmt.Sprintf("regex(?term, %q, \"i\")", term)
			if err := run(req, i == 0); err != nil {
				return err
			}
		}
		if err := run(*l2, i == 0); err != nil {
			return err
		}
	}
	return nil
}

// printStatements renders statement rows as an aligned table, truncating
// the normalized statement text so rows stay on one terminal line.
func printStatements(stmts []obs.StatementStat, evicted int64) {
	rows := make([][]string, 0, len(stmts))
	for i, st := range stmts {
		stmt := st.Fingerprint
		if len(stmt) > 96 {
			stmt = stmt[:93] + "..."
		}
		par, worst := "-", "-"
		if st.Parallelism > 0 {
			par = fmt.Sprintf("%d", st.Parallelism)
		}
		if st.MaxRatio > 0 {
			worst = fmt.Sprintf("x%.1f", st.MaxRatio)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", st.Calls),
			fmt.Sprintf("%d", st.Hits),
			fmt.Sprintf("%d", st.Rows),
			st.Total.Round(time.Microsecond).String(),
			st.Mean.Round(time.Microsecond).String(),
			st.Min.Round(time.Microsecond).String(),
			st.Max.Round(time.Microsecond).String(),
			par,
			worst,
			stmt,
		})
	}
	printResultTable([]string{"#", "calls", "hits", "rows", "total", "mean", "min", "max", "par", "worst", "statement"}, rows)
	if evicted > 0 {
		fmt.Printf("(%d least-expensive fingerprints evicted from the table)\n", evicted)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// printResultTable renders a query result as an aligned table.
func printResultTable(vars []string, rows [][]string) {
	widths := make([]int, len(vars))
	for i, v := range vars {
		widths[i] = len(v)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		fmt.Println(strings.TrimRight(b.String(), " "))
	}
	line(vars)
	for _, r := range rows {
		line(r)
	}
	fmt.Printf("(%d rows)\n", len(rows))
}

// resultRows flattens a SPARQL result into printable cells; IRIs are
// abbreviated with the well-known prefixes.
func resultRows(res *sparql.Result) [][]string {
	out := make([][]string, 0, res.Len())
	for i := 0; i < res.Len(); i++ {
		b := res.Row(i)
		row := make([]string, len(res.Vars))
		for i, v := range res.Vars {
			if t, ok := b[v]; ok {
				if t.IsIRI() {
					row[i] = rdf.QName(t.Value)
				} else {
					row[i] = t.Value
				}
			}
		}
		out = append(out, row)
	}
	return out
}
