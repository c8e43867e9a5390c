// Package core is the public face of the meta-data warehouse: a
// Warehouse value wires together the storage, load pipeline, entailment,
// historization, and the search and lineage services, exposing the
// operations the paper's users perform — load meta-data, search for
// concepts, trace lineage, snapshot releases, and query the graph
// directly with SPARQL or SEM_MATCH calls.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mdw/internal/audit"
	"mdw/internal/dbpedia"
	"mdw/internal/history"
	"mdw/internal/impact"
	"mdw/internal/lineage"
	"mdw/internal/metamodel"
	"mdw/internal/obs"
	"mdw/internal/ontology"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/search"
	"mdw/internal/semmatch"
	"mdw/internal/sparql"
	"mdw/internal/staging"
	"mdw/internal/store"
	"mdw/internal/textindex"
)

// DefaultModel is the model name used when none is given; it matches the
// SEM_MODELS('DWH_CURR') of the paper's listings.
const DefaultModel = "DWH_CURR"

// Warehouse is one meta-data warehouse instance.
type Warehouse struct {
	st        *store.Store
	model     string
	hist      *history.Historian
	thesaurus *dbpedia.Thesaurus
	ontology  *ontology.Ontology
	// tix caches the full-text indexes (Section IV.A search) per model
	// generation; it is shared by every search service the warehouse
	// hands out so an index is built once and extended thereafter.
	tix *textindex.Manager
}

// New returns an empty warehouse storing its graph in the named model
// ("" selects DefaultModel).
func New(model string) *Warehouse {
	return newWarehouse(store.New(), model)
}

// newWarehouse wires a warehouse around st — empty, or recovered from a
// data directory — making sure the base model exists even before any
// load.
func newWarehouse(st *store.Store, model string) *Warehouse {
	if model == "" {
		model = DefaultModel
	}
	st.Model(model)
	return &Warehouse{
		st:    st,
		model: model,
		hist:  history.NewHistorian(st, model),
		tix:   textindex.NewManager(textindex.Config{}),
	}
}

// Store exposes the underlying triple store.
func (w *Warehouse) Store() *store.Store { return w.st }

// Model returns the base model name.
func (w *Warehouse) Model() string { return w.model }

// Ontology returns the last loaded ontology (nil before LoadOntology).
func (w *Warehouse) Ontology() *ontology.Ontology { return w.ontology }

// Thesaurus returns the integrated thesaurus (nil before
// IntegrateDBpedia).
func (w *Warehouse) Thesaurus() *dbpedia.Thesaurus { return w.thesaurus }

// LoadOntology stages and loads an ontology (the Protégé export path of
// Figure 4) and remembers it for hierarchy queries.
func (w *Warehouse) LoadOntology(o *ontology.Ontology) (staging.LoadStats, error) {
	if errs := o.Validate(); len(errs) > 0 {
		return staging.LoadStats{}, fmt.Errorf("core: ontology invalid: %v", errs[0])
	}
	tbl := staging.NewTable()
	tbl.InsertTriples(o.Triples())
	stats, err := tbl.BulkLoad(w.st, w.model, true)
	if err != nil {
		return stats, err
	}
	w.ontology = o
	return stats, nil
}

// LoadExports runs the Figure 4 pipeline for the given XML meta-data
// exports, rebuilding the entailment index and the full-text search
// index afterwards so the first search after a load is already fast.
func (w *Warehouse) LoadExports(exports []*staging.Export) (staging.LoadStats, error) {
	stats, err := staging.Pipeline{Store: w.st, Model: w.model}.Run(exports, nil)
	if err != nil {
		return stats, err
	}
	_, err = w.TextIndex()
	return stats, err
}

// LoadTriples adds raw triples (e.g. auxiliary relatedness edges). The
// entailment and full-text indexes notice the new base generation and
// are refreshed on the next query or search.
func (w *Warehouse) LoadTriples(ts []rdf.Triple) int {
	return w.st.AddAll(w.model, ts)
}

// IntegrateDBpedia loads a DBpedia-style extract (Section III.B),
// derives synonym/homonym edges, and enables semantic search expansion.
// The new labels are folded into the full-text index immediately.
func (w *Warehouse) IntegrateDBpedia(extract []rdf.Triple) int {
	n := dbpedia.Integrate(w.st, w.model, extract)
	w.thesaurus = dbpedia.FromTriples(extract)
	_, _ = w.TextIndex() // build-on-load; next search verifies freshness anyway
	return n
}

// Reindex brings the OWLPRIME index up to date with the base model — by
// extension from what was loaded since it was derived, from scratch when
// there is no index to extend — and returns the number of derived triples
// it holds. A current index is left alone.
func (w *Warehouse) Reindex() (int, error) {
	idx, err := reason.Materialize(w.st, w.model)
	return w.st.Len(idx), err
}

// TextIndex returns the full-text index over the current graph (base
// model ∪ OWLPRIME entailment), materializing the entailment and
// building or extending the index as needed.
func (w *Warehouse) TextIndex() (*textindex.Index, error) {
	return search.EnsureIndex(w.st, w.model, w.tix)
}

// Search runs the Section IV.A search service over the warehouse's
// shared full-text index.
func (w *Warehouse) Search(term string, opt search.Options) (*search.Result, error) {
	return w.SearchCtx(context.Background(), term, opt)
}

// SearchCtx is Search carrying a request context: under a traced request
// (obs.ContextWithSpan) the search nests in the request's trace.
func (w *Warehouse) SearchCtx(ctx context.Context, term string, opt search.Options) (*search.Result, error) {
	return search.New(w.st, w.model, w.thesaurus).WithIndexManager(w.tix).SearchCtx(ctx, term, opt)
}

// Lineage runs the Section IV.B provenance service.
func (w *Warehouse) Lineage(item rdf.Term, dir lineage.Direction, opt lineage.Options) (*lineage.Graph, error) {
	return w.LineageService().Trace(item, dir, opt)
}

// LineageService exposes the full lineage API (context-carrying calls,
// sources and impact, roll-ups, path counting).
func (w *Warehouse) LineageService() *lineage.Service {
	return lineage.New(w.st, w.model)
}

// Audit runs the access audit of the roles use case: which users and
// roles can reach the item, optionally extended across its lineage.
func (w *Warehouse) Audit(item rdf.Term, includeLineage bool) (*audit.Report, error) {
	return audit.New(w.st, w.model).WhoCanAccess(item, includeLineage)
}

// ImpactOfRelease analyzes the meta-data changes between two historized
// releases and follows them forward to the affected applications and
// reports — the change-management use case.
func (w *Warehouse) ImpactOfRelease(from, to int) (*impact.Analysis, error) {
	return impact.New(w.st, w.hist).Analyze(from, to)
}

// QueryOptions selects what one Query or SemMatch call does. The zero
// value executes against the entailed graph and returns the result.
type QueryOptions struct {
	// FactsOnly leaves the rulebases out: the query sees the asserted base
	// facts only — the paper's default when no rulebase is named.
	FactsOnly bool
	// Analyze executes with operator-level instrumentation (EXPLAIN
	// ANALYZE): Response.Stats mirrors the executed plan with actual rows,
	// loops, and wall time per operator, plus query-wide resource
	// accounting. An analyzed call always executes — its statistics never
	// come from the results cache.
	Analyze bool
	// ExplainOnly plans without executing: Response.Plan renders the
	// statistics-driven join order with estimated cardinalities against
	// the view execution would run on (the entailment index is brought up
	// to date first, so the plan sees the statistics execution would see).
	ExplainOnly bool
}

// Response is what a Query or SemMatch call produced: the Result (with
// Stats when QueryOptions.Analyze was set), or the Plan rendering when
// QueryOptions.ExplainOnly was.
type Response struct {
	Result *sparql.Result
	Stats  *sparql.ExecStats
	Plan   string
}

// ErrBadQuery marks the errors that are the caller's to fix: text that
// does not parse as SPARQL or as a SEM_MATCH call, calls naming a model
// or rulebase the store does not have, and a clone into a reserved model
// name. Test with errors.Is; the message is the underlying error's.
var ErrBadQuery = errors.New("core: bad query")

type badQueryError struct{ cause error }

func (e badQueryError) Error() string        { return e.cause.Error() }
func (e badQueryError) Unwrap() error        { return e.cause }
func (e badQueryError) Is(target error) bool { return target == ErrBadQuery }

// Query parses and runs a SPARQL query against the base model plus its
// OWLPRIME index (brought up to date first) — the view a
// SEM_MATCH(..., SEM_MODELS(model), SEM_RULEBASES('OWLPRIME'), ...) call
// would name.
func (w *Warehouse) Query(ctx context.Context, query string, opt QueryOptions) (Response, error) {
	return w.run(ctx, query, false, opt)
}

// SemMatch parses and runs an Oracle-style SEM_MATCH call (Listings 1
// and 2) against the models and rulebases the call names.
func (w *Warehouse) SemMatch(ctx context.Context, call string, opt QueryOptions) (Response, error) {
	return w.run(ctx, call, true, opt)
}

// run is the one query path. The call runs under a "warehouse.query"
// span — nested in the request's trace when ctx carries one, the root of
// a new trace otherwise — with the "sparql parse"/"sparql plan"/"sparql
// exec" spans of the engine (and a "reindex" span when the entailment was
// stale) below it.
func (w *Warehouse) run(ctx context.Context, text string, isCall bool, opt QueryOptions) (Response, error) {
	root, ctx := obs.StartChildCtx(ctx, "warehouse.query")
	defer root.Finish()
	fail := func(stage string, err error) (Response, error) {
		root.SetLabel("error", stage)
		return Response{}, err
	}
	// What to query: a plain query means the warehouse's own model with
	// the OWLPRIME rulebase, a SEM_MATCH call says so itself.
	from := semmatch.Request{Models: []string{w.model}, Rulebases: []string{reason.RulebaseOWLPrime}}
	if isCall {
		req, err := semmatch.ParseCall(text)
		if err != nil {
			return fail("parse", badQueryError{err})
		}
		from, text = *req, req.QueryText()
	}
	if opt.FactsOnly {
		from.Rulebases = nil
	}
	q, err := sparql.ParseCtx(ctx, text)
	if err != nil {
		return fail("parse", badQueryError{err})
	}
	src, err := from.Source(ctx, w.st)
	if err != nil {
		return fail("source", badQueryError{err})
	}
	if opt.ExplainOnly {
		return Response{Plan: q.ExplainOn(src, w.st.Dict())}, nil
	}
	res, stats, err := q.Run(ctx, src, w.st.Dict(), sparql.RunOptions{Analyze: opt.Analyze})
	if err != nil {
		return fail("exec", err)
	}
	root.SetLabel("rows", strconv.Itoa(res.Count()))
	return Response{Result: res, Stats: stats}, nil
}

// The four methods below are pinned by bench/ladder.go, which this tree
// may not edit alongside the code it measures: each is one delegation to
// Query or SemMatch, to be dropped once the ladder calls those.

func plainResult(r Response, err error) (*sparql.Result, error) { return r.Result, err }

func analyzedResult(r Response, err error) (*sparql.Result, *sparql.ExecStats, error) {
	return r.Result, r.Stats, err
}

// QueryCtx is Query with the zero QueryOptions.
func (w *Warehouse) QueryCtx(ctx context.Context, query string) (*sparql.Result, error) {
	return plainResult(w.Query(ctx, query, QueryOptions{}))
}

// QueryAnalyzeCtx is Query with QueryOptions.Analyze.
func (w *Warehouse) QueryAnalyzeCtx(ctx context.Context, query string) (*sparql.Result, *sparql.ExecStats, error) {
	return analyzedResult(w.Query(ctx, query, QueryOptions{Analyze: true}))
}

// SemMatchCtx is SemMatch with the zero QueryOptions.
func (w *Warehouse) SemMatchCtx(ctx context.Context, call string) (*sparql.Result, error) {
	return plainResult(w.SemMatch(ctx, call, QueryOptions{}))
}

// SemMatchAnalyzeCtx is SemMatch with QueryOptions.Analyze.
func (w *Warehouse) SemMatchAnalyzeCtx(ctx context.Context, call string) (*sparql.Result, *sparql.ExecStats, error) {
	return analyzedResult(w.SemMatch(ctx, call, QueryOptions{Analyze: true}))
}

// CloneModel clones model src ("" selects the base model) into dst via
// the store's zero-copy clone path: the two models share index nodes
// copy-on-write and the clone starts at a fresh salted generation, so
// cached query results and entailment-currency checks can never alias
// source and clone. On a durable warehouse the clone is one WAL record,
// not a triple-by-triple copy, and survives recovery. Names containing
// '$' belong to the warehouse — entailment indexes, historized releases
// and the meta model are rewritten or dropped by name — so a destination
// containing one is refused.
func (w *Warehouse) CloneModel(src, dst string) (int, error) {
	if src == "" {
		src = w.model
	}
	if strings.Contains(dst, "$") {
		return 0, badQueryError{fmt.Errorf("core: clone destination %q: '$' is reserved for derived, historization and meta models", dst)}
	}
	if err := w.st.CloneModel(src, dst); err != nil {
		return 0, err
	}
	return w.st.Len(dst), nil
}

// Snapshot historizes the current graph as a new release version. The
// historian's record is mirrored into the meta model immediately, so it
// reaches the write-ahead log of a durable warehouse and survives a
// restart.
func (w *Warehouse) Snapshot(tag string, at time.Time) (history.Version, error) {
	v, err := w.hist.Snapshot(tag, at)
	if err == nil {
		w.syncMeta()
	}
	return v, err
}

// History exposes the historian for diffs, as-of access, and pruning.
func (w *Warehouse) History() *history.Historian { return w.hist }

// Census computes the Table I population counts of the base graph.
func (w *Warehouse) Census() *metamodel.Census {
	facts, _ := reason.View(w.st, false, w.model) // facts only: nothing to bring up to date, nothing to fail
	cs, _ := metamodel.TakeCensus(facts, w.st.Dict())
	return cs
}

// Validate checks the graph against the warehouse conventions.
func (w *Warehouse) Validate() []metamodel.Issue {
	facts, _ := reason.View(w.st, false, w.model) // as in Census
	return metamodel.Validate(facts, w.st.Dict())
}

// Stats summarizes the warehouse state.
type Stats struct {
	Model    string
	Triples  int
	Derived  int
	Nodes    int
	Versions int
	// IndexCurrent reports whether the OWLPRIME entailment index still
	// reflects the base model's present generation.
	IndexCurrent bool
	// TextIndex lists the cached full-text indexes (one per indexed
	// model).
	TextIndex []textindex.Stats
}

// Stats reports the current graph and version sizes. Everything about
// the graph is read off one snapshot of the base model and its index, so
// the figures describe one moment of the store even while a load runs;
// nothing is brought up to date for it.
func (w *Warehouse) Stats() Stats {
	idx := reason.IndexModelName(w.model, reason.RulebaseOWLPrime)
	snap, _ := reason.View(w.st, false, w.model, idx) // facts only: nothing can fail
	base, index := snap.Cut(w.model), snap.Cut(idx)
	cs, _ := metamodel.TakeCensus(snap.Of(w.model), w.st.Dict())
	return Stats{
		Model:        w.model,
		Triples:      base.Triples,
		Derived:      index.Triples,
		Nodes:        cs.NodeTotal(),
		Versions:     len(w.hist.Versions()),
		IndexCurrent: index.Exists && index.Basis == base.Gen,
		TextIndex:    w.tix.StatsAll(),
	}
}
