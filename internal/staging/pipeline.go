package staging

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/store"
)

// obsLoadHist is resolved once at package init.
var obsLoadHist = obs.Default().Histogram("mdw_staging_bulkload_seconds", nil)

func init() {
	r := obs.Default()
	r.SetHelp("mdw_staging_bulkload_seconds", "Bulk-load latency (staging table into the model, incl. materialization when requested).")
}

// Table is a staging table: the intermediate triple buffer between the
// XML→RDF transform and the bulk load into the RDF model tables
// (Figure 4). Both meta-data facts and the ontology export are inserted
// into the same staging tables before loading. A table belongs to one
// store and holds its triples as that store's IDs, interned on insert.
type Table struct {
	st      *store.Store
	mu      sync.Mutex
	triples []store.ETriple
}

// NewTable returns an empty staging table for st.
func NewTable(st *store.Store) *Table { return &Table{st: st} }

// InsertTriples appends raw triples (the ontology-file import path).
func (t *Table) InsertTriples(ts []rdf.Triple) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range ts {
		t.triples = append(t.triples, t.st.Dict().Encode(tr))
	}
}

// InsertExport transforms one XML export and appends its triples as they
// are emitted. An export that fails to transform stages nothing.
func (t *Table) InsertExport(e *Export) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.triples)
	err := transform(e, func(tr rdf.Triple) { t.triples = append(t.triples, t.st.Dict().Encode(tr)) })
	if err != nil {
		t.triples = t.triples[:n]
	}
	return err
}

// Len returns the number of staged triples (duplicates included; the
// bulk load deduplicates).
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.triples)
}

// LoadStats summarizes one bulk load.
type LoadStats struct {
	Staged   int // triples in the staging table
	Loaded   int // distinct triples added to the model
	Derived  int // entailed triples added to the index model
	Model    string
	IndexMod string
}

// BulkLoad moves the staged triples into the named model of the table's
// store and, when materialize is true, brings the model's OWLPRIME index
// up to date — the "indexes for semantic web reasoning" of Figure 4. The
// load takes what is staged when it starts; triples inserted while it
// runs stay staged for the next load instead of being silently discarded.
func (t *Table) BulkLoad(model string, materialize bool) (LoadStats, error) {
	return t.BulkLoadCtx(context.Background(), model, materialize)
}

// BulkLoadCtx is BulkLoad carrying a request context: the load runs
// under a "staging.bulkload" span — nested in the request's trace when
// ctx carries one, the root of a new trace otherwise — labelled with the
// staged/loaded/derived triple counts.
func (t *Table) BulkLoadCtx(ctx context.Context, model string, materialize bool) (LoadStats, error) {
	sp, ctx := obs.StartChildCtx(ctx, "staging.bulkload")
	sp.SetLabel("model", model)
	defer sp.Finish()
	t0 := time.Now()
	t.mu.Lock()
	staged := t.triples
	t.triples = nil
	t.mu.Unlock()

	stats := LoadStats{Staged: len(staged), Model: model}
	stats.Loaded = t.st.AddIDs(model, staged)
	if materialize {
		idx, err := reason.MaterializeCtx(ctx, t.st, model)
		if err != nil {
			return stats, err
		}
		stats.IndexMod = idx
		stats.Derived = t.st.Len(idx)
	}
	obsLoadHist.ObserveSince(t0)
	sp.SetLabel("staged", strconv.Itoa(stats.Staged)).
		SetLabel("loaded", strconv.Itoa(stats.Loaded)).
		SetLabel("derived", strconv.Itoa(stats.Derived))
	return stats, nil
}

// Pipeline bundles the full Figure 4 flow for convenience: XML exports
// and an ontology in, a loaded and indexed model out.
type Pipeline struct {
	Store *store.Store
	Model string
}

// Run stages every export and the ontology triples, bulk-loads them, and
// materializes the OWLPRIME index.
func (p Pipeline) Run(exports []*Export, ontologyTriples []rdf.Triple) (LoadStats, error) {
	return p.RunCtx(context.Background(), exports, ontologyTriples)
}

// RunCtx is Run carrying a request context (see Table.BulkLoadCtx).
func (p Pipeline) RunCtx(ctx context.Context, exports []*Export, ontologyTriples []rdf.Triple) (LoadStats, error) {
	tbl := NewTable(p.Store)
	for i, e := range exports {
		if err := tbl.InsertExport(e); err != nil {
			return LoadStats{}, fmt.Errorf("staging: export %d: %w", i, err)
		}
	}
	tbl.InsertTriples(ontologyTriples)
	return tbl.BulkLoadCtx(ctx, p.Model, true)
}
