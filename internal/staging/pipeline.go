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
// into the same staging tables before loading.
type Table struct {
	mu      sync.Mutex
	triples []rdf.Triple
}

// NewTable returns an empty staging table.
func NewTable() *Table { return &Table{} }

// InsertTriples appends raw triples (the ontology-file import path).
func (t *Table) InsertTriples(ts []rdf.Triple) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.triples = append(t.triples, ts...)
}

// InsertExport transforms one XML export and appends its triples.
func (t *Table) InsertExport(e *Export) error {
	ts, err := Transform(e)
	if err != nil {
		return err
	}
	t.InsertTriples(ts)
	return nil
}

// InsertXML parses and transforms one XML document string.
func (t *Table) InsertXML(doc string) error {
	e, err := Decode(doc)
	if err != nil {
		return fmt.Errorf("staging: decode: %w", err)
	}
	return t.InsertExport(e)
}

// Len returns the number of staged triples (duplicates included; the
// bulk load deduplicates).
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.triples)
}

// Triples returns a copy of the staged triples.
func (t *Table) Triples() []rdf.Triple {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]rdf.Triple, len(t.triples))
	copy(out, t.triples)
	return out
}

// Clear empties the staging table (after a successful load).
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.triples = t.triples[:0]
}

// LoadStats summarizes one bulk load.
type LoadStats struct {
	Staged   int // triples in the staging table
	Loaded   int // distinct triples added to the model
	Derived  int // entailed triples added to the index model
	Model    string
	IndexMod string
}

// BulkLoad moves the staged triples into the named model of st and, when
// materialize is true, brings the model's OWLPRIME index up to date — the
// "indexes for semantic web reasoning" of Figure 4. On success only the
// snapshot that was actually loaded is removed from the staging table:
// triples inserted concurrently while the load ran stay staged for the
// next load instead of being silently discarded.
func (t *Table) BulkLoad(st *store.Store, model string, materialize bool) (LoadStats, error) {
	return t.BulkLoadCtx(context.Background(), st, model, materialize)
}

// BulkLoadCtx is BulkLoad carrying a request context: the load runs
// under a "staging.bulkload" span — nested in the request's trace when
// ctx carries one, the root of a new trace otherwise — labelled with the
// staged/loaded/derived triple counts.
func (t *Table) BulkLoadCtx(ctx context.Context, st *store.Store, model string, materialize bool) (LoadStats, error) {
	sp, ctx := obs.StartChildCtx(ctx, "staging.bulkload")
	sp.SetLabel("model", model)
	defer sp.Finish()
	t0 := time.Now()
	t.mu.Lock()
	n := len(t.triples)
	staged := make([]rdf.Triple, n)
	copy(staged, t.triples)
	t.mu.Unlock()

	stats := LoadStats{Staged: n, Model: model}
	stats.Loaded = st.AddAll(model, staged)
	if materialize {
		idx, err := reason.MaterializeCtx(ctx, st, model)
		if err != nil {
			return stats, err
		}
		stats.IndexMod = idx
		stats.Derived = st.Len(idx)
	}
	// Trim exactly the loaded prefix under the same mutex the insert
	// paths use; anything appended since the snapshot shifts down.
	t.mu.Lock()
	k := copy(t.triples, t.triples[n:])
	t.triples = t.triples[:k]
	t.mu.Unlock()
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
	tbl := NewTable()
	for i, e := range exports {
		if err := tbl.InsertExport(e); err != nil {
			return LoadStats{}, fmt.Errorf("staging: export %d: %w", i, err)
		}
	}
	tbl.InsertTriples(ontologyTriples)
	return tbl.BulkLoadCtx(ctx, p.Store, p.Model, true)
}
