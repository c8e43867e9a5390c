// Package history implements the full historization mechanism of
// Section III.A: "each meta-data graph is historized completely into a
// dedicated set of historization tables. ... The number of versions is
// following the release cycles of the major Credit Suisse applications,
// i.e. up to eight versions in one year."
//
// A Historian snapshots the current model into a per-version historization
// model, tracks release metadata, computes diffs between versions, and
// answers as-of queries by exposing any version as a read view.
package history

import (
	"fmt"
	"sort"
	"time"

	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/store"
)

// Version describes one historized release of the meta-data graph.
type Version struct {
	// Number is the 1-based release number.
	Number int
	// Tag is the release label, e.g. "2009-R3".
	Tag string
	// At is the release timestamp.
	At time.Time
	// Triples is the size of the historized graph.
	Triples int
	// Model is the historization model holding the snapshot.
	Model string
	// Pruned records that the version's historization model was dropped
	// by Prune: the metadata survives for stable numbering, but the
	// triples are gone and as-of views/diffs must refuse it.
	Pruned bool
}

// Historian manages the versions of one base model.
type Historian struct {
	st       *store.Store
	base     string
	versions []Version
}

// NewHistorian returns a historian for the named base model of st.
func NewHistorian(st *store.Store, baseModel string) *Historian {
	return &Historian{st: st, base: baseModel}
}

// Base returns the base model name.
func (h *Historian) Base() string { return h.base }

// histModel names the historization model for version n.
func (h *Historian) histModel(n int) string {
	return fmt.Sprintf("%s$HIST%04d", h.base, n)
}

// Snapshot historizes the current contents of the base model as a new
// version with the given tag and timestamp. Timestamps must be
// monotonic: AsOf binary-searches over them, so a snapshot dated before
// the latest version would silently corrupt every as-of answer — it is
// rejected instead. Equal timestamps are allowed (the newer version
// wins in AsOf).
func (h *Historian) Snapshot(tag string, at time.Time) (Version, error) {
	if last := len(h.versions); last > 0 && at.Before(h.versions[last-1].At) {
		return Version{}, fmt.Errorf("history: snapshot %q at %s predates version %d (%s); timestamps must not go backwards",
			tag, at.Format(time.RFC3339), h.versions[last-1].Number, h.versions[last-1].At.Format(time.RFC3339))
	}
	n := len(h.versions) + 1
	model := h.histModel(n)
	if err := h.st.CloneModel(h.base, model); err != nil {
		return Version{}, fmt.Errorf("history: snapshot: %w", err)
	}
	v := Version{
		Number:  n,
		Tag:     tag,
		At:      at,
		Triples: h.st.Len(model),
		Model:   model,
	}
	h.versions = append(h.versions, v)
	return v, nil
}

// Restore replaces the historian's version records, e.g. after loading a
// store dump whose historization models are already present. Versions
// must be ordered oldest first with contiguous numbers starting at 1 and
// non-decreasing timestamps (the invariant AsOf depends on).
func (h *Historian) Restore(versions []Version) error {
	for i, v := range versions {
		if v.Number != i+1 {
			return fmt.Errorf("history: restore: version %d out of order (number %d)", i+1, v.Number)
		}
		if i > 0 && v.At.Before(versions[i-1].At) {
			return fmt.Errorf("history: restore: version %d timestamp %s predates version %d",
				v.Number, v.At.Format(time.RFC3339), versions[i-1].Number)
		}
		if !v.Pruned && !h.st.HasModel(v.Model) {
			return fmt.Errorf("history: restore: historization model %q missing", v.Model)
		}
	}
	h.versions = append([]Version(nil), versions...)
	return nil
}

// Versions returns all versions, oldest first.
func (h *Historian) Versions() []Version {
	out := make([]Version, len(h.versions))
	copy(out, h.versions)
	return out
}

// Version returns the metadata for release n.
func (h *Historian) Version(n int) (Version, error) {
	if n < 1 || n > len(h.versions) {
		return Version{}, fmt.Errorf("history: no version %d (have %d)", n, len(h.versions))
	}
	return h.versions[n-1], nil
}

// AsOf returns the newest version at or before t.
func (h *Historian) AsOf(t time.Time) (Version, error) {
	idx := sort.Search(len(h.versions), func(i int) bool {
		return h.versions[i].At.After(t)
	})
	if idx == 0 {
		return Version{}, fmt.Errorf("history: no version at or before %s", t.Format(time.RFC3339))
	}
	return h.versions[idx-1], nil
}

// ViewOf returns a read view over the historized graph of version n.
// A pruned version has no triples left to view, so it is an error — not
// an empty view.
func (h *Historian) ViewOf(n int) (*store.View, error) {
	v, err := h.Version(n)
	if err != nil {
		return nil, err
	}
	if v.Pruned {
		return nil, fmt.Errorf("history: version %d (%s) pruned; its historized graph is gone", v.Number, v.Tag)
	}
	return reason.View(h.st, false, v.Model)
}

// Diff describes the triple-level changes between two versions.
type Diff struct {
	From, To int
	Added    []rdf.Triple
	Removed  []rdf.Triple
}

// DiffVersions computes the triples added and removed between versions a
// and b (a < b is conventional but not required). Diffing against a
// pruned version is an error: its model is empty, so the "diff" would
// claim every triple of the other side was added or removed.
func (h *Historian) DiffVersions(a, b int) (*Diff, error) {
	va, err := h.Version(a)
	if err != nil {
		return nil, err
	}
	vb, err := h.Version(b)
	if err != nil {
		return nil, err
	}
	if va.Pruned {
		return nil, fmt.Errorf("history: version %d (%s) pruned; cannot diff", va.Number, va.Tag)
	}
	if vb.Pruned {
		return nil, fmt.Errorf("history: version %d (%s) pruned; cannot diff", vb.Number, vb.Tag)
	}
	// One snapshot of both releases: a Store.ForEach callback that probed
	// the store again would re-enter its read lock, which deadlocks as
	// soon as a load is waiting for the write lock in between.
	both, _ := reason.View(h.st, false, va.Model, vb.Model)
	from, to := both.Of(va.Model), both.Of(vb.Model)
	dict := h.st.Dict()
	missing := func(in, from *store.View) (out []rdf.Triple) {
		in.ForEach(store.Wildcard, store.Wildcard, store.Wildcard, func(t store.ETriple) bool {
			if !from.Contains(t) {
				out = append(out, rdf.Triple{S: dict.Term(t.S), P: dict.Term(t.P), O: dict.Term(t.O)})
			}
			return true
		})
		return out
	}
	d := &Diff{From: a, To: b, Added: missing(to, from), Removed: missing(from, to)}
	rdf.SortTriples(d.Added)
	rdf.SortTriples(d.Removed)
	return d, nil
}

// GrowthReport summarizes how the graph grows across versions — the
// paper estimates "about 20 to 30% every year" on top of the release
// cadence.
type GrowthReport struct {
	Versions []Version
	// Growth[i] is the relative size change from version i to i+1.
	Growth []float64
}

// Growth computes the per-release growth factors.
func (h *Historian) Growth() GrowthReport {
	r := GrowthReport{Versions: h.Versions()}
	for i := 1; i < len(h.versions); i++ {
		prev := float64(h.versions[i-1].Triples)
		cur := float64(h.versions[i].Triples)
		if prev > 0 {
			r.Growth = append(r.Growth, cur/prev-1)
		} else {
			r.Growth = append(r.Growth, 0)
		}
	}
	return r
}

// Prune removes the historization models of all versions older than
// keep (the most recent `keep` versions are retained); version records
// stay so numbering is stable, but their models are dropped and the
// records are marked Pruned so ViewOf/DiffVersions refuse them instead
// of silently answering from an empty model.
func (h *Historian) Prune(keep int) int {
	if keep < 0 {
		keep = 0
	}
	dropped := 0
	for i := 0; i < len(h.versions)-keep; i++ {
		if h.st.DropModel(h.versions[i].Model) {
			dropped++
		}
		h.versions[i].Pruned = true
	}
	return dropped
}
