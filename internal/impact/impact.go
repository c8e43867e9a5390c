// Package impact implements the change-management use case the paper
// motivates lineage with: "Information lineage is critical to
// understanding how changes to an application or its interface may
// impact other applications or reports generated from the data
// warehouses."
//
// An analysis takes two historized releases, computes the meta-data
// diff, identifies the changed information items, and follows the data
// flows forward to everything that depends on them — down to the
// affected applications and reports.
package impact

import (
	"fmt"
	"sort"
	"strings"

	"mdw/internal/history"
	"mdw/internal/lineage"
	"mdw/internal/metamodel"
	"mdw/internal/rdf"
	"mdw/internal/store"
)

// Analysis is the outcome of a release impact analysis.
type Analysis struct {
	From, To history.Version
	// AddedTriples / RemovedTriples are the raw diff sizes.
	AddedTriples, RemovedTriples int
	// Changed lists the information items (instance nodes) whose
	// meta-data changed between the releases.
	Changed []rdf.Term
	// Downstream maps each changed item to the items that transitively
	// depend on it through the data flows.
	Downstream map[rdf.Term][]rdf.Term
	// Applications and Reports are the distinct affected applications
	// and reports (changed items included via their containers).
	Applications []rdf.Term
	Reports      []rdf.Term
}

// Analyzer runs release impact analyses over one base model.
type Analyzer struct {
	st    *store.Store
	model string
	hist  *history.Historian
}

// New returns an analyzer bound to the historian's base model.
func New(st *store.Store, hist *history.Historian) *Analyzer {
	return &Analyzer{st: st, model: hist.Base(), hist: hist}
}

// Analyze compares releases from and to, and reports the downstream
// impact of every changed item, evaluated against the *current* graph
// (which knows the full data-flow topology).
func (a *Analyzer) Analyze(from, to int) (*Analysis, error) {
	vf, err := a.hist.Version(from)
	if err != nil {
		return nil, err
	}
	vt, err := a.hist.Version(to)
	if err != nil {
		return nil, err
	}
	diff, err := a.hist.DiffVersions(from, to)
	if err != nil {
		return nil, err
	}
	an := &Analysis{
		From: vf, To: vt,
		AddedTriples:   len(diff.Added),
		RemovedTriples: len(diff.Removed),
		Downstream:     map[rdf.Term][]rdf.Term{},
	}

	// Changed items: instance subjects of diff triples. Schema nodes
	// (classes, properties) are excluded — hierarchy edits are not data
	// flows.
	changed := map[rdf.Term]bool{}
	note := func(ts []rdf.Triple) {
		for _, t := range ts {
			if t.S.IsIRI() && strings.HasPrefix(t.S.Value, rdf.InstNS) {
				changed[t.S] = true
			}
		}
	}
	note(diff.Added)
	note(diff.Removed)
	for item := range changed {
		an.Changed = append(an.Changed, item)
	}
	sort.Slice(an.Changed, func(i, j int) bool { return rdf.Compare(an.Changed[i], an.Changed[j]) < 0 })

	// Forward lineage from every changed item, all on one view of the
	// current graph.
	k, err := metamodel.Open(a.st, a.model)
	if err != nil {
		return nil, err
	}
	affected := map[rdf.Term]bool{}
	for _, item := range an.Changed {
		g, err := lineage.TraceOn(k, item, lineage.Forward, lineage.Options{})
		if err != nil {
			// Items removed in the newer release may be unknown to the
			// current graph; they simply have no remaining dependents.
			continue
		}
		deps := g.Reached()
		if len(deps) > 0 {
			an.Downstream[item] = deps
		}
		affected[item] = true
		for _, d := range deps {
			affected[d] = true
		}
	}

	// Roll the affected set up to applications and reports.
	apps := map[rdf.Term]bool{}
	reports := map[rdf.Term]bool{}
	for item := range affected {
		id, ok := k.Dict.Lookup(item)
		if !ok {
			continue
		}
		if app, ok := k.ContainerOf(id, k.Application); ok {
			apps[k.Dict.Term(app)] = true
		}
		// Reports consume items through dm:implements.
		for _, target := range k.Objects(id, k.Implements) {
			if k.IsA(target, k.Report) {
				reports[k.Dict.Term(target)] = true
			}
		}
	}
	for app := range apps {
		an.Applications = append(an.Applications, app)
	}
	for rep := range reports {
		an.Reports = append(an.Reports, rep)
	}
	sort.Slice(an.Applications, func(i, j int) bool { return rdf.Compare(an.Applications[i], an.Applications[j]) < 0 })
	sort.Slice(an.Reports, func(i, j int) bool { return rdf.Compare(an.Reports[i], an.Reports[j]) < 0 })
	return an, nil
}

// Format renders the analysis for the terminal.
func Format(an *Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "impact of release %s -> %s (+%d / -%d triples)\n",
		an.From.Tag, an.To.Tag, an.AddedTriples, an.RemovedTriples)
	fmt.Fprintf(&b, "  changed items:          %d\n", len(an.Changed))
	withDeps := 0
	for range an.Downstream {
		withDeps++
	}
	fmt.Fprintf(&b, "  items with dependents:  %d\n", withDeps)
	fmt.Fprintf(&b, "  affected applications:  %d\n", len(an.Applications))
	for _, app := range an.Applications {
		fmt.Fprintf(&b, "    %s\n", rdf.LocalName(app.Value))
	}
	fmt.Fprintf(&b, "  affected reports:       %d\n", len(an.Reports))
	for _, rep := range an.Reports {
		fmt.Fprintf(&b, "    %s\n", rdf.LocalName(rep.Value))
	}
	return b.String()
}
