package lineage

import (
	"context"
	"fmt"
	"time"

	"mdw/internal/metamodel"
	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/store"
)

// Level is the granularity of a lineage view — the Figure 7 frontend
// lets users "adjust ... the granularity level of the information items"
// by drilling between these levels on either side of the flow.
type Level int

const (
	// LevelAttribute shows individual columns/fields (the most detailed
	// level, "data flows from attributes to attributes").
	LevelAttribute Level = iota
	// LevelRelation rolls attributes up to their table, view, or file.
	LevelRelation
	// LevelSchema rolls up to the database schema.
	LevelSchema
	// LevelApplication rolls up to the owning application.
	LevelApplication
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelRelation:
		return "relation"
	case LevelSchema:
		return "schema"
	case LevelApplication:
		return "application"
	default:
		return "attribute"
	}
}

// levelClasses lists the dm: classes that identify a container at each
// roll-up level.
func levelClasses(k *metamodel.Graph, l Level) []store.ID {
	switch l {
	case LevelRelation:
		return []store.ID{k.Table, k.View, k.SourceFile}
	case LevelSchema:
		return []store.ID{k.Schema}
	case LevelApplication:
		return []store.ID{k.Application}
	}
	return nil
}

// RollupSides aggregates a lineage graph with independent granularities
// for the two sides of the Figure 7 frontend: the root's side (the
// "target objects" pane) at targetLevel and everything reached by the
// traversal (the "source objects" pane) at sourceLevel. "Any combination
// of left and right hand side is possible until the most detailed level
// is reached."
func (s *Service) RollupSides(g *Graph, sourceLevel, targetLevel Level) (*Graph, error) {
	if sourceLevel == targetLevel {
		return s.Rollup(g, sourceLevel)
	}
	k, err := metamodel.Open(s.st, s.model)
	if err != nil {
		return nil, err
	}
	return rollupOn(k, g, func(term rdf.Term) Level {
		if term == g.Root {
			return targetLevel
		}
		return sourceLevel
	})
}

// Rollup aggregates a lineage graph to the given granularity: every node
// is replaced by its container at that level (found through the
// transitive dm:partOf closure), parallel edges collapse, and self-loops
// created by intra-container mappings disappear. Nodes with no container
// at the level keep their identity.
func (s *Service) Rollup(g *Graph, level Level) (*Graph, error) {
	return s.RollupCtx(context.Background(), g, level)
}

// RollupCtx is Rollup carrying a request context: a traced context gets
// a "lineage.rollup" child span (a standalone call starts its own
// trace).
func (s *Service) RollupCtx(ctx context.Context, g *Graph, level Level) (*Graph, error) {
	if level == LevelAttribute {
		return g, nil
	}
	sp, ctx := obs.StartChildCtx(ctx, "lineage.rollup")
	sp.SetLabel("level", level.String())
	defer sp.Finish()
	k, err := metamodel.OpenCtx(ctx, s.st, s.model)
	if err != nil {
		return nil, err
	}
	return rollupOn(k, g, func(rdf.Term) Level { return level })
}

// rollupOn is the shared roll-up machinery: levelFor chooses the
// granularity per node.
func rollupOn(k *metamodel.Graph, g *Graph, levelFor func(rdf.Term) Level) (*Graph, error) {
	defer obsRollupHist.ObserveSince(time.Now())
	if k.PartOf == store.Wildcard {
		return nil, fmt.Errorf("lineage: model has no %s edges to roll up along", rdf.QName(rdf.MDWPartOf))
	}
	containerOf := func(term rdf.Term) rdf.Term {
		if id, ok := k.Dict.Lookup(term); ok {
			if c, ok := k.ContainerOf(id, levelClasses(k, levelFor(term))...); ok {
				return k.Dict.Term(c)
			}
		}
		return term
	}

	out := &Graph{Root: containerOf(g.Root), Direction: g.Direction, Nodes: map[rdf.Term]*Node{}}
	for term, node := range g.Nodes {
		c := containerOf(term)
		if existing, ok := out.Nodes[c]; ok {
			if node.Depth < existing.Depth {
				existing.Depth = node.Depth
			}
			continue
		}
		if cid, ok := k.Dict.Lookup(c); ok {
			out.Nodes[c] = describe(k, cid, node.Depth)
		} else {
			out.Nodes[c] = &Node{IRI: c, Name: rdf.LocalName(c.Value), Depth: node.Depth}
		}
	}
	seen := map[[2]rdf.Term]bool{}
	for _, e := range g.Edges {
		from, to := containerOf(e.From), containerOf(e.To)
		if from == to {
			continue // intra-container mapping
		}
		key := [2]rdf.Term{from, to}
		if seen[key] {
			continue
		}
		seen[key] = true
		out.Edges = append(out.Edges, Edge{From: from, To: to, Rule: e.Rule, Mapping: e.Mapping})
	}
	return out, nil
}
