package lineage

import (
	"strings"
	"testing"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// TestGraphWithoutMappingVocabulary: a store whose dictionary has never
// seen dt:isMappedTo or dm:partOf. Lineage is trivial (the root alone,
// whatever the class filter), there is no path to count, and a roll-up
// says what it lacks instead of rolling up along "any predicate".
func TestGraphWithoutMappingVocabulary(t *testing.T) {
	st := store.New()
	col := rdf.IRI(rdf.InstNS + "col")
	st.AddAll("m", []rdf.Triple{
		rdf.T(col, rdf.Type, rdf.IRI(rdf.DMNS+"Column")),
		rdf.T(col, rdf.IRI(rdf.MDWDataType), rdf.Literal("VARCHAR")),
	})
	svc := New(st, "m")
	for _, opt := range []Options{{}, {TargetClasses: []string{rdf.DMNS + "NoSuchClass"}}} {
		g, err := svc.Trace(col, Backward, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Nodes) != 1 || len(g.Edges) != 0 || g.Nodes[col] == nil || g.Nodes[col].Name != "col" {
			t.Errorf("Trace(%+v) = %d nodes, %d edges, root %+v; want the root alone, named by its IRI",
				opt, len(g.Nodes), len(g.Edges), g.Nodes[col])
		}
	}
	if n, err := svc.CountPaths(col, Forward, Options{}); err != nil || n != 0 {
		t.Errorf("CountPaths = %d, %v; want 0", n, err)
	}
	g, _ := svc.Trace(col, Backward, Options{})
	if _, err := svc.Rollup(g, LevelApplication); err == nil || !strings.Contains(err.Error(), "dm:partOf") {
		t.Errorf("Rollup without dm:partOf: err = %v", err)
	}
}
