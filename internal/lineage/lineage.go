// Package lineage implements the provenance tool of Section IV.B: given
// an information item, it follows the dt:isMappedTo edges of the
// meta-data graph to answer where the item's data comes from (backward
// lineage / provenance) and which items depend on it (forward lineage /
// impact analysis). The traversal path is exactly the paper's regular
// expression "(isMappedTo)* rdf:type" (Figure 8).
//
// Two extensions from the lessons-learned section are included:
//
//   - rule-condition filters: each mapping carries an optional rule
//     condition (dt:hasRuleCondition on the reified dm:Mapping node);
//     a RuleFilter prunes traversal to the mappings whose conditions can
//     fire, keeping the number of paths small "even with a significant
//     number of steps and stages" (Section V);
//   - roll-up navigation: lineage nodes can be rolled up from the
//     attribute level to their table, schema, or application, the
//     drill-down/scope adjustment of the Figure 7 frontend.
package lineage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"mdw/internal/metamodel"
	"mdw/internal/obs"
	"mdw/internal/rdf"
	"mdw/internal/store"
)

// Direction selects traversal orientation.
type Direction int

const (
	// Backward follows mappings from target to source (provenance).
	Backward Direction = iota
	// Forward follows mappings from source to target (impact analysis).
	Forward
)

// String names the direction.
func (d Direction) String() string {
	if d == Forward {
		return "forward"
	}
	return "backward"
}

// Edge is one mapping hop in a lineage graph.
type Edge struct {
	From, To rdf.Term
	// Rule is the mapping's rule condition ("" when none is recorded).
	Rule string
	// Mapping is the reified dm:Mapping node, when one exists.
	Mapping rdf.Term
}

// Node is one item in a lineage graph.
type Node struct {
	IRI  rdf.Term
	Name string
	// Classes lists the dm: classes of the node (via the OWLPRIME index,
	// i.e. the full "(isMappedTo)* rdf:type" answer of Figure 8).
	Classes []string
	// Depth is the hop distance from the root.
	Depth int
}

// Graph is the result of a lineage traversal.
type Graph struct {
	Root      rdf.Term
	Direction Direction
	Nodes     map[rdf.Term]*Node
	Edges     []Edge
}

// Options configure a traversal.
type Options struct {
	// MaxDepth bounds the number of hops (0 = unbounded).
	MaxDepth int
	// RuleFilter, when set, prunes mapping edges: only edges whose rule
	// condition satisfies the predicate are followed. Edges without a
	// recorded rule pass a nil-safe empty string.
	RuleFilter func(rule string) bool
	// TargetClasses, when non-empty, restricts reported nodes to
	// instances of ALL the given classes (besides the root) — steps 1
	// and 2 of the Section IV.B algorithm.
	TargetClasses []string
}

// ErrUnknownItem marks the error of asking about an item the graph does
// not hold — here and in the audit service, which traces lineage too.
// Test with errors.Is.
var ErrUnknownItem = errors.New("unknown item")

// Service answers lineage queries over one model of a store.
type Service struct {
	st    *store.Store
	model string
}

// New returns a lineage service for the named model.
func New(st *store.Store, model string) *Service {
	return &Service{st: st, model: model}
}

// Trace runs a lineage traversal from the item in the given direction.
func (s *Service) Trace(item rdf.Term, dir Direction, opt Options) (*Graph, error) {
	return s.TraceCtx(context.Background(), item, dir, opt)
}

// TraceCtx is Trace carrying a request context: the traversal runs under
// a "lineage.trace" span, nested in the request's trace when ctx carries
// one, the root of a new trace otherwise.
func (s *Service) TraceCtx(ctx context.Context, item rdf.Term, dir Direction, opt Options) (*Graph, error) {
	sp, ctx := obs.StartChildCtx(ctx, "lineage.trace")
	sp.SetLabel("item", item.Value).SetLabel("direction", dir.String())
	defer sp.Finish()
	defer obsTraceHist.ObserveSince(time.Now())
	k, err := metamodel.OpenCtx(ctx, s.st, s.model)
	if err != nil {
		return nil, err
	}
	return TraceOn(k, item, dir, opt)
}

// TraceOn is the traversal itself, on a graph the caller already holds:
// audit and impact trace lineage as a step of their own read and stay on
// the view they opened. The span and the latency observation belong to
// the TraceCtx entry point, so a nested traversal adds neither.
func TraceOn(k *metamodel.Graph, item rdf.Term, dir Direction, opt Options) (*Graph, error) {
	rootID, ok := k.Dict.Lookup(item)
	if !ok {
		return nil, fmt.Errorf("lineage: %w %s", ErrUnknownItem, item)
	}
	g := &Graph{Root: item, Direction: dir, Nodes: map[rdf.Term]*Node{}}
	classFilter, known := k.ClassIDs(opt.TargetClasses)
	if !known && k.IsMappedTo != store.Wildcard {
		return g, nil // nothing is an instance of a class the graph has never seen
	}
	// (A graph without any mappings has trivial lineage whatever the
	// filter: the walk below finds no hop and reports the root alone.)
	g.Nodes[item] = describe(k, rootID, 0)

	type qe struct {
		id    store.ID
		depth int
	}
	visited := map[store.ID]bool{rootID: true}
	queue := []qe{{rootID, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if opt.MaxDepth > 0 && cur.depth >= opt.MaxDepth {
			continue
		}
		for _, nxt := range dir.neighbours(k, cur.id) {
			from, to := dir.edge(cur.id, nxt)
			rule, mapping := mappingRule(k, from, to)
			if opt.RuleFilter != nil && !opt.RuleFilter(rule) {
				continue
			}
			g.Edges = append(g.Edges, Edge{From: k.Dict.Term(from), To: k.Dict.Term(to), Rule: rule, Mapping: mapping})
			if visited[nxt] {
				continue
			}
			visited[nxt] = true
			if k.IsA(nxt, classFilter...) {
				g.Nodes[k.Dict.Term(nxt)] = describe(k, nxt, cur.depth+1)
			}
			queue = append(queue, qe{nxt, cur.depth + 1})
		}
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		if c := rdf.Compare(g.Edges[i].From, g.Edges[j].From); c != 0 {
			return c < 0
		}
		return rdf.Compare(g.Edges[i].To, g.Edges[j].To) < 0
	})
	return g, nil
}

// neighbours returns the items one dt:isMappedTo hop from id in the
// direction; edge orients such a hop source → target.
func (d Direction) neighbours(k *metamodel.Graph, id store.ID) []store.ID {
	if d == Backward {
		return k.Subjects(k.IsMappedTo, id)
	}
	return k.Objects(id, k.IsMappedTo)
}

func (d Direction) edge(id, neighbour store.ID) (from, to store.ID) {
	if d == Backward {
		return neighbour, id
	}
	return id, neighbour
}

// mappingRule finds the reified mapping node for the (from, to) hop and
// returns its rule condition.
func mappingRule(k *metamodel.Graph, from, to store.ID) (string, rdf.Term) {
	for _, m := range k.Subjects(k.MapsFrom, from) {
		if k.Has(m, k.MapsTo, to) {
			for _, r := range k.Objects(m, k.RuleCond) {
				return k.Dict.Term(r).Value, k.Dict.Term(m)
			}
			return "", k.Dict.Term(m)
		}
	}
	return "", rdf.Term{}
}

// describe builds the Node record: name and dm: classes (through the
// entailment index, matching Figure 8's rdf:type step).
func describe(k *metamodel.Graph, id store.ID, depth int) *Node {
	return &Node{IRI: k.Dict.Term(id), Name: k.Name(id), Classes: k.Classes(id), Depth: depth}
}

// Sources returns the ultimate origins of the item: backward-lineage
// leaves with no further incoming mapping.
func (s *Service) Sources(item rdf.Term, opt Options) ([]rdf.Term, error) {
	g, err := s.Trace(item, Backward, opt)
	if err != nil {
		return nil, err
	}
	// Edges run upstream→downstream; an ultimate origin is a node that
	// nothing maps into, i.e. one that never appears as an edge target.
	// When the item has no provenance at all, the item itself is the
	// (trivial) source.
	isTarget := map[rdf.Term]bool{}
	for _, e := range g.Edges {
		isTarget[e.To] = true
	}
	var out []rdf.Term
	for term := range g.Nodes {
		if !isTarget[term] {
			out = append(out, term)
		}
	}
	sort.Slice(out, func(i, j int) bool { return rdf.Compare(out[i], out[j]) < 0 })
	return out, nil
}

// Impact returns every item that (transitively) depends on the given
// item — the "which applications are affected by this change" question
// of the paper.
func (s *Service) Impact(item rdf.Term, opt Options) ([]rdf.Term, error) {
	g, err := s.Trace(item, Forward, opt)
	if err != nil {
		return nil, err
	}
	return g.Reached(), nil
}

// Reached returns every reported node but the root, sorted.
func (g *Graph) Reached() []rdf.Term {
	var out []rdf.Term
	for term := range g.Nodes {
		if term != g.Root {
			out = append(out, term)
		}
	}
	sort.Slice(out, func(i, j int) bool { return rdf.Compare(out[i], out[j]) < 0 })
	return out
}

// CountPaths counts the distinct mapping paths from the item in the
// given direction (path-explosion analysis of Section V). The graph is
// expected to be acyclic — mapping chains are — and paths are counted
// with memoization, so the count itself stays cheap even when it is
// exponential in the number of stages.
func (s *Service) CountPaths(item rdf.Term, dir Direction, opt Options) (int, error) {
	k, err := metamodel.Open(s.st, s.model)
	if err != nil {
		return 0, err
	}
	rootID, ok := k.Dict.Lookup(item)
	if !ok {
		return 0, fmt.Errorf("lineage: %w %s", ErrUnknownItem, item)
	}
	if k.IsMappedTo == store.Wildcard {
		return 0, nil
	}
	memo := map[store.ID]int{}
	onStack := map[store.ID]bool{}
	var count func(store.ID) int
	count = func(id store.ID) int {
		if n, ok := memo[id]; ok {
			return n
		}
		if onStack[id] {
			return 0 // defensive: ignore cycles
		}
		onStack[id] = true
		defer delete(onStack, id)
		n, leaf := 0, true
		for _, nxt := range dir.neighbours(k, id) {
			if opt.RuleFilter != nil {
				from, to := dir.edge(id, nxt)
				if rule, _ := mappingRule(k, from, to); !opt.RuleFilter(rule) {
					continue
				}
			}
			leaf = false
			n += count(nxt)
		}
		if leaf {
			n = 1 // the path ending here
		}
		memo[id] = n
		return n
	}
	return count(rootID), nil
}

// Format renders a lineage graph for the terminal, one edge per line in
// topological (From → To) pairs, with rules when present — a textual
// stand-in for the Figure 7 frontend.
func Format(g *Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s lineage of %s (%d nodes, %d edges)\n",
		g.Direction, rdf.LocalName(g.Root.Value), len(g.Nodes), len(g.Edges))
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  %s -> %s", rdf.LocalName(e.From.Value), rdf.LocalName(e.To.Value))
		if e.Rule != "" {
			fmt.Fprintf(&b, "  [rule: %s]", e.Rule)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
