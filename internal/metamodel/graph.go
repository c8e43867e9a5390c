package metamodel

import (
	"context"
	"sort"
	"strings"

	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/store"
)

// Vocab is the vocabulary the graph is organised by, as dictionary IDs:
// the Table I hierarchy and schema edges, the fact predicates the
// services navigate, and the container and role classes. It is resolved
// once per read. A term the dictionary has never seen resolves to
// store.Wildcard, which Graph's probes answer with "no triples".
type Vocab struct {
	// LabelID is rdfs:label (Graph.Label is the navigation call).
	Type, SubClassOf, SubPropertyOf, Domain, Range, LabelID, Comment store.ID

	HasName, PartOf, InLayer, TaggedWith, Implements store.ID
	// Data flows: the lineage edge and the reified dm:Mapping around it.
	IsMappedTo, MapsFrom, MapsTo, RuleCond store.ID
	// The roles subject area.
	HasRole, OwnedBy store.ID

	Application, Schema, Table, View, SourceFile, Report, Role store.ID
}

func resolveVocab(dict *store.Dict) Vocab {
	id := func(iri string) store.ID {
		id, _ := dict.Lookup(rdf.IRI(iri))
		return id
	}
	return Vocab{
		Type: id(rdf.RDFType), SubClassOf: id(rdf.RDFSSubClassOf), SubPropertyOf: id(rdf.RDFSSubPropertyOf),
		Domain: id(rdf.RDFSDomain), Range: id(rdf.RDFSRange), LabelID: id(rdf.RDFSLabel), Comment: id(rdf.RDFSComment),

		HasName: id(rdf.MDWHasName), PartOf: id(rdf.MDWPartOf), InLayer: id(rdf.MDWInLayer),
		TaggedWith: id(rdf.MDWTaggedWith), Implements: id(rdf.MDWImplements),
		IsMappedTo: id(rdf.MDWIsMappedTo), MapsFrom: id(rdf.MDWMapsFrom), MapsTo: id(rdf.MDWMapsTo),
		RuleCond: id(rdf.MDWRuleCond),
		HasRole:  id(rdf.MDWHasRole), OwnedBy: id(rdf.MDWOwnedBy),

		Application: id(rdf.DMNS + "Application"), Schema: id(rdf.DMNS + "Schema"),
		Table: id(rdf.DMNS + "Table"), View: id(rdf.DMNS + "View"), SourceFile: id(rdf.DMNS + "Source_File"),
		Report: id(rdf.DMNS + "Report"), Role: id(rdf.DMNS + "Role"),
	}
}

// Graph is the read handle the services share: one triple source, the
// dictionary that decodes it, and the vocabulary resolved against that
// dictionary. Where the paper navigates the graph with a SPARQL listing
// per service, the services here make the calls below; a service builds
// one Graph per entry-point call and hands the same one down, so
// everything it reads comes from one view.
type Graph struct {
	Vocab
	Src  store.Source
	Dict *store.Dict
}

// NewGraph wraps a source the caller already holds.
func NewGraph(src store.Source, dict *store.Dict) *Graph {
	return &Graph{Vocab: resolveVocab(dict), Src: src, Dict: dict}
}

// OpenCtx returns the Graph over the named model ∪ its OWLPRIME index,
// the index brought up to date first.
func OpenCtx(ctx context.Context, st *store.Store, model string) (*Graph, error) {
	view, err := reason.ViewCtx(ctx, st, true, model)
	if err != nil {
		return nil, err
	}
	return NewGraph(view, st.Dict()), nil
}

// Open is OpenCtx with a background context.
func Open(st *store.Store, model string) (*Graph, error) {
	return OpenCtx(context.Background(), st, model)
}

// Objects, Subjects and Has probe the source for a predicate, or a
// predicate and a class, taken from the vocabulary. A Wildcard there is
// a term the dictionary lacks, not "anything": it matches no triple.

func (g *Graph) Objects(s, p store.ID) []store.ID {
	if p == store.Wildcard {
		return nil
	}
	return g.Src.Objects(s, p)
}

func (g *Graph) Subjects(p, o store.ID) []store.ID {
	if p == store.Wildcard || o == store.Wildcard {
		return nil
	}
	return g.Src.Subjects(p, o)
}

func (g *Graph) Has(s, p, o store.ID) bool {
	return p != store.Wildcard && o != store.Wildcard && g.Src.Contains(store.ETriple{S: s, P: p, O: o})
}

// literalID returns the ID of the node's first non-empty p value, or
// store.Wildcard when it has none.
func (g *Graph) literalID(id, p store.ID) store.ID {
	for _, v := range g.Objects(id, p) {
		if g.Dict.Term(v).Value != "" {
			return v
		}
	}
	return store.Wildcard
}

// literalOr returns the node's first non-empty p value, else the local
// name of its IRI.
func (g *Graph) literalOr(id, p store.ID) string {
	return DecodeOr(g.Dict, g.literalID(id, p), id)
}

// DecodeOr decodes a literal ID found for node: the literal's value, or
// the local name of node's IRI when lit is store.Wildcard. For the ID
// NameID returns it is the string Name returns.
func DecodeOr(dict *store.Dict, lit, node store.ID) string {
	if lit != store.Wildcard {
		return dict.Term(lit).Value
	}
	return rdf.LocalName(dict.Term(node).Value)
}

// Name returns the node's dm:hasName, else its local name.
func (g *Graph) Name(id store.ID) string { return g.literalOr(id, g.HasName) }

// NameID returns the ID of the literal Name decodes, or store.Wildcard
// when Name falls back to the local name — what a caller keeps to
// decode the name later, with DecodeOr, without the graph.
func (g *Graph) NameID(id store.ID) store.ID { return g.literalID(id, g.HasName) }

// Label returns the node's rdfs:label, else its local name.
func (g *Graph) Label(id store.ID) string { return g.literalOr(id, g.LabelID) }

// Classes returns the IRIs of the node's dm: classes, sorted — through
// an entailed source that is Figure 8's rdf:type step, inherited
// membership included.
func (g *Graph) Classes(id store.ID) []string {
	var out []string
	for _, c := range g.Objects(id, g.Type) {
		if iri := g.Dict.Term(c).Value; strings.HasPrefix(iri, rdf.DMNS) {
			out = append(out, iri)
		}
	}
	sort.Strings(out)
	return out
}

// ClassIDs resolves caller-supplied class IRIs; ok is false when the
// dictionary lacks one, in which case nothing can be an instance of all.
func (g *Graph) ClassIDs(iris []string) (ids []store.ID, ok bool) {
	for _, c := range iris {
		id, found := g.Dict.Lookup(rdf.IRI(c))
		if !found {
			return nil, false
		}
		ids = append(ids, id)
	}
	return ids, true
}

// IsA reports whether the node is an instance of every given class.
func (g *Graph) IsA(id store.ID, classes ...store.ID) bool {
	for _, c := range classes {
		if !g.Has(id, g.Type, c) {
			return false
		}
	}
	return true
}

// up is the one containment walk: the node itself, then its containers
// along dm:partOf — the entailed source holds the transitive closure, so
// one probe lists every ancestor — up to the first for which ok holds.
func (g *Graph) up(id store.ID, ok func(store.ID) bool) (store.ID, bool) {
	if ok(id) {
		return id, true
	}
	for _, anc := range g.Objects(id, g.PartOf) {
		if ok(anc) {
			return anc, true
		}
	}
	return store.Wildcard, false
}

// ContainerOf returns the node or its nearest listed container that is
// an instance of one of the classes: the application, schema, relation
// or report an item belongs to.
func (g *Graph) ContainerOf(id store.ID, classes ...store.ID) (store.ID, bool) {
	return g.up(id, func(n store.ID) bool {
		for _, c := range classes {
			if g.IsA(n, c) {
				return true
			}
		}
		return false
	})
}

// valueIs returns the test "one of the node's p values equals want,
// ignoring case".
func (g *Graph) valueIs(p store.ID, want string) func(store.ID) bool {
	want = strings.ToLower(want)
	return func(n store.ID) bool {
		for _, v := range g.Objects(n, p) {
			if strings.ToLower(g.Dict.Term(v).Value) == want {
				return true
			}
		}
		return false
	}
}

// Under reports whether the node is, or is contained in, a node named
// name — the Figure 6 area filter ("inbound", "integration", "mart").
func (g *Graph) Under(id store.ID, name string) bool {
	_, ok := g.up(id, g.valueIs(g.HasName, name))
	return ok
}

// OnLayer reports whether the node is, or is contained in, a node with
// dm:inLayer = layer ("conceptual" or "physical").
func (g *Graph) OnLayer(id store.ID, layer string) bool {
	_, ok := g.up(id, g.valueIs(g.InLayer, layer))
	return ok
}

// Tagged reports whether the node carries the governance tag.
func (g *Graph) Tagged(id store.ID, tag string) bool { return g.valueIs(g.TaggedWith, tag)(id) }
