// Package metamodel implements the organizing taxonomy of the meta-data
// warehouse graph: Table I of the paper. Nodes are classified as Classes,
// Properties, Instances, or Values; edges fall into the three categories
// Facts, Meta-data schema, and Hierarchies.
//
// The paper stresses that the warehouse deliberately has no fixed
// meta-data model — "only the RDF model needs to be followed" — but the
// graph is still *organized* along this taxonomy so queries can navigate
// it. This package recovers that organization from a raw triple source:
// it classifies every node, categorizes every edge, produces the Table I
// census, and validates the conventions the paper relies on. Graph is
// the read handle through which the services navigate that organization.
package metamodel

import (
	"fmt"
	"sort"
	"strings"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// NodeKind is a Table I node type (the table's x-axis).
type NodeKind int

const (
	// KindUnknown marks nodes that match no convention.
	KindUnknown NodeKind = iota
	// KindClass marks classes (e.g. dm:Customer, dm:Table).
	KindClass
	// KindProperty marks properties (e.g. dm:hasName).
	KindProperty
	// KindInstance marks instances (e.g. a specific column node).
	KindInstance
	// KindValue marks literal values (e.g. "TCD100", 100).
	KindValue
)

// String returns the Table I name of the kind.
func (k NodeKind) String() string {
	switch k {
	case KindClass:
		return "Class"
	case KindProperty:
		return "Property"
	case KindInstance:
		return "Instance"
	case KindValue:
		return "Value"
	default:
		return "Unknown"
	}
}

// EdgeCategory is a Table I edge category (the table's y-axis).
type EdgeCategory int

const (
	// CatUnknown marks edges outside the conventions.
	CatUnknown EdgeCategory = iota
	// CatFact holds instance/value relationships (the bottom layer of
	// Figure 3).
	CatFact
	// CatSchema holds class↔property relationships (rdfs:domain,
	// rdfs:range, class and property declarations).
	CatSchema
	// CatHierarchy holds class-to-class and property-to-property
	// relationships (rdfs:subClassOf, rdfs:subPropertyOf).
	CatHierarchy
)

// String returns the Table I name of the category.
func (c EdgeCategory) String() string {
	switch c {
	case CatFact:
		return "Facts"
	case CatSchema:
		return "Meta-data schema"
	case CatHierarchy:
		return "Hierarchies"
	default:
		return "Unknown"
	}
}

// Classifier assigns Table I node kinds to the nodes of one source.
type Classifier struct {
	dict  *store.Dict
	kinds map[store.ID]NodeKind
}

// Classify scans the source once and derives node kinds from the
// conventions of Section III.B:
//
//   - nodes typed owl:Class, or appearing on either side of
//     rdfs:subClassOf, or as the object of rdf:type or rdfs:domain or
//     rdfs:range, are Classes;
//   - nodes typed rdf:Property / owl:ObjectProperty /
//     owl:DatatypeProperty, appearing on either side of
//     rdfs:subPropertyOf, as the subject of rdfs:domain/range, or in
//     predicate position, are Properties;
//   - literals are Values;
//   - every remaining subject or object is an Instance.
//
// Class/property evidence wins over instance evidence, matching the
// paper's observation that classes are themselves nodes of the graph.
func Classify(src store.Source, dict *store.Dict) *Classifier {
	c := &Classifier{dict: dict, kinds: make(map[store.ID]NodeKind)}

	v := resolveVocab(dict)
	classTypes := map[store.ID]bool{}
	propTypes := map[store.ID]bool{}
	for _, iri := range []string{rdf.OWLClass, rdf.RDFSClass} {
		if id, ok := dict.Lookup(rdf.IRI(iri)); ok {
			classTypes[id] = true
		}
	}
	for _, iri := range []string{rdf.RDFProperty, rdf.OWLObjectProperty, rdf.OWLDatatypeProperty, rdf.OWLSymmetricProperty, rdf.OWLTransitiveProperty} {
		if id, ok := dict.Lookup(rdf.IRI(iri)); ok {
			propTypes[id] = true
		}
	}

	promote := func(id store.ID, k NodeKind) {
		cur := c.kinds[id]
		// Precedence: Value (literals, fixed) > Class > Property > Instance.
		if cur == KindValue {
			return
		}
		switch {
		case cur == KindUnknown:
			c.kinds[id] = k
		case k == KindClass && cur != KindClass:
			c.kinds[id] = KindClass
		case k == KindProperty && cur == KindInstance:
			c.kinds[id] = KindProperty
		}
	}

	src.ForEach(store.Wildcard, store.Wildcard, store.Wildcard, func(t store.ETriple) bool {
		if c.dict.Term(t.O).IsLiteral() {
			c.kinds[t.O] = KindValue
		}
		promote(t.P, KindProperty)
		switch t.P {
		case v.Type:
			if classTypes[t.O] {
				promote(t.S, KindClass)
			} else if propTypes[t.O] {
				promote(t.S, KindProperty)
			} else {
				promote(t.S, KindInstance)
				promote(t.O, KindClass)
			}
		case v.SubClassOf:
			promote(t.S, KindClass)
			promote(t.O, KindClass)
		case v.SubPropertyOf:
			promote(t.S, KindProperty)
			promote(t.O, KindProperty)
		case v.Domain, v.Range:
			promote(t.S, KindProperty)
			promote(t.O, KindClass)
		default:
			promote(t.S, KindInstance)
			if !c.dict.Term(t.O).IsLiteral() {
				promote(t.O, KindInstance)
			}
		}
		return true
	})
	return c
}

// KindOfID returns the kind for an encoded node ID.
func (c *Classifier) KindOfID(id store.ID) NodeKind { return c.kinds[id] }

// KindOf returns the kind for a term (KindUnknown when absent).
func (c *Classifier) KindOf(t rdf.Term) NodeKind {
	id, ok := c.dict.Lookup(t)
	if !ok {
		return KindUnknown
	}
	return c.kinds[id]
}

// Nodes returns the IDs of all nodes with the given kind.
func (c *Classifier) Nodes(k NodeKind) []store.ID {
	var out []store.ID
	for id, kind := range c.kinds {
		if kind == k {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CategorizeEdge assigns the Table I edge category given the predicate
// and the kinds of the endpoints.
func CategorizeEdge(pred rdf.Term, sKind, oKind NodeKind) EdgeCategory {
	switch pred.Value {
	case rdf.RDFSSubClassOf, rdf.RDFSSubPropertyOf, rdf.OWLEquivalentClass, rdf.OWLEquivalentProperty:
		return CatHierarchy
	case rdf.RDFSDomain, rdf.RDFSRange, rdf.RDFSLabel, rdf.RDFSComment:
		if sKind == KindClass || sKind == KindProperty {
			return CatSchema
		}
		return CatFact
	case rdf.RDFType:
		switch oKind {
		case KindClass:
			if sKind == KindClass || sKind == KindProperty {
				return CatSchema // declarations like (C, rdf:type, owl:Class)
			}
			return CatFact // instance-to-class membership
		default:
			return CatFact
		}
	}
	if sKind == KindClass && oKind == KindProperty || sKind == KindProperty && oKind == KindClass {
		return CatSchema
	}
	return CatFact
}

// Cell identifies one cell of Table I: an edge category with the node
// kinds of the edge's endpoints.
type Cell struct {
	Category EdgeCategory
	Subject  NodeKind
	Object   NodeKind
}

// String renders the cell as "Facts: Instance→Value".
func (c Cell) String() string {
	return fmt.Sprintf("%s: %s→%s", c.Category, c.Subject, c.Object)
}

// Census is the Table I population count of one graph.
type Census struct {
	Nodes map[NodeKind]int
	Edges map[EdgeCategory]int
	Cells map[Cell]int
	Total int
}

// TakeCensus classifies the source and counts nodes and edges per
// Table I cell.
func TakeCensus(src store.Source, dict *store.Dict) (*Census, *Classifier) {
	cls := Classify(src, dict)
	cs := &Census{
		Nodes: map[NodeKind]int{},
		Edges: map[EdgeCategory]int{},
		Cells: map[Cell]int{},
	}
	for _, kind := range cls.kinds {
		cs.Nodes[kind]++
	}
	src.ForEach(store.Wildcard, store.Wildcard, store.Wildcard, func(t store.ETriple) bool {
		sK, oK := cls.kinds[t.S], cls.kinds[t.O]
		cat := CategorizeEdge(dict.Term(t.P), sK, oK)
		cs.Edges[cat]++
		cs.Cells[Cell{cat, sK, oK}]++
		cs.Total++
		return true
	})
	return cs, cls
}

// NodeTotal returns the total node count.
func (c *Census) NodeTotal() int {
	n := 0
	for _, v := range c.Nodes {
		n += v
	}
	return n
}

// Table1 renders the census in the shape of the paper's Table I: node
// types across the top, edge categories down the side, cell counts in
// the body.
func (c *Census) Table1() string {
	kinds := []NodeKind{KindClass, KindProperty, KindInstance, KindValue}
	cats := []EdgeCategory{CatHierarchy, CatSchema, CatFact}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s", "")
	for _, k := range kinds {
		fmt.Fprintf(&b, "%12s", k)
	}
	fmt.Fprintf(&b, "%12s\n", "total")
	fmt.Fprintf(&b, "%-18s", "nodes")
	for _, k := range kinds {
		fmt.Fprintf(&b, "%12d", c.Nodes[k])
	}
	fmt.Fprintf(&b, "%12d\n", c.NodeTotal())
	for _, cat := range cats {
		fmt.Fprintf(&b, "%-18s", cat.String())
		for _, k := range kinds {
			// Sum over object kinds for edges whose subject kind is k.
			n := 0
			for cell, cnt := range c.Cells {
				if cell.Category == cat && cell.Subject == k {
					n += cnt
				}
			}
			fmt.Fprintf(&b, "%12d", n)
		}
		fmt.Fprintf(&b, "%12d\n", c.Edges[cat])
	}
	fmt.Fprintf(&b, "%-18s%12s%12s%12s%12s%12d\n", "edges total", "", "", "", "", c.Total)
	return b.String()
}

// Issue is one validation finding.
type Issue struct {
	Code    string
	Subject rdf.Term
	Detail  string
}

func (i Issue) String() string {
	return fmt.Sprintf("%s: %s (%s)", i.Code, i.Subject, i.Detail)
}

// Validate checks the conventions the warehouse relies on and returns
// the violations found:
//
//	untyped-instance  an instance with no rdf:type edge
//	unlabeled-class   a class without an rdfs:label (search groups by label)
//	literal-subject   a literal in subject position
//	dangling-property a property that is never used in a statement
func Validate(src store.Source, dict *store.Dict) []Issue {
	cls := Classify(src, dict)
	var issues []Issue
	v := resolveVocab(dict)

	usedPreds := map[store.ID]bool{}
	litSubjects := map[store.ID]bool{}
	src.ForEach(store.Wildcard, store.Wildcard, store.Wildcard, func(t store.ETriple) bool {
		usedPreds[t.P] = true
		if dict.Term(t.S).IsLiteral() {
			litSubjects[t.S] = true
		}
		return true
	})
	for id := range litSubjects {
		issues = append(issues, Issue{"literal-subject", dict.Term(id), "literals must not be subjects"})
	}
	for id, kind := range cls.kinds {
		switch kind {
		case KindInstance:
			if v.Type == store.Wildcard || src.Count(id, v.Type, store.Wildcard) == 0 {
				issues = append(issues, Issue{"untyped-instance", dict.Term(id), "instance has no rdf:type"})
			}
		case KindClass:
			if v.LabelID == store.Wildcard || src.Count(id, v.LabelID, store.Wildcard) == 0 {
				issues = append(issues, Issue{"unlabeled-class", dict.Term(id), "class has no rdfs:label"})
			}
		case KindProperty:
			if !usedPreds[id] {
				issues = append(issues, Issue{"dangling-property", dict.Term(id), "property never used as predicate"})
			}
		}
	}
	sort.Slice(issues, func(i, j int) bool {
		if issues[i].Code != issues[j].Code {
			return issues[i].Code < issues[j].Code
		}
		return rdf.Compare(issues[i].Subject, issues[j].Subject) < 0
	})
	return issues
}
