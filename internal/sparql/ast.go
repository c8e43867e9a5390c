// Package sparql implements the query substrate of the meta-data
// warehouse: a SPARQL subset sufficient for every query the paper issues
// (Listings 1 and 2) plus the search and lineage services built on top.
//
// Supported language: SELECT, ASK, and CONSTRUCT queries, PREFIX
// prologues, basic graph patterns with ';'/',' continuation and variable
// predicates, FILTER with the usual boolean/comparison operators, the
// REGEX/BOUND/STR/LCASE/UCASE/CONTAINS/STRSTARTS/STRENDS builtins and
// (NOT) EXISTS constraints, OPTIONAL, UNION, property paths (sequence
// '/', alternative '|', inverse '^', and the '*', '+', '?' closures),
// DISTINCT, GROUP BY with COUNT aggregates, ORDER BY, LIMIT/OFFSET.
package sparql

import (
	"slices"
	"sync/atomic"

	"mdw/internal/rdf"
)

// QueryKind discriminates query forms.
type QueryKind int

const (
	// SelectQuery is the SELECT form.
	SelectQuery QueryKind = iota
	// AskQuery is the ASK form.
	AskQuery
	// ConstructQuery is the CONSTRUCT form: it instantiates a triple
	// template once per solution and returns a graph.
	ConstructQuery
)

// Query is a parsed SPARQL query.
type Query struct {
	Kind     QueryKind
	Prefixes map[string]string
	// Text is the source text the query was parsed from (empty for
	// hand-constructed queries); the statement table keeps it as its
	// row's example.
	Text     string
	Distinct bool
	// Select holds the projection; empty means '*' (all visible variables).
	Select []SelectItem
	// Template holds the CONSTRUCT triple templates.
	Template []TriplePattern
	Where    *GroupPattern
	GroupBy  []string
	OrderBy  []OrderCond
	Limit    int // -1 when absent
	Offset   int

	// vars numbers the query's variables in order of first mention (the
	// parser does it): a variable's index is its slot in every solution
	// row the executor builds, and the slot its expressions read.
	vars []string

	// cachedFp memoizes Fingerprint(): the AST never mutates after
	// parsing, so the normalized rendering is computed at most once.
	cachedFp atomic.Pointer[string]
}

// slot returns the variable's slot (-1 for a name the query never mentions).
func (q *Query) slot(name string) int { return slices.Index(q.vars, name) }

// SelectItem is one projection entry: either a plain variable or an
// aggregate with an alias, e.g. (COUNT(?x) AS ?n).
type SelectItem struct {
	Var string
	Agg *Aggregate
}

// Aggregate is an aggregate function application.
type Aggregate struct {
	Func     string // "COUNT" (others may be added)
	Distinct bool
	Var      string // "" means COUNT(*)
	As       string
}

// OrderCond is one ORDER BY condition.
type OrderCond struct {
	Var  string
	Desc bool
}

// GroupPattern is a brace-delimited group of pattern elements.
type GroupPattern struct {
	Elements []Element
}

// Element is a group member: *TriplePattern, *Filter, *Optional, *Union,
// or a nested *GroupPattern.
type Element interface{ element() }

// TriplePattern is one subject–path–object pattern.
type TriplePattern struct {
	S, O NodePattern
	P    Path
}

func (*TriplePattern) element() {}

// NodePattern is a variable or a constant term in a triple pattern.
type NodePattern struct {
	Var  string
	Term rdf.Term
}

// IsVar reports whether the node is a variable.
func (n NodePattern) IsVar() bool { return n.Var != "" }

// Var returns a variable node pattern.
func VarNode(name string) NodePattern { return NodePattern{Var: name} }

// TermNode returns a constant node pattern.
func TermNode(t rdf.Term) NodePattern { return NodePattern{Term: t} }

// Filter wraps a boolean constraint expression.
type Filter struct {
	Expr Expr
}

func (*Filter) element() {}

// ExistsFilter is a FILTER EXISTS { … } or FILTER NOT EXISTS { … }
// constraint: a solution survives iff the pattern has (no) match under
// the solution's bindings.
type ExistsFilter struct {
	Pattern *GroupPattern
	Negated bool
}

func (*ExistsFilter) element() {}

// Optional is an OPTIONAL group (left join).
type Optional struct {
	Pattern *GroupPattern
}

func (*Optional) element() {}

// Union is a UNION of two groups.
type Union struct {
	Left, Right *GroupPattern
}

func (*Union) element() {}

func (*GroupPattern) element() {}

// Path is a property path expression.
type Path interface{ path() }

// PathIRI is a single predicate step.
type PathIRI struct {
	IRI string
}

// PathVar is a variable in predicate position (e.g. ?p in "?s ?p ?o").
// Per the SPARQL grammar a variable verb stands alone: it cannot be
// combined with path operators.
type PathVar struct {
	Name string
}

// PathSeq is a sequence path p1/p2/....
type PathSeq struct {
	Parts []Path
}

// PathAlt is an alternative path p1|p2|....
type PathAlt struct {
	Parts []Path
}

// PathInverse is an inverse step ^p.
type PathInverse struct {
	P Path
}

// PathRepeat applies a closure to a path: Min=0/Max=-1 for '*',
// Min=1/Max=-1 for '+', Min=0/Max=1 for '?'.
type PathRepeat struct {
	P   Path
	Min int
	Max int // -1 = unbounded
}

func (PathIRI) path()     {}
func (PathVar) path()     {}
func (PathSeq) path()     {}
func (PathAlt) path()     {}
func (PathInverse) path() {}
func (PathRepeat) path()  {}

// IsSimple reports whether p is a single forward predicate step, and if
// so returns its IRI.
func IsSimple(p Path) (string, bool) {
	pi, ok := p.(PathIRI)
	if !ok {
		return "", false
	}
	return pi.IRI, true
}
