package sparql

import (
	"fmt"
	"strings"

	"mdw/internal/rdf"
	"mdw/internal/rescache"
	"mdw/internal/store"
)

// Explain renders the evaluation plan of the query as indented text.
// Without a data source it plans from static selectivity heuristics;
// pass the actual source via ExplainOn to see the statistics-driven
// order with estimated cardinalities. Either way the rendering comes
// from the same Plan structure Run executes, so it can never drift from
// the evaluator.
func (q *Query) Explain() string {
	return q.Plan(nil, nil).String()
}

// ExplainOn renders the plan the query would execute against src: the
// statistics-driven join order annotated with the cardinality estimate
// that selected each pattern. When the results cache holds an entry for
// the query at the source's current generations, a trailing line says
// so — execution would not run this plan at all. The probe is a Peek,
// so explaining never skews the cache's hit/miss statistics.
func (q *Query) ExplainOn(src store.Source, dict *store.Dict) string {
	s := q.Plan(src, dict).String()
	if rc := rescache.Default(); rc != nil && q.resultsCacheable() {
		if genKey, ok := sourceVersion(src); ok && rc.Peek(q.resultCacheKey(genKey)) {
			s += "results cache: HIT — served without execution at current generations\n"
		}
	}
	return s
}

func explainNode(n NodePattern) string {
	if n.IsVar() {
		return "?" + n.Var
	}
	if n.Term.IsIRI() {
		return rdf.QName(n.Term.Value)
	}
	return n.Term.String()
}

func explainPath(p Path) string {
	switch pp := p.(type) {
	case PathIRI:
		return rdf.QName(pp.IRI)
	case PathVar:
		return "?" + pp.Name
	case PathInverse:
		return "^" + explainPath(pp.P)
	case PathSeq:
		parts := make([]string, len(pp.Parts))
		for i, part := range pp.Parts {
			parts[i] = explainPath(part)
		}
		return strings.Join(parts, "/")
	case PathAlt:
		parts := make([]string, len(pp.Parts))
		for i, part := range pp.Parts {
			parts[i] = explainPath(part)
		}
		return "(" + strings.Join(parts, "|") + ")"
	case PathRepeat:
		switch {
		case pp.Min == 0 && pp.Max == -1:
			return explainPath(pp.P) + "*"
		case pp.Min == 1 && pp.Max == -1:
			return explainPath(pp.P) + "+"
		case pp.Min == 0 && pp.Max == 1:
			return explainPath(pp.P) + "?"
		default:
			return fmt.Sprintf("%s{%d,%d}", explainPath(pp.P), pp.Min, pp.Max)
		}
	default:
		return "?"
	}
}

// exprString renders a filter expression for plan output.
func exprString(e Expr) string {
	switch x := e.(type) {
	case varExpr:
		return "?" + x.name
	case constExpr:
		if x.term.IsIRI() {
			return rdf.QName(x.term.Value)
		}
		return x.term.String()
	case notExpr:
		return "!" + exprString(x.e)
	case andExpr:
		return "(" + exprString(x.l) + " && " + exprString(x.r) + ")"
	case orExpr:
		return "(" + exprString(x.l) + " || " + exprString(x.r) + ")"
	case cmpExpr:
		return exprString(x.l) + " " + x.op + " " + exprString(x.r)
	case regexExpr:
		return fmt.Sprintf("REGEX(%s, %q)", exprString(x.text), x.re.String())
	case boundExpr:
		return "BOUND(?" + x.name + ")"
	case strFuncExpr:
		return x.fn + "(" + exprString(x.arg) + ")"
	case binStrFuncExpr:
		return x.fn + "(" + exprString(x.a) + ", " + exprString(x.b) + ")"
	default:
		return "<expr>"
	}
}
