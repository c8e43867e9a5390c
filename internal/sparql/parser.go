package sparql

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"mdw/internal/obs"
	"mdw/internal/rdf"
)

// ParseCtx is Parse carrying a request context: a traced context gets a
// "sparql parse" child span (obs.ChildCtx), an untraced one pays only
// the context lookup.
func ParseCtx(ctx context.Context, query string) (*Query, error) {
	sp, _ := obs.ChildCtx(ctx, "sparql parse")
	defer sp.Finish()
	return Parse(query)
}

// Parse parses a SPARQL query in the supported subset.
func Parse(query string) (*Query, error) {
	t0 := time.Now()
	toks, err := lex(query)
	if err != nil {
		return nil, err
	}
	p := &qparser{toks: toks, prefixes: map[string]string{}}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	q.Text = query
	obsParseHist.ObserveSince(t0)
	return q, nil
}

// MustParse parses a query and panics on error; intended for statically
// known queries in services and tests.
func MustParse(query string) *Query {
	q, err := Parse(query)
	if err != nil {
		panic(err)
	}
	return q
}

type qparser struct {
	toks     []token
	pos      int
	prefixes map[string]string
	vars     []string // Query.vars: every variable, numbered by first mention
}

// slot returns the variable's slot, numbering it if it is new.
func (p *qparser) slot(name string) int {
	if i := slices.Index(p.vars, name); i >= 0 {
		return i
	}
	p.vars = append(p.vars, name)
	return len(p.vars) - 1
}

func (p *qparser) peek() token { return p.toks[p.pos] }
func (p *qparser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *qparser) atEOF() bool { return p.peek().kind == tkEOF }

func (p *qparser) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *qparser) expect(k tokKind, what string) (token, error) {
	if p.peek().kind != k {
		return token{}, p.errf("expected %s, got %q", what, p.peek().text)
	}
	return p.next(), nil
}

func (p *qparser) keyword(kw string) bool {
	if p.peek().kind == tkKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *qparser) query() (*Query, error) {
	q := &Query{Limit: -1, Prefixes: p.prefixes}
	for _, t := range p.toks {
		if t.kind == tkVar {
			p.slot(t.text)
		}
	}
	q.vars = p.vars
	for p.keyword("PREFIX") {
		if err := p.prefixDecl(); err != nil {
			return nil, err
		}
	}
	switch {
	case p.keyword("SELECT"):
		q.Kind = SelectQuery
		if p.keyword("DISTINCT") {
			q.Distinct = true
		}
		if err := p.selectItems(q); err != nil {
			return nil, err
		}
	case p.keyword("ASK"):
		q.Kind = AskQuery
	case p.keyword("CONSTRUCT"):
		q.Kind = ConstructQuery
		tmpl, err := p.constructTemplate()
		if err != nil {
			return nil, err
		}
		q.Template = tmpl
	default:
		return nil, p.errf("expected SELECT, ASK, or CONSTRUCT")
	}
	p.keyword("WHERE") // optional
	g, err := p.groupPattern()
	if err != nil {
		return nil, err
	}
	q.Where = g
	if err := p.modifiers(q); err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing token %q", p.peek().text)
	}
	return q, nil
}

func (p *qparser) prefixDecl() error {
	t, err := p.expect(tkPName, "prefix name")
	if err != nil {
		return err
	}
	name := t.text
	if name == "" || name[len(name)-1] != ':' {
		return p.errf("prefix name must end with ':'")
	}
	iri, err := p.expect(tkIRI, "IRI")
	if err != nil {
		return err
	}
	p.prefixes[name[:len(name)-1]] = iri.text
	return nil
}

func (p *qparser) selectItems(q *Query) error {
	if p.peek().kind == tkStar {
		p.next()
		return nil
	}
	for {
		switch p.peek().kind {
		case tkVar:
			q.Select = append(q.Select, SelectItem{Var: p.next().text})
		case tkLParen:
			p.next()
			agg, err := p.aggregate()
			if err != nil {
				return err
			}
			q.Select = append(q.Select, SelectItem{Agg: agg})
		default:
			if len(q.Select) == 0 {
				return p.errf("expected projection variable")
			}
			return nil
		}
	}
}

func (p *qparser) aggregate() (*Aggregate, error) {
	kw, err := p.expect(tkKeyword, "aggregate function")
	if err != nil {
		return nil, err
	}
	if kw.text != "COUNT" {
		return nil, p.errf("unsupported aggregate %q", kw.text)
	}
	if _, err := p.expect(tkLParen, "'('"); err != nil {
		return nil, err
	}
	agg := &Aggregate{Func: "COUNT"}
	if p.keyword("DISTINCT") {
		agg.Distinct = true
	}
	switch p.peek().kind {
	case tkStar:
		p.next()
	case tkVar:
		agg.Var = p.next().text
	default:
		return nil, p.errf("expected '*' or variable in COUNT")
	}
	if _, err := p.expect(tkRParen, "')'"); err != nil {
		return nil, err
	}
	if !p.keyword("AS") {
		return nil, p.errf("expected AS in aggregate projection")
	}
	v, err := p.expect(tkVar, "alias variable")
	if err != nil {
		return nil, err
	}
	agg.As = v.text
	if _, err := p.expect(tkRParen, "')'"); err != nil {
		return nil, err
	}
	return agg, nil
}

func (p *qparser) modifiers(q *Query) error {
	for {
		switch {
		case p.keyword("GROUP"):
			if !p.keyword("BY") {
				return p.errf("expected BY after GROUP")
			}
			for p.peek().kind == tkVar {
				q.GroupBy = append(q.GroupBy, p.next().text)
			}
			if len(q.GroupBy) == 0 {
				return p.errf("expected grouping variable")
			}
		case p.keyword("ORDER"):
			if !p.keyword("BY") {
				return p.errf("expected BY after ORDER")
			}
			for more := true; more; {
				switch {
				case p.keyword("ASC"):
					v, err := p.parenVar()
					if err != nil {
						return err
					}
					q.OrderBy = append(q.OrderBy, OrderCond{Var: v})
				case p.keyword("DESC"):
					v, err := p.parenVar()
					if err != nil {
						return err
					}
					q.OrderBy = append(q.OrderBy, OrderCond{Var: v, Desc: true})
				case p.peek().kind == tkVar:
					q.OrderBy = append(q.OrderBy, OrderCond{Var: p.next().text})
				default:
					if len(q.OrderBy) == 0 {
						return p.errf("expected ordering condition")
					}
					more = false
				}
			}
		case p.keyword("LIMIT"):
			t, err := p.expect(tkInteger, "integer")
			if err != nil {
				return err
			}
			n, err := strconv.Atoi(t.text)
			if err != nil || n < 0 {
				return p.errf("invalid LIMIT %q", t.text)
			}
			q.Limit = n
		case p.keyword("OFFSET"):
			t, err := p.expect(tkInteger, "integer")
			if err != nil {
				return err
			}
			n, err := strconv.Atoi(t.text)
			if err != nil || n < 0 {
				return p.errf("invalid OFFSET %q", t.text)
			}
			q.Offset = n
		default:
			return nil
		}
	}
}

func (p *qparser) parenVar() (string, error) {
	if _, err := p.expect(tkLParen, "'('"); err != nil {
		return "", err
	}
	v, err := p.expect(tkVar, "variable")
	if err != nil {
		return "", err
	}
	if _, err := p.expect(tkRParen, "')'"); err != nil {
		return "", err
	}
	return v.text, nil
}

func (p *qparser) groupPattern() (*GroupPattern, error) {
	if _, err := p.expect(tkLBrace, "'{'"); err != nil {
		return nil, err
	}
	g := &GroupPattern{}
	for {
		switch p.peek().kind {
		case tkRBrace:
			p.next()
			return g, nil
		case tkEOF:
			return nil, p.errf("unterminated group pattern")
		case tkDot:
			p.next()
		case tkKeyword:
			switch p.peek().text {
			case "FILTER":
				p.next()
				// FILTER EXISTS { … } / FILTER NOT EXISTS { … } are
				// pattern-level constraints, not value expressions.
				if p.peek().kind == tkKeyword && (p.peek().text == "EXISTS" || p.peek().text == "NOT") {
					ef, err := p.existsFilter()
					if err != nil {
						return nil, err
					}
					g.Elements = append(g.Elements, ef)
					continue
				}
				e, err := p.filterExpr()
				if err != nil {
					return nil, err
				}
				g.Elements = append(g.Elements, &Filter{Expr: e})
			case "OPTIONAL":
				p.next()
				inner, err := p.groupPattern()
				if err != nil {
					return nil, err
				}
				g.Elements = append(g.Elements, &Optional{Pattern: inner})
			default:
				return nil, p.errf("unexpected keyword %q in group", p.peek().text)
			}
		case tkLBrace:
			inner, err := p.groupPattern()
			if err != nil {
				return nil, err
			}
			// A nested group may be the left side of a UNION chain.
			for p.keyword("UNION") {
				right, err := p.groupPattern()
				if err != nil {
					return nil, err
				}
				left := inner
				inner = &GroupPattern{Elements: []Element{&Union{
					Left:  left,
					Right: right,
				}}}
			}
			if len(inner.Elements) == 1 {
				g.Elements = append(g.Elements, inner.Elements[0])
			} else {
				g.Elements = append(g.Elements, inner)
			}
		default:
			ts, err := p.triplesSameSubject()
			if err != nil {
				return nil, err
			}
			for _, t := range ts {
				tc := t
				g.Elements = append(g.Elements, &tc)
			}
		}
	}
}

// constructTemplate parses the CONSTRUCT template: a brace-delimited
// block of plain triple patterns (constant predicates only).
func (p *qparser) constructTemplate() ([]TriplePattern, error) {
	g, err := p.groupPattern()
	if err != nil {
		return nil, err
	}
	var out []TriplePattern
	for _, el := range g.Elements {
		tp, ok := el.(*TriplePattern)
		if !ok {
			return nil, p.errf("CONSTRUCT template allows only triple patterns")
		}
		switch tp.P.(type) {
		case PathIRI, PathVar:
		default:
			return nil, p.errf("CONSTRUCT template predicates must be IRIs or variables")
		}
		out = append(out, *tp)
	}
	if len(out) == 0 {
		return nil, p.errf("empty CONSTRUCT template")
	}
	return out, nil
}

// existsFilter parses EXISTS { … } or NOT EXISTS { … } after FILTER.
func (p *qparser) existsFilter() (*ExistsFilter, error) {
	negated := false
	if p.keyword("NOT") {
		negated = true
	}
	if !p.keyword("EXISTS") {
		return nil, p.errf("expected EXISTS")
	}
	inner, err := p.groupPattern()
	if err != nil {
		return nil, err
	}
	return &ExistsFilter{Pattern: inner, Negated: negated}, nil
}

func (p *qparser) triplesSameSubject() ([]TriplePattern, error) {
	subj, err := p.nodePattern("subject")
	if err != nil {
		return nil, err
	}
	var out []TriplePattern
	for {
		path, err := p.path()
		if err != nil {
			return nil, err
		}
		for {
			obj, err := p.nodePattern("object")
			if err != nil {
				return nil, err
			}
			out = append(out, TriplePattern{S: subj, P: path, O: obj})
			if p.peek().kind == tkComma {
				p.next()
				continue
			}
			break
		}
		if p.peek().kind == tkSemi {
			p.next()
			// Permit a dangling ';' before '.' or '}'.
			if p.peek().kind == tkDot || p.peek().kind == tkRBrace {
				break
			}
			continue
		}
		break
	}
	return out, nil
}

func (p *qparser) nodePattern(what string) (NodePattern, error) {
	t := p.peek()
	switch t.kind {
	case tkVar:
		p.next()
		return VarNode(t.text), nil
	case tkIRI:
		p.next()
		return TermNode(rdf.IRI(t.text)), nil
	case tkPName:
		p.next()
		iri, ok := rdf.ExpandQName(t.text, p.prefixes)
		if !ok {
			return NodePattern{}, p.errf("unknown prefix in %q", t.text)
		}
		return TermNode(rdf.IRI(iri)), nil
	case tkLiteral:
		p.next()
		lex := t.text
		switch p.peek().kind {
		case tkLangTag:
			return TermNode(rdf.LangLiteral(lex, p.next().text)), nil
		case tkDTSep:
			p.next()
			dt := p.peek()
			switch dt.kind {
			case tkIRI:
				p.next()
				return TermNode(rdf.TypedLiteral(lex, dt.text)), nil
			case tkPName:
				p.next()
				iri, ok := rdf.ExpandQName(dt.text, p.prefixes)
				if !ok {
					return NodePattern{}, p.errf("unknown prefix in %q", dt.text)
				}
				return TermNode(rdf.TypedLiteral(lex, iri)), nil
			default:
				return NodePattern{}, p.errf("expected datatype after '^^'")
			}
		}
		return TermNode(rdf.Literal(lex)), nil
	case tkInteger:
		p.next()
		return TermNode(rdf.TypedLiteral(t.text, rdf.XSDInteger)), nil
	default:
		return NodePattern{}, p.errf("expected %s, got %q", what, t.text)
	}
}

// path parses a property path with precedence: alternatives < sequences <
// unary (inverse, closures) < primary. A variable verb stands alone.
func (p *qparser) path() (Path, error) {
	if p.peek().kind == tkVar {
		v := p.next()
		switch p.peek().kind {
		case tkSlash, tkPipe, tkStar, tkPlus, tkCaret:
			return nil, p.errf("variable predicate ?%s cannot be combined with path operators", v.text)
		}
		return PathVar{Name: v.text}, nil
	}
	return p.pathAlt()
}

func (p *qparser) pathAlt() (Path, error) {
	first, err := p.pathSeq()
	if err != nil {
		return nil, err
	}
	parts := []Path{first}
	for p.peek().kind == tkPipe {
		p.next()
		next, err := p.pathSeq()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return PathAlt{Parts: parts}, nil
}

func (p *qparser) pathSeq() (Path, error) {
	first, err := p.pathElt()
	if err != nil {
		return nil, err
	}
	parts := []Path{first}
	for p.peek().kind == tkSlash {
		p.next()
		next, err := p.pathElt()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return PathSeq{Parts: parts}, nil
}

func (p *qparser) pathElt() (Path, error) {
	var base Path
	if p.peek().kind == tkCaret {
		p.next()
		inner, err := p.pathPrimary()
		if err != nil {
			return nil, err
		}
		base = PathInverse{P: inner}
	} else {
		var err error
		base, err = p.pathPrimary()
		if err != nil {
			return nil, err
		}
	}
	switch p.peek().kind {
	case tkStar:
		p.next()
		return PathRepeat{P: base, Min: 0, Max: -1}, nil
	case tkPlus:
		p.next()
		return PathRepeat{P: base, Min: 1, Max: -1}, nil
	case tkQuestion:
		p.next()
		return PathRepeat{P: base, Min: 0, Max: 1}, nil
	}
	return base, nil
}

func (p *qparser) pathPrimary() (Path, error) {
	t := p.peek()
	switch t.kind {
	case tkA:
		p.next()
		return PathIRI{IRI: rdf.RDFType}, nil
	case tkIRI:
		p.next()
		return PathIRI{IRI: t.text}, nil
	case tkPName:
		p.next()
		iri, ok := rdf.ExpandQName(t.text, p.prefixes)
		if !ok {
			return nil, p.errf("unknown prefix in %q", t.text)
		}
		return PathIRI{IRI: iri}, nil
	case tkLParen:
		p.next()
		inner, err := p.pathAlt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkRParen, "')'"); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, p.errf("expected property path, got %q", t.text)
	}
}
