package sparql

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"mdw/internal/rdf"
)

// Binding maps variable names to bound terms.
type Binding map[string]rdf.Term

func (b Binding) term(name string, _ int) (rdf.Term, bool) {
	t, ok := b[name]
	return t, ok
}

// solution is what an expression reads its variables from: a Binding, by
// name, or the executor's slot row (slotRow), by slot, which decodes a
// term only when an expression reads it.
type solution interface {
	term(name string, slot int) (rdf.Term, bool)
}

// Expr is a filter expression evaluated against one solution.
type Expr interface {
	// Eval returns the expression value. An unbound variable yields an
	// error, which FILTER treats as false (SPARQL error semantics).
	Eval(b solution) (Value, error)
}

// Value is an expression result: a term or a plain boolean.
type Value struct {
	Term   rdf.Term
	Bool   bool
	IsBool bool
}

func boolVal(v bool) Value     { return Value{Bool: v, IsBool: true} }
func termVal(t rdf.Term) Value { return Value{Term: t} }

// Truth converts the value to its effective boolean value.
func (v Value) Truth() (bool, error) {
	if v.IsBool {
		return v.Bool, nil
	}
	t := v.Term
	if t.IsLiteral() {
		switch t.Datatype {
		case rdf.XSDBoolean:
			return t.Value == "true" || t.Value == "1", nil
		case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
			f, err := strconv.ParseFloat(t.Value, 64)
			if err != nil {
				return false, fmt.Errorf("sparql: not a number: %q", t.Value)
			}
			return f != 0, nil
		default:
			return t.Value != "", nil
		}
	}
	return false, fmt.Errorf("sparql: no effective boolean value for %s", t)
}

// varExpr references a variable: by name in a Binding, by the slot the
// parser numbered it with (Query.vars) in a slot row.
type varExpr struct {
	name string
	slot int
}

func (e varExpr) Eval(b solution) (Value, error) {
	t, ok := b.term(e.name, e.slot)
	if !ok {
		return Value{}, fmt.Errorf("sparql: unbound variable ?%s", e.name)
	}
	return termVal(t), nil
}

// constExpr is a literal/IRI constant.
type constExpr struct{ term rdf.Term }

func (e constExpr) Eval(solution) (Value, error) { return termVal(e.term), nil }

// notExpr negates its operand.
type notExpr struct{ e Expr }

func (e notExpr) Eval(b solution) (Value, error) {
	v, err := e.e.Eval(b)
	if err != nil {
		return Value{}, err
	}
	t, err := v.Truth()
	if err != nil {
		return Value{}, err
	}
	return boolVal(!t), nil
}

// andExpr / orExpr implement SPARQL's three-valued logic: an error on one
// side can still produce a definite result from the other.
type andExpr struct{ l, r Expr }

func (e andExpr) Eval(b solution) (Value, error) {
	lv, lerr := evalTruth(e.l, b)
	rv, rerr := evalTruth(e.r, b)
	switch {
	case lerr == nil && rerr == nil:
		return boolVal(lv && rv), nil
	case lerr == nil && !lv:
		return boolVal(false), nil
	case rerr == nil && !rv:
		return boolVal(false), nil
	case lerr != nil:
		return Value{}, lerr
	default:
		return Value{}, rerr
	}
}

type orExpr struct{ l, r Expr }

func (e orExpr) Eval(b solution) (Value, error) {
	lv, lerr := evalTruth(e.l, b)
	rv, rerr := evalTruth(e.r, b)
	switch {
	case lerr == nil && rerr == nil:
		return boolVal(lv || rv), nil
	case lerr == nil && lv:
		return boolVal(true), nil
	case rerr == nil && rv:
		return boolVal(true), nil
	case lerr != nil:
		return Value{}, lerr
	default:
		return Value{}, rerr
	}
}

func evalTruth(e Expr, b solution) (bool, error) {
	v, err := e.Eval(b)
	if err != nil {
		return false, err
	}
	return v.Truth()
}

// cmpExpr is a comparison: = != < <= > >=.
type cmpExpr struct {
	op   string
	l, r Expr
}

func (e cmpExpr) Eval(b solution) (Value, error) {
	lv, err := e.l.Eval(b)
	if err != nil {
		return Value{}, err
	}
	rv, err := e.r.Eval(b)
	if err != nil {
		return Value{}, err
	}
	if lv.IsBool || rv.IsBool {
		lt, err1 := lv.Truth()
		rt, err2 := rv.Truth()
		if err1 != nil || err2 != nil {
			return Value{}, fmt.Errorf("sparql: cannot compare booleans with non-booleans")
		}
		switch e.op {
		case "=":
			return boolVal(lt == rt), nil
		case "!=":
			return boolVal(lt != rt), nil
		default:
			return Value{}, fmt.Errorf("sparql: operator %s undefined for booleans", e.op)
		}
	}
	c, err := compareTerms(lv.Term, rv.Term)
	if err != nil {
		if e.op == "=" {
			return boolVal(lv.Term == rv.Term), nil
		}
		if e.op == "!=" {
			return boolVal(lv.Term != rv.Term), nil
		}
		return Value{}, err
	}
	switch e.op {
	case "=":
		return boolVal(c == 0), nil
	case "!=":
		return boolVal(c != 0), nil
	case "<":
		return boolVal(c < 0), nil
	case "<=":
		return boolVal(c <= 0), nil
	case ">":
		return boolVal(c > 0), nil
	case ">=":
		return boolVal(c >= 0), nil
	default:
		return Value{}, fmt.Errorf("sparql: unknown operator %q", e.op)
	}
}

// compareTerms orders two terms: numerically when both are numeric
// literals, lexically for other literals, by IRI for IRIs.
func compareTerms(a, b rdf.Term) (int, error) {
	if isNumeric(a) && isNumeric(b) {
		fa, _ := strconv.ParseFloat(a.Value, 64)
		fb, _ := strconv.ParseFloat(b.Value, 64)
		switch {
		case fa < fb:
			return -1, nil
		case fa > fb:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.Kind != b.Kind {
		return 0, fmt.Errorf("sparql: type mismatch comparing %s and %s", a, b)
	}
	return strings.Compare(a.Value, b.Value), nil
}

func isNumeric(t rdf.Term) bool {
	if !t.IsLiteral() {
		return false
	}
	switch t.Datatype {
	case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
		return true
	}
	return false
}

// regexExpr implements REGEX(text, pattern[, flags]); the pattern and
// flags are compile-time constants in the supported subset, so the regexp
// compiles once at parse time.
type regexExpr struct {
	text Expr
	re   *regexp.Regexp
	// lit is the pattern when it is a non-empty ASCII string with no
	// metacharacter and the flags are "" or "i": one substring pass over
	// the subject then answers. Without "i" that is exact on any UTF-8
	// subject, since an ASCII byte never occurs inside a multi-byte
	// sequence. With "i" (fold) an ASCII case-folded hit is a match, but a
	// miss is only exact on an ASCII subject — Go's (?i) folds s with
	// U+017F and k with U+212A — so a miss on a subject holding a byte
	// >= 0x80 goes to re.
	lit  string
	fold bool
}

// newRegexExpr compiles pattern under the SPARQL flags i, s and m (Go's
// (?ism)); any other flag letter is an error.
func newRegexExpr(text Expr, pattern, flags string) (regexExpr, error) {
	for _, f := range flags {
		if !strings.ContainsRune("ism", f) {
			return regexExpr{}, fmt.Errorf("unsupported regex flag %q (supported: i, s, m)", f)
		}
	}
	src := pattern
	if flags != "" {
		src = "(?" + flags + ")" + pattern
	}
	re, err := regexp.Compile(src)
	if err != nil {
		return regexExpr{}, fmt.Errorf("invalid regex %q: %v", pattern, err)
	}
	e := regexExpr{text: text, re: re}
	if (flags == "" || flags == "i") && pattern != "" && regexp.QuoteMeta(pattern) == pattern && isASCII(pattern) {
		e.lit, e.fold = pattern, flags == "i"
	}
	return e, nil
}

func (e regexExpr) Eval(b solution) (Value, error) {
	v, err := e.text.Eval(b)
	if err != nil {
		return Value{}, err
	}
	s := stringValue(v.Term)
	switch {
	case e.lit == "":
	case !e.fold:
		return boolVal(strings.Contains(s, e.lit)), nil
	default:
		if hit, wide := containsFoldASCII(s, e.lit); hit || !wide {
			return boolVal(hit), nil
		}
	}
	return boolVal(e.re.MatchString(s)), nil
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// containsFoldASCII reports, in one pass over s, whether s contains the
// non-empty ASCII string lit under ASCII case folding and whether s holds
// a byte >= 0x80 before the hit (all of s on a miss). Bytes equal under
// folding agree outside the case bit; EqualFold settles the rest, and a
// window holding a byte >= 0x80 never equals an ASCII lit.
func containsFoldASCII(s, lit string) (hit, wide bool) {
	first := lit[0] | 0x20
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 0x80:
			wide = true
		case c|0x20 == first && len(s)-i >= len(lit) && strings.EqualFold(s[i:i+len(lit)], lit):
			return true, wide
		}
	}
	return false, wide
}

// boundExpr implements BOUND(?v).
type boundExpr struct {
	name string
	slot int
}

func (e boundExpr) Eval(b solution) (Value, error) {
	_, ok := b.term(e.name, e.slot)
	return boolVal(ok), nil
}

// strFuncExpr implements the unary string builtins STR, LCASE, UCASE.
type strFuncExpr struct {
	fn  string
	arg Expr
}

func (e strFuncExpr) Eval(b solution) (Value, error) {
	v, err := e.arg.Eval(b)
	if err != nil {
		return Value{}, err
	}
	s := stringValue(v.Term)
	switch e.fn {
	case "STR":
		return termVal(rdf.Literal(s)), nil
	case "LCASE":
		return termVal(rdf.Literal(strings.ToLower(s))), nil
	case "UCASE":
		return termVal(rdf.Literal(strings.ToUpper(s))), nil
	default:
		return Value{}, fmt.Errorf("sparql: unknown function %q", e.fn)
	}
}

// binStrFuncExpr implements CONTAINS, STRSTARTS, STRENDS.
type binStrFuncExpr struct {
	fn   string
	a, b Expr
}

func (e binStrFuncExpr) Eval(bind solution) (Value, error) {
	av, err := e.a.Eval(bind)
	if err != nil {
		return Value{}, err
	}
	bv, err := e.b.Eval(bind)
	if err != nil {
		return Value{}, err
	}
	s, sub := stringValue(av.Term), stringValue(bv.Term)
	switch e.fn {
	case "CONTAINS":
		return boolVal(strings.Contains(s, sub)), nil
	case "STRSTARTS":
		return boolVal(strings.HasPrefix(s, sub)), nil
	case "STRENDS":
		return boolVal(strings.HasSuffix(s, sub)), nil
	default:
		return Value{}, fmt.Errorf("sparql: unknown function %q", e.fn)
	}
}

func stringValue(t rdf.Term) string { return t.Value }

// ---- expression parsing (continues the qparser) ----

// filterExpr parses the constraint of a FILTER clause: either a
// parenthesized expression or a builtin call.
func (p *qparser) filterExpr() (Expr, error) {
	return p.orExpr()
}

func (p *qparser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tkOr {
		p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = orExpr{l, r}
	}
	return l, nil
}

func (p *qparser) andExpr() (Expr, error) {
	l, err := p.cmpOperand()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tkAnd {
		p.next()
		r, err := p.cmpOperand()
		if err != nil {
			return nil, err
		}
		l = andExpr{l, r}
	}
	return l, nil
}

func (p *qparser) cmpOperand() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	var op string
	switch p.peek().kind {
	case tkEq:
		op = "="
	case tkNeq:
		op = "!="
	case tkLt:
		op = "<"
	case tkLe:
		op = "<="
	case tkGt:
		op = ">"
	case tkGe:
		op = ">="
	default:
		return l, nil
	}
	p.next()
	r, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	return cmpExpr{op: op, l: l, r: r}, nil
}

func (p *qparser) unaryExpr() (Expr, error) {
	if p.peek().kind == tkBang {
		p.next()
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return notExpr{e}, nil
	}
	return p.primaryExpr()
}

func (p *qparser) primaryExpr() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tkLParen:
		p.next()
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tkVar:
		p.next()
		return varExpr{t.text, p.slot(t.text)}, nil
	case tkInteger:
		p.next()
		return constExpr{rdf.TypedLiteral(t.text, rdf.XSDInteger)}, nil
	case tkLiteral:
		p.next()
		lex := t.text
		if p.peek().kind == tkLangTag {
			return constExpr{rdf.LangLiteral(lex, p.next().text)}, nil
		}
		return constExpr{rdf.Literal(lex)}, nil
	case tkIRI:
		p.next()
		return constExpr{rdf.IRI(t.text)}, nil
	case tkPName:
		p.next()
		iri, ok := rdf.ExpandQName(t.text, p.prefixes)
		if !ok {
			return nil, p.errf("unknown prefix in %q", t.text)
		}
		return constExpr{rdf.IRI(iri)}, nil
	case tkKeyword:
		return p.builtinCall()
	default:
		return nil, p.errf("expected expression, got %q", t.text)
	}
}

func (p *qparser) builtinCall() (Expr, error) {
	kw := p.next().text
	switch kw {
	case "TRUE":
		return constExpr{rdf.TypedLiteral("true", rdf.XSDBoolean)}, nil
	case "FALSE":
		return constExpr{rdf.TypedLiteral("false", rdf.XSDBoolean)}, nil
	}
	if _, err := p.expect(tkLParen, "'(' after builtin"); err != nil {
		return nil, err
	}
	switch kw {
	case "REGEX":
		text, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkComma, "','"); err != nil {
			return nil, err
		}
		pat, err := p.expect(tkLiteral, "pattern literal")
		if err != nil {
			return nil, err
		}
		flags := ""
		if p.peek().kind == tkComma {
			p.next()
			f, err := p.expect(tkLiteral, "flags literal")
			if err != nil {
				return nil, err
			}
			flags = f.text
		}
		e, err := newRegexExpr(text, pat.text, flags)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		if _, err := p.expect(tkRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case "BOUND":
		v, err := p.expect(tkVar, "variable")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkRParen, "')'"); err != nil {
			return nil, err
		}
		return boundExpr{v.text, p.slot(v.text)}, nil
	case "STR", "LCASE", "UCASE":
		arg, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkRParen, "')'"); err != nil {
			return nil, err
		}
		return strFuncExpr{fn: kw, arg: arg}, nil
	case "CONTAINS", "STRSTARTS", "STRENDS":
		a, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkComma, "','"); err != nil {
			return nil, err
		}
		b, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkRParen, "')'"); err != nil {
			return nil, err
		}
		return binStrFuncExpr{fn: kw, a: a, b: b}, nil
	default:
		return nil, p.errf("unsupported builtin %q", kw)
	}
}
