// Package semmatch emulates the Oracle SEM_MATCH table function through
// which the paper issues its queries (Listings 1 and 2). A call names a
// SPARQL graph pattern, the RDF models to query (SEM_MODELS), the
// entailment rulebases to include (SEM_RULEBASES), and namespace aliases
// (SEM_ALIASES).
//
// Execution semantics follow Section III.B: without a rulebase only the
// base model facts are visible; naming OWLPRIME unions each model with
// its materialized index model (materializing it on first use).
package semmatch

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"mdw/internal/rdf"
	"mdw/internal/reason"
	"mdw/internal/sparql"
	"mdw/internal/store"
)

// Request is a structured SEM_MATCH invocation.
type Request struct {
	// Pattern is the graph pattern, with or without enclosing braces.
	Pattern string
	// Models lists the RDF models to query (SEM_MODELS).
	Models []string
	// Rulebases lists entailment rulebases (SEM_RULEBASES); only
	// "OWLPRIME" is supported.
	Rulebases []string
	// Aliases maps prefixes to namespaces (SEM_ALIASES). The well-known
	// prefixes of package rdf are always available.
	Aliases map[string]string
	// Filter is an optional boolean condition appended as a FILTER,
	// playing the role of the enclosing SQL WHERE clause in the listings.
	Filter string
	// Select lists the projected variables; empty projects everything.
	Select []string
	// GroupBy lists grouping variables (the listings' GROUP BY).
	GroupBy []string
	// Distinct requests duplicate elimination.
	Distinct bool
}

// Run executes the request against st, bringing the index models of the
// requested rulebases up to date first. The SPARQL parse/plan/exec spans
// nest in the trace ctx carries; the ExecStats are nil unless opt.Analyze
// is set (see sparql.Query.Run).
func (r Request) Run(ctx context.Context, st *store.Store, opt sparql.RunOptions) (*sparql.Result, *sparql.ExecStats, error) {
	q, src, err := r.prepare(ctx, st)
	if err != nil {
		return nil, nil, err
	}
	return q.Run(ctx, src, st.Dict(), opt)
}

// Explain renders the evaluation plan the request would execute — the
// statistics-driven join order with estimated cardinalities against the
// request's model view. It is the same Plan structure Run executes, and
// index models are brought up to date exactly as Run would, so the
// explained plan sees the statistics execution would see.
func (r Request) Explain(ctx context.Context, st *store.Store) (string, error) {
	q, src, err := r.prepare(ctx, st)
	if err != nil {
		return "", err
	}
	return q.ExplainOn(src, st.Dict()), nil
}

// prepare is what Run and Explain share: the parsed query text and the
// view it runs against.
func (r Request) prepare(ctx context.Context, st *store.Store) (*sparql.Query, store.Source, error) {
	q, err := sparql.ParseCtx(ctx, r.QueryText())
	if err != nil {
		return nil, nil, err
	}
	src, err := r.Source(ctx, st)
	return q, src, err
}

// Source resolves the request's SEM_MODELS/SEM_RULEBASES combination to
// the union view execution runs against, bringing the index models up to
// date first. It fails when the request names no model, or a model or
// rulebase the store does not have.
func (r Request) Source(ctx context.Context, st *store.Store) (store.Source, error) {
	if len(r.Models) == 0 {
		return nil, fmt.Errorf("semmatch: no models given")
	}
	for _, rb := range r.Rulebases {
		if rb != reason.RulebaseOWLPrime {
			return nil, fmt.Errorf("semmatch: unsupported rulebase %q", rb)
		}
	}
	for _, m := range r.Models {
		if !st.HasModel(m) {
			return nil, fmt.Errorf("semmatch: no such model %q", m)
		}
	}
	src, err := reason.ViewCtx(ctx, st, len(r.Rulebases) > 0, r.Models...)
	if err != nil {
		return nil, fmt.Errorf("semmatch: %w", err)
	}
	return src, nil
}

// QueryText assembles the SPARQL text the request executes. It is
// exported so static checkers (mdwlint's sparqlcheck) can validate
// constant SEM_MATCH calls with exactly the text Run would parse.
func (r Request) QueryText() string {
	var b strings.Builder
	// Sorted, so that one call has one text: the results cache and the
	// statement table key on it.
	prefixes := make([]string, 0, len(r.Aliases))
	for p := range r.Aliases {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	for _, p := range prefixes {
		fmt.Fprintf(&b, "PREFIX %s: <%s>\n", p, r.Aliases[p])
	}
	b.WriteString("SELECT ")
	if r.Distinct {
		b.WriteString("DISTINCT ")
	}
	if len(r.Select) == 0 {
		b.WriteString("*")
	} else {
		for i, v := range r.Select {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteByte('?')
			b.WriteString(strings.TrimPrefix(v, "?"))
		}
	}
	pattern := strings.TrimSpace(r.Pattern)
	pattern = strings.TrimPrefix(pattern, "{")
	pattern = strings.TrimSuffix(pattern, "}")
	b.WriteString(" WHERE {\n")
	b.WriteString(pattern)
	if r.Filter != "" {
		b.WriteString("\nFILTER (")
		b.WriteString(r.Filter)
		b.WriteString(")")
	}
	b.WriteString("\n}")
	if len(r.GroupBy) > 0 {
		b.WriteString(" GROUP BY")
		for _, v := range r.GroupBy {
			b.WriteString(" ?")
			b.WriteString(strings.TrimPrefix(v, "?"))
		}
	}
	return b.String()
}

// ParseCall parses the textual SEM_MATCH argument list into a Request.
// The accepted syntax is the argument list of the listings:
//
//	SEM_MATCH(
//	  {?s dt:isMappedTo ?t . ...},
//	  SEM_MODELS('DWH_CURR'),
//	  SEM_RULEBASES('OWLPRIME'),
//	  SEM_ALIASES(SEM_ALIAS('dm', 'http://...'), SEM_ALIAS('dt', 'http://...')),
//	  null)
//
// with an optional leading "SEM_MATCH(" and trailing ")".
func ParseCall(call string) (*Request, error) {
	s := strings.TrimSpace(call)
	if i := strings.Index(s, "SEM_MATCH"); i >= 0 {
		s = strings.TrimSpace(s[i+len("SEM_MATCH"):])
		if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
			return nil, fmt.Errorf("semmatch: malformed SEM_MATCH call")
		}
		s = s[1 : len(s)-1]
	}
	// The graph pattern is the first balanced {...} block.
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return nil, fmt.Errorf("semmatch: missing graph pattern")
	}
	depth := 0
	closeIdx := -1
	for i := open; i < len(s); i++ {
		switch s[i] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				closeIdx = i
			}
		}
		if closeIdx >= 0 {
			break
		}
	}
	if closeIdx < 0 {
		return nil, fmt.Errorf("semmatch: unbalanced graph pattern braces")
	}
	req := &Request{Pattern: s[open : closeIdx+1], Aliases: map[string]string{}}
	rest := s[closeIdx+1:]

	models, err := argList(rest, "SEM_MODELS")
	if err != nil {
		return nil, err
	}
	req.Models = models
	rulebases, err := argList(rest, "SEM_RULEBASES")
	if err != nil {
		return nil, err
	}
	req.Rulebases = rulebases
	aliases, err := aliasList(rest)
	if err != nil {
		return nil, err
	}
	for p, ns := range aliases {
		req.Aliases[p] = ns
	}
	if len(req.Models) == 0 {
		return nil, fmt.Errorf("semmatch: SEM_MODELS clause missing or empty")
	}
	return req, nil
}

// argList extracts the quoted strings of fn('a','b',...) from s; a
// missing clause yields an empty list.
func argList(s, fn string) ([]string, error) {
	i := strings.Index(s, fn+"(")
	if i < 0 {
		return nil, nil
	}
	body, err := balancedParens(s[i+len(fn):])
	if err != nil {
		return nil, fmt.Errorf("semmatch: %s: %w", fn, err)
	}
	return quotedStrings(body), nil
}

// aliasList extracts SEM_ALIAS('prefix','ns') pairs inside SEM_ALIASES.
func aliasList(s string) (map[string]string, error) {
	i := strings.Index(s, "SEM_ALIASES(")
	if i < 0 {
		return nil, nil
	}
	body, err := balancedParens(s[i+len("SEM_ALIASES"):])
	if err != nil {
		return nil, fmt.Errorf("semmatch: SEM_ALIASES: %w", err)
	}
	out := map[string]string{}
	rest := body
	for {
		j := strings.Index(rest, "SEM_ALIAS(")
		if j < 0 {
			break
		}
		inner, err := balancedParens(rest[j+len("SEM_ALIAS"):])
		if err != nil {
			return nil, fmt.Errorf("semmatch: SEM_ALIAS: %w", err)
		}
		parts := quotedStrings(inner)
		if len(parts) != 2 {
			return nil, fmt.Errorf("semmatch: SEM_ALIAS wants 2 arguments, got %d", len(parts))
		}
		out[parts[0]] = parts[1]
		rest = rest[j+len("SEM_ALIAS")+len(inner)+2:]
	}
	return out, nil
}

// balancedParens returns the contents of the leading "(...)" of s.
func balancedParens(s string) (string, error) {
	if !strings.HasPrefix(s, "(") {
		return "", fmt.Errorf("expected '('")
	}
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return s[1:i], nil
			}
		}
	}
	return "", fmt.Errorf("unbalanced parentheses")
}

// quotedStrings returns all '...'-quoted substrings of s.
func quotedStrings(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '\'')
		if i < 0 {
			return out
		}
		j := strings.IndexByte(s[i+1:], '\'')
		if j < 0 {
			return out
		}
		out = append(out, s[i+1:i+1+j])
		s = s[i+j+2:]
	}
}

// Vocabulary aliases matching the listings: dm and dt as declared in the
// paper's SEM_ALIASES calls.
func PaperAliases() map[string]string {
	return map[string]string{
		"dm":  rdf.DMNS,
		"dt":  rdf.DTNS,
		"owl": rdf.OWLNS,
	}
}
