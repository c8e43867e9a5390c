// Package ntriples reads and writes the N-Triples line format. The bulk
// load stage of the Figure 4 pipeline moves meta-data between the XML→RDF
// transform, the staging tables, and the RDF model tables in this format.
package ntriples

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"mdw/internal/rdf"
)

// Write serializes triples to w, one N-Triples statement per line.
func Write(w io.Writer, ts []rdf.Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range ts {
		if _, err := bw.WriteString(t.NTriple()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Marshal renders triples as one N-Triples document string.
func Marshal(ts []rdf.Triple) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.NTriple())
		b.WriteByte('\n')
	}
	return b.String()
}

// Read parses an N-Triples document from r (see Scan).
func Read(r io.Reader) (out []rdf.Triple, err error) {
	if err = Scan(r, func(t rdf.Triple) { out = append(out, t) }); err != nil {
		return nil, err
	}
	return out, nil
}

// Scan parses an N-Triples document from r one line at a time, handing
// each statement to fn as it is read. Blank lines and #-comments are
// skipped. Errors carry the 1-based line number; fn has seen every
// statement above the bad line.
func Scan(r io.Reader, fn func(rdf.Triple)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for line := 1; sc.Scan(); line++ {
		t, ok, err := ParseLine(sc.Text())
		if err != nil {
			return fmt.Errorf("ntriples: line %d: %w", line, err)
		}
		if ok {
			fn(t)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("ntriples: %w", err)
	}
	return nil
}

// Unmarshal parses an N-Triples document from a string.
func Unmarshal(doc string) ([]rdf.Triple, error) {
	return Read(strings.NewReader(doc))
}

// ParseLine parses a single N-Triples statement. ok is false for blank
// lines and comments.
func ParseLine(s string) (t rdf.Triple, ok bool, err error) {
	p := &parser{in: s}
	p.skipWS()
	if p.eof() || p.peek() == '#' {
		return rdf.Triple{}, false, nil
	}
	sub, err := p.term()
	if err != nil {
		return rdf.Triple{}, false, err
	}
	if sub.IsLiteral() {
		return rdf.Triple{}, false, fmt.Errorf("subject must not be a literal")
	}
	p.skipWS()
	pred, err := p.term()
	if err != nil {
		return rdf.Triple{}, false, err
	}
	if !pred.IsIRI() {
		return rdf.Triple{}, false, fmt.Errorf("predicate must be an IRI")
	}
	p.skipWS()
	obj, err := p.term()
	if err != nil {
		return rdf.Triple{}, false, err
	}
	p.skipWS()
	if p.eof() || p.peek() != '.' {
		return rdf.Triple{}, false, fmt.Errorf("expected terminating '.'")
	}
	p.pos++
	p.skipWS()
	if !p.eof() && p.peek() != '#' {
		return rdf.Triple{}, false, fmt.Errorf("trailing content after '.'")
	}
	return rdf.Triple{S: sub, P: pred, O: obj}, true, nil
}

type parser struct {
	in  string
	pos int
}

func (p *parser) eof() bool  { return p.pos >= len(p.in) }
func (p *parser) peek() byte { return p.in[p.pos] }
func (p *parser) skipWS() {
	for !p.eof() && (p.peek() == ' ' || p.peek() == '\t') {
		p.pos++
	}
}

func (p *parser) term() (rdf.Term, error) {
	if p.eof() {
		return rdf.Term{}, fmt.Errorf("unexpected end of statement")
	}
	switch p.peek() {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	default:
		return rdf.Term{}, fmt.Errorf("unexpected character %q", p.peek())
	}
}

func (p *parser) iri() (rdf.Term, error) {
	end := strings.IndexByte(p.in[p.pos:], '>')
	if end < 0 {
		return rdf.Term{}, fmt.Errorf("unterminated IRI")
	}
	iri := p.in[p.pos+1 : p.pos+end]
	p.pos += end + 1
	if iri == "" {
		return rdf.Term{}, fmt.Errorf("empty IRI")
	}
	return rdf.IRI(iri), nil
}

func (p *parser) blank() (rdf.Term, error) {
	if p.pos+1 >= len(p.in) || p.in[p.pos+1] != ':' {
		return rdf.Term{}, fmt.Errorf("malformed blank node")
	}
	start := p.pos + 2
	i := start
	for i < len(p.in) && !isTermEnd(p.in[i]) {
		i++
	}
	if i == start {
		return rdf.Term{}, fmt.Errorf("empty blank node label")
	}
	label := p.in[start:i]
	p.pos = i
	return rdf.Blank(label), nil
}

func isTermEnd(c byte) bool {
	return c == ' ' || c == '\t' || c == '.' || c == '<' || c == '"'
}

func (p *parser) literal() (rdf.Term, error) {
	// Scan to the closing unescaped quote.
	i := p.pos + 1
	for i < len(p.in) {
		if p.in[i] == '\\' {
			i += 2
			continue
		}
		if p.in[i] == '"' {
			break
		}
		i++
	}
	if i >= len(p.in) {
		return rdf.Term{}, fmt.Errorf("unterminated literal")
	}
	lex := rdf.UnescapeLiteral(p.in[p.pos+1 : i])
	p.pos = i + 1
	// Optional language tag or datatype.
	if !p.eof() && p.peek() == '@' {
		start := p.pos + 1
		j := start
		for j < len(p.in) && (isAlnum(p.in[j]) || p.in[j] == '-') {
			j++
		}
		if j == start {
			return rdf.Term{}, fmt.Errorf("empty language tag")
		}
		lang := p.in[start:j]
		p.pos = j
		return rdf.LangLiteral(lex, lang), nil
	}
	if p.pos+1 < len(p.in) && p.in[p.pos] == '^' && p.in[p.pos+1] == '^' {
		p.pos += 2
		if p.eof() || p.peek() != '<' {
			return rdf.Term{}, fmt.Errorf("expected datatype IRI after '^^'")
		}
		dt, err := p.iri()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.TypedLiteral(lex, dt.Value), nil
	}
	return rdf.Literal(lex), nil
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
