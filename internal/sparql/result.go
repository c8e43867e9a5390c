package sparql

import (
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// Result is the outcome of query execution. A SELECT result keeps the
// executor's rows as dictionary IDs and decodes a cell only when it is
// read: by Row for Go callers, by AppendJSON for the wire. The
// dictionary is append-only and never rewrites an ID, so a cached result
// stays decodable without pinning the version it was computed from.
type Result struct {
	// Vars lists the projected variable names in order.
	Vars []string
	// Ask holds the result of an ASK query.
	Ask bool
	// Triples holds the graph produced by a CONSTRUCT query, sorted and
	// deduplicated.
	Triples []rdf.Triple

	kind QueryKind
	// cells holds the rows, len(Vars) cells a row: a dictionary ID,
	// store.Wildcard for a variable left unbound (OPTIONAL), or
	// computedCell|i for computed[i], a term the query made (a COUNT).
	// Computed terms stay out of the dictionary, which checkpoints persist.
	cells    []store.ID
	n        int // rows, counted apart for a projection of no variables
	dict     *store.Dict
	computed []rdf.Term
	// reply is what AppendJSON writes, kept by a results-cache hit;
	// noReply marks an entry whose reply the cache had no room for.
	reply   []byte
	noReply bool
}

// computedCell flags a cell indexing Result.computed, far above any ID.
const computedCell store.ID = 1 << 31

func (r *Result) term(c store.ID) rdf.Term {
	if c&computedCell != 0 {
		return r.computed[c&^computedCell]
	}
	return r.dict.Term(c)
}

// Len is the number of SELECT rows, the bound for Row; ASK and
// CONSTRUCT results have none.
func (r *Result) Len() int { return r.n }

// Count is the one count spans and the statement table report: rows for
// SELECT, triples for CONSTRUCT, 1 for the one answer of ASK.
func (r *Result) Count() int {
	if r.kind == AskQuery {
		return 1
	}
	return r.n + len(r.Triples)
}

// Row returns row i of a SELECT result as a fresh map the caller owns;
// unbound projected variables are absent.
func (r *Result) Row(i int) Binding {
	w, b := len(r.Vars), make(Binding, len(r.Vars))
	for j, c := range r.cells[i*w : (i+1)*w] {
		if c != store.Wildcard {
			b[r.Vars[j]] = r.term(c)
		}
	}
	return b
}

// compute returns the cell of a computed term, one table entry per
// distinct term, so that equal terms share a cell as dictionary terms do.
func (r *Result) compute(t rdf.Term, cells map[rdf.Term]store.ID) store.ID {
	if _, ok := cells[t]; !ok {
		cells[t], r.computed = computedCell|store.ID(len(r.computed)), append(r.computed, t)
	}
	return cells[t]
}

// rowSet returns DISTINCT's set of rows, compared by cell (a cell is one
// term): add adds a row and reports whether it was new.
func rowSet() (add func(row []store.ID) bool) {
	seen, key := map[string]bool{}, []byte(nil)
	return func(row []store.ID) bool {
		key = key[:0]
		for _, c := range row {
			key = binary.LittleEndian.AppendUint32(key, uint32(c))
		}
		if seen[string(key)] {
			return false
		}
		seen[string(key)] = true
		return true
	}
}

// distinct drops every row equal to an earlier one.
func (r *Result) distinct() {
	w, add, out, n := len(r.Vars), rowSet(), r.cells[:0], 0
	for i := 0; i < r.n; i++ {
		if row := r.cells[i*w : (i+1)*w]; add(row) {
			out, n = append(out, row...), n+1
		}
	}
	r.cells, r.n = out, n
}

// window applies ORDER BY, OFFSET and LIMIT to the projected rows; a
// window that drops rows is copied, so no cell outside it stays alive.
func (r *Result) window(q *Query) *Result {
	if len(q.OrderBy) > 0 {
		r.sort(q.OrderBy)
	}
	lo, hi := min(max(q.Offset, 0), r.n), r.n
	if q.Limit >= 0 {
		hi = min(hi, lo+q.Limit)
	}
	if hi-lo < r.n {
		r.cells = slices.Clone(r.cells[lo*len(r.Vars) : hi*len(r.Vars)])
	}
	r.n = hi - lo
	return r
}

// sort orders the rows stably by conds, decoding only the cells ORDER BY
// compares. A condition on a variable the projection dropped compares
// every row equal.
func (r *Result) sort(conds []OrderCond) {
	w := len(r.Vars)
	rows := make([][]store.ID, r.n)
	for i := range rows {
		rows[i] = r.cells[i*w : (i+1)*w]
	}
	slices.SortStableFunc(rows, func(x, y []store.ID) int {
		for _, c := range conds {
			j := slices.Index(r.Vars, c.Var)
			if j < 0 || x[j] == y[j] {
				continue
			}
			cmp := -1 // unbound sorts first
			switch {
			case x[j] == store.Wildcard:
			case y[j] == store.Wildcard:
				cmp = 1
			default:
				a, b := r.term(x[j]), r.term(y[j])
				var err error
				if cmp, err = compareTerms(a, b); err != nil {
					cmp = rdf.Compare(a, b)
				}
			}
			if c.Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp
			}
		}
		return 0
	})
	r.cells = slices.Concat(rows...)
}

// One function writes a result's JSON, streamed or into the reply a
// results-cache entry keeps, so a reply is the same bytes either way
// (DESIGN.md, "HTTP response encoding").

// hexDigits spells the \u00XX escapes.
const hexDigits = "0123456789abcdef"

// jsonSafe[b] reports whether the byte b stands for itself inside a JSON
// string as encoding/json writes it with HTML escaping on: ASCII, not a
// control byte, not a quote or backslash, not one of < > &. Bytes of
// multi-byte runes are not safe: they are decoded and checked.
var jsonSafe = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// AppendJSONString appends s as a JSON string literal, byte for byte
// what encoding/json.Marshal(s) produces: short escapes for quote,
// backslash, \b \f \n \r \t; \u00XX for the other control bytes and for
// < > &; U+2028 and U+2029 escaped; each byte of invalid UTF-8 replaced
// by the escape \ufffd. The differential and fuzz tests pin the equivalence.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is the pending run of bytes that need no escape
	for i := 0; i < len(s); {
		b := s[i]
		if jsonSafe[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendStrings appends a JSON array of strings, or null for a nil
// slice (what encoding/json does, and what clients have seen so far).
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, s)
	}
	return append(dst, ']')
}

// AppendJSON appends the result's members of a reply object — "vars",
// "rows", then "triples" or "ask" — to dst. flush is handed the buffer
// after every row and triple and returns the buffer to go on in, or false
// to stop (the reader went away); AppendJSON then returns false as well.
// A row lists its bound variables in sorted order, each key escaped once
// per reply; a variable projected twice is one key.
func (r *Result) AppendJSON(dst []byte, flush func([]byte) ([]byte, bool)) (_ []byte, ok bool) {
	dst = append(dst, `"vars":`...)
	dst = appendStrings(dst, r.Vars)
	dst = append(dst, `,"rows":`...)
	if r.n == 0 {
		dst = append(dst, "null"...) // never [], see appendStrings
	} else {
		var cols []int // the column of each key, in key order
		for j, v := range r.Vars {
			if slices.Index(r.Vars, v) == j {
				cols = append(cols, j)
			}
		}
		slices.SortFunc(cols, func(a, b int) int { return strings.Compare(r.Vars[a], r.Vars[b]) })
		keys := make([][]byte, len(cols))
		for k, j := range cols {
			keys[k] = append(AppendJSONString(nil, r.Vars[j]), ':')
		}
		// Decoding a block of rows before escaping them lets the memory
		// loads of its terms overlap instead of waiting one by one.
		const block = 16
		w, vals := len(r.Vars), make([]string, block*len(r.Vars))
		dst = append(dst, '[')
		for i := 0; i < r.n; i++ {
			if i%block == 0 {
				for k, c := range r.cells[i*w : min(i+block, r.n)*w] {
					if c != store.Wildcard {
						vals[k] = r.term(c).Value
					}
				}
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			open := len(dst)
			row := (i % block) * w
			for k, j := range cols {
				if r.cells[i*w+j] == store.Wildcard {
					continue
				}
				if len(dst) > open {
					dst = append(dst, ',')
				}
				dst = append(dst, keys[k]...)
				dst = AppendJSONString(dst, vals[row+j])
			}
			dst = append(dst, '}')
			if dst, ok = flush(dst); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	switch {
	case len(r.Triples) > 0:
		// CONSTRUCT results travel in N-Triples syntax.
		dst = append(dst, `,"triples":[`...)
		for i, tr := range r.Triples {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(dst, tr.NTriple())
			if dst, ok = flush(dst); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	case len(r.Vars) == 0 && r.n == 0:
		dst = append(dst, `,"ask":`...)
		dst = strconv.AppendBool(dst, r.Ask)
	}
	return dst, true
}

// EncodedJSON returns the members AppendJSON writes when a results-cache
// hit has kept them, nil otherwise. The bytes are shared: read only.
func (r *Result) EncodedJSON() []byte { return r.reply }
