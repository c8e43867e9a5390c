package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"mdw/internal/obs"
	"mdw/internal/sparql"
)

// Every SPARQL answer (/api/query, /api/semmatch) leaves through
// serveResult: the body is streamed from the engine's rows through one
// pooled buffer, never via an intermediate DTO. The contract — compact
// JSON, row keys in sorted order, encoding/json's string escaping — is
// spelled out in DESIGN.md, "HTTP response encoding".

// streamFlushAt is how many encoded bytes collect before they are handed
// to the connection: large enough that a 2 MB Listing 1 reply costs ~60
// writes, small enough that the reply starts leaving before it is done.
const streamFlushAt = 32 << 10

// stream is an append buffer in front of a response writer. The first
// write error sticks: later appends are dropped, so a handler whose
// client went away finishes quickly instead of encoding into the void.
type stream struct {
	w   io.Writer
	buf []byte
	n   int64 // bytes accepted by w
	err error
}

var streamPool = sync.Pool{New: func() any {
	return &stream{buf: make([]byte, 0, streamFlushAt+(4<<10))}
}}

// flush hands the buffered bytes to w and reports whether the stream is
// still healthy.
func (s *stream) flush() bool {
	if s.err == nil && len(s.buf) > 0 {
		var n int
		n, s.err = s.w.Write(s.buf)
		s.n += int64(n)
	}
	s.buf = s.buf[:0]
	return s.err == nil
}

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

// appendJSONString appends s as a JSON string literal, byte for byte
// what encoding/json.Marshal(s) produces: short escapes for quote,
// backslash, \b \f \n \r \t; \u00XX for the other control bytes and for
// < > &; U+2028 and U+2029 escaped; each byte of invalid UTF-8 replaced
// by the escape \ufffd. The differential and fuzz tests pin the equivalence.
func appendJSONString(dst []byte, s string) []byte {
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
		dst = appendJSONString(dst, s)
	}
	return append(dst, ']')
}

// writeResult streams res to w in the QueryResponse shape and returns
// the bytes w accepted and its first write error. statsJSON, when not
// nil, is the already-marshalled stats member and plan its rendering.
//
// Row objects carry their keys in sorted order, each key encoded once
// per response. A row's keys are a subset of res.Vars (sparql.Result's
// contract: unbound projected variables are absent), so walking the
// sorted variables visits exactly the keys encoding/json would, in the
// order it would.
func writeResult(w io.Writer, res *sparql.Result, statsJSON []byte, plan string) (int64, error) {
	s := streamPool.Get().(*stream)
	s.w, s.n, s.err = w, 0, nil
	defer func() {
		s.w = nil
		streamPool.Put(s)
	}()

	vars := slices.Clone(res.Vars)
	slices.Sort(vars)
	vars = slices.Compact(vars) // SELECT ?x ?x: one key
	keys := make([][]byte, len(vars))
	for i, v := range vars {
		keys[i] = append(appendJSONString(nil, v), ':')
	}

	s.buf = append(s.buf, `{"vars":`...)
	s.buf = appendStrings(s.buf, res.Vars)
	s.buf = append(s.buf, `,"rows":`...)
	if len(res.Rows) == 0 {
		s.buf = append(s.buf, "null"...) // never [], see appendStrings
	} else {
		s.buf = append(s.buf, '[')
		for i, row := range res.Rows {
			if i > 0 {
				s.buf = append(s.buf, ',')
			}
			s.buf = append(s.buf, '{')
			open := len(s.buf)
			for k, v := range vars {
				t, ok := row[v]
				if !ok {
					continue
				}
				if len(s.buf) > open {
					s.buf = append(s.buf, ',')
				}
				s.buf = append(s.buf, keys[k]...)
				s.buf = appendJSONString(s.buf, t.Value)
			}
			s.buf = append(s.buf, '}')
			if len(s.buf) >= streamFlushAt && !s.flush() {
				return s.n, s.err
			}
		}
		s.buf = append(s.buf, ']')
	}
	switch {
	case len(res.Triples) > 0:
		// CONSTRUCT results travel in N-Triples syntax.
		s.buf = append(s.buf, `,"triples":[`...)
		for i, tr := range res.Triples {
			if i > 0 {
				s.buf = append(s.buf, ',')
			}
			s.buf = appendJSONString(s.buf, tr.NTriple())
			if len(s.buf) >= streamFlushAt && !s.flush() {
				return s.n, s.err
			}
		}
		s.buf = append(s.buf, ']')
	case len(res.Vars) == 0 && len(res.Rows) == 0:
		s.buf = append(s.buf, `,"ask":`...)
		s.buf = strconv.AppendBool(s.buf, res.Ask)
	}
	if statsJSON != nil {
		s.buf = append(s.buf, `,"stats":`...)
		s.buf = append(s.buf, statsJSON...)
		if plan != "" {
			s.buf = append(s.buf, `,"analyzedPlan":`...)
			s.buf = appendJSONString(s.buf, plan)
		}
	}
	s.buf = append(s.buf, '}', '\n')
	s.flush()
	return s.n, s.err
}

// serveResult answers a SPARQL request with res, plus the operator
// statistics when the request asked for analyze=1 (stats is nil
// otherwise). The encode runs under an "http encode" span labelled with
// the row and byte counts, so a request's trace shows what formatting
// the answer cost beside what computing it cost.
func serveResult(rw http.ResponseWriter, r *http.Request, res *sparql.Result, stats *sparql.ExecStats) {
	var statsJSON []byte
	var plan string
	if stats != nil {
		var err error
		if statsJSON, err = json.Marshal(stats); err != nil {
			writeError(rw, http.StatusInternalServerError, err)
			return
		}
		plan = stats.String()
	}
	sp, _ := obs.ChildCtx(r.Context(), "http encode")
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusOK)
	n, err := writeResult(rw, res, statsJSON, plan)
	sp.SetLabel("rows", strconv.Itoa(len(res.Rows))).SetLabel("bytes", strconv.FormatInt(n, 10))
	if err != nil {
		sp.SetLabel("error", err.Error())
	}
	sp.Finish()
}
