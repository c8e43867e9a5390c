package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The helpers below read single fields out of a JSON reply without
// decoding it, so that checking a 2 MB reply costs the load generator a
// scan and not a parse. They accept any whitespace around the colon: a
// server that stops indenting its JSON still passes.

// afterKey returns the text following the next `"key":` at or after
// from, and the offset just past it, or -1.
func afterKey(body []byte, key string, from int) int {
	quoted := `"` + key + `"`
	for from < len(body) {
		i := bytes.Index(body[from:], []byte(quoted))
		if i < 0 {
			return -1
		}
		p := skipSpace(body, from+i+len(quoted))
		if p < len(body) && body[p] == ':' {
			return skipSpace(body, p+1)
		}
		from += i + len(quoted)
	}
	return -1
}

func skipSpace(b []byte, p int) int {
	for p < len(b) && (b[p] == ' ' || b[p] == '\n' || b[p] == '\t' || b[p] == '\r') {
		p++
	}
	return p
}

func hasKey(body []byte, key string) bool { return afterKey(body, key, 0) >= 0 }

// fieldInt returns the first integer value of key.
func fieldInt(body []byte, key string) (int, bool) {
	p := afterKey(body, key, 0)
	if p < 0 {
		return 0, false
	}
	end := p
	for end < len(body) && (body[end] == '-' || body[end] >= '0' && body[end] <= '9') {
		end++
	}
	n, err := strconv.Atoi(string(body[p:end]))
	return n, err == nil
}

// arrayEmpty reports whether key is missing, null or an empty array.
func arrayEmpty(body []byte, key string) bool {
	p := afterKey(body, key, 0)
	if p < 0 || body[p] != '[' {
		return true
	}
	p = skipSpace(body, p+1)
	return p >= len(body) || body[p] == ']'
}

// eachString calls fn with every string value of key. The values the
// benchmark looks at are names and IRIs, which JSON never escapes.
func eachString(body []byte, key string, fn func(val []byte)) {
	for p := afterKey(body, key, 0); p >= 0; p = afterKey(body, key, p) {
		if p < len(body) && body[p] == '"' {
			if end := bytes.IndexByte(body[p+1:], '"'); end >= 0 {
				fn(body[p+1 : p+1+end])
			}
		}
	}
}

// hasString reports whether some string value of key equals want.
func hasString(body []byte, key, want string) bool {
	found := false
	eachString(body, key, func(v []byte) { found = found || string(v) == want })
	return found
}

// Canonical re-encodes a JSON reply so that formatting and enumeration
// order drop out: compact, object keys sorted, and every array sorted by
// the encoding of its elements unless ordered is set (a query with an
// ORDER BY). A changed result changes the output; a reordered or
// reindented one does not.
func Canonical(body []byte, ordered bool) ([]byte, error) {
	var v any
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return canonical(v, ordered), nil
}

func canonical(v any, ordered bool) []byte {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b bytes.Buffer
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			kb, _ := json.Marshal(k) // a string always marshals
			b.Write(kb)
			b.WriteByte(':')
			b.Write(canonical(x[k], ordered))
		}
		b.WriteByte('}')
		return b.Bytes()
	case []any:
		elems := make([][]byte, len(x))
		for i, e := range x {
			elems[i] = canonical(e, ordered)
		}
		if !ordered {
			sort.Slice(elems, func(i, j int) bool { return bytes.Compare(elems[i], elems[j]) < 0 })
		}
		return append(append([]byte{'['}, bytes.Join(elems, []byte{','})...), ']')
	default:
		b, _ := json.Marshal(x) // string, json.Number, bool or nil
		return b
	}
}

// Digest accumulates the canonical replies of a golden set.
type Digest struct {
	sum [sha256.Size]byte
}

// Add folds one reply into the digest.
func (d *Digest) Add(r Request, body []byte) error {
	c, err := Canonical(body, r.Ordered)
	if err != nil {
		return fmt.Errorf("%s %s: reply is not JSON: %w", r.Method, r.Path, err)
	}
	h := sha256.New()
	h.Write(d.sum[:])
	h.Write([]byte(r.Method + " " + r.Path + "\n" + r.Body + "\n"))
	h.Write(c)
	copy(d.sum[:], h.Sum(nil))
	return nil
}

func (d *Digest) String() string { return hex.EncodeToString(d.sum[:]) }

// goldenFile holds one line per scale: "<scale> <sha256>".
func goldenFile(dir, workload string) string {
	return filepath.Join(dir, workload+".sha256")
}

// ReadGolden returns the committed digest of workload at scale, or "" if
// none is recorded.
func ReadGolden(dir, workload, scale string) (string, error) {
	data, err := os.ReadFile(goldenFile(dir, workload))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == scale {
			return f[1], nil
		}
	}
	return "", nil
}

// WriteGolden records digest as the golden digest of workload at scale,
// keeping the lines of other scales.
func WriteGolden(dir, workload, scale, digest string) error {
	lines := []string{scale + " " + digest}
	if data, err := os.ReadFile(goldenFile(dir, workload)); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] != scale {
				lines = append(lines, line)
			}
		}
	}
	sort.Strings(lines)
	return os.WriteFile(goldenFile(dir, workload), []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}
