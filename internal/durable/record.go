// Package durable is the persistence layer of the warehouse store: a
// write-ahead log of every committed mutation, compact binary snapshots
// of the whole store, background checkpointing, and crash recovery.
//
// The paper's warehouse sits on a durable Oracle substrate — loads
// survive failures and the historized release chain (Section III) is
// persistent. This package gives the in-memory store the same property:
// a Manager attaches to the store's commit hook, appends a
// length-prefixed CRC32-checksummed binary record for every mutation to
// a segmented log, periodically spills a consistent binary snapshot, and
// on restart rebuilds the exact pre-crash state from the latest valid
// snapshot plus the log tail.
package durable

import (
	"encoding/binary"
	"fmt"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// Record is one decoded WAL record: a committed store mutation stamped
// with its log sequence number. Triples are carried as full terms, not
// dictionary IDs, so replay does not depend on reconstructing the
// dictionary in the same order.
type Record struct {
	LSN     uint64
	Op      store.Op
	Model   string
	Src     string // OpClone source
	Gen     uint64 // model generation after the mutation
	Basis   uint64 // OpInstall/OpExtend derivation basis
	PrevGen uint64 // OpExtend: generation of the model the extension applies to
	Triples []rdf.Triple
	Removed []rdf.Triple // OpExtend: triples the extension takes away
}

// Term kind tags in the binary encoding. Literal sub-kinds are split out
// so plain literals cost a single tag byte.
const (
	tagIRI = iota
	tagBlank
	tagLiteral
	tagTypedLiteral
	tagLangLiteral
)

// maxRecordBytes bounds a record frame's declared payload length. A
// length field beyond it is unconditionally invalid (the biggest real
// records — from-scratch index-model installs — stay far below).
const maxRecordBytes = 1 << 30

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendTerm(b []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRIKind:
		b = append(b, tagIRI)
		return appendString(b, t.Value)
	case rdf.BlankKind:
		b = append(b, tagBlank)
		return appendString(b, t.Value)
	default: // literal
		switch {
		case t.Lang != "":
			b = append(b, tagLangLiteral)
			b = appendString(b, t.Value)
			return appendString(b, t.Lang)
		case t.Datatype != "":
			b = append(b, tagTypedLiteral)
			b = appendString(b, t.Value)
			return appendString(b, t.Datatype)
		default:
			b = append(b, tagLiteral)
			return appendString(b, t.Value)
		}
	}
}

// appendPayload serializes rec (everything inside a frame, excluding the
// length/CRC header) onto b.
func appendPayload(b []byte, rec *Record) []byte {
	b = appendU64(b, rec.LSN)
	b = append(b, byte(rec.Op))
	b = appendString(b, rec.Model)
	switch rec.Op {
	case store.OpAdd, store.OpRemove:
		b = appendU64(b, rec.Gen)
		b = appendTriples(b, rec.Triples)
	case store.OpDrop:
	case store.OpClone:
		b = appendString(b, rec.Src)
		b = appendU64(b, rec.Gen)
	case store.OpInstall:
		b = appendU64(b, rec.Gen)
		b = appendU64(b, rec.Basis)
		b = appendTriples(b, rec.Triples)
	case store.OpExtend:
		b = appendU64(b, rec.PrevGen)
		b = appendU64(b, rec.Gen)
		b = appendU64(b, rec.Basis)
		b = appendTriples(b, rec.Triples)
		b = appendTriples(b, rec.Removed)
	}
	return b
}

func appendTriples(b []byte, ts []rdf.Triple) []byte {
	b = appendUvarint(b, uint64(len(ts)))
	for _, t := range ts {
		b = appendTerm(b, t.S)
		b = appendTerm(b, t.P)
		b = appendTerm(b, t.O)
	}
	return b
}

// cursor decodes from a byte slice, tracking the offset for error
// reporting. Every read is bounds-checked; a failed read poisons the
// cursor so callers can check once at the end of a decode group.
type cursor struct {
	data []byte
	off  int
	err  error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("byte %d: %s", c.off, fmt.Sprintf(format, args...))
	}
}

func (c *cursor) remaining() int { return len(c.data) - c.off }

func (c *cursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if c.remaining() < 8 {
		c.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(c.data[c.off:])
	c.off += 8
	return v
}

func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.remaining() < 1 {
		c.fail("truncated byte")
		return 0
	}
	v := c.data[c.off]
	c.off++
	return v
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		c.fail("bad uvarint")
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) string() string {
	if c.err != nil {
		return ""
	}
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if n > uint64(c.remaining()) {
		c.fail("string length %d exceeds %d remaining bytes", n, c.remaining())
		return ""
	}
	s := string(c.data[c.off : c.off+int(n)])
	c.off += int(n)
	return s
}

func (c *cursor) term() rdf.Term {
	tag := c.byte()
	if c.err != nil {
		return rdf.Term{}
	}
	switch tag {
	case tagIRI:
		return rdf.IRI(c.string())
	case tagBlank:
		return rdf.Blank(c.string())
	case tagLiteral:
		return rdf.Literal(c.string())
	case tagTypedLiteral:
		v := c.string()
		return rdf.TypedLiteral(v, c.string())
	case tagLangLiteral:
		v := c.string()
		return rdf.LangLiteral(v, c.string())
	default:
		c.fail("unknown term tag %d", tag)
		return rdf.Term{}
	}
}

func (c *cursor) triples() []rdf.Triple {
	n := c.uvarint()
	if c.err != nil {
		return nil
	}
	// Each triple costs at least 6 bytes (three one-byte tags plus three
	// zero-length strings), so a count beyond remaining/6 is structurally
	// impossible — reject it before allocating.
	if n > uint64(c.remaining())/6+1 {
		c.fail("triple count %d exceeds remaining bytes", n)
		return nil
	}
	out := make([]rdf.Triple, 0, n)
	for i := uint64(0); i < n; i++ {
		s := c.term()
		p := c.term()
		o := c.term()
		if c.err != nil {
			return nil
		}
		out = append(out, rdf.Triple{S: s, P: p, O: o})
	}
	return out
}

// DecodePayload decodes one record payload (the frame contents after the
// length/CRC header). Exported for the fuzzer.
func DecodePayload(data []byte) (*Record, error) {
	c := &cursor{data: data}
	rec := &Record{}
	rec.LSN = c.u64()
	if c.err == nil && rec.LSN == 0 {
		c.fail("LSN 0 is invalid (LSNs start at 1)")
	}
	rec.Op = store.Op(c.byte())
	rec.Model = c.string()
	switch rec.Op {
	case store.OpAdd, store.OpRemove:
		rec.Gen = c.u64()
		rec.Triples = c.triples()
	case store.OpDrop:
	case store.OpClone:
		rec.Src = c.string()
		rec.Gen = c.u64()
	case store.OpInstall:
		rec.Gen = c.u64()
		rec.Basis = c.u64()
		rec.Triples = c.triples()
	case store.OpExtend:
		rec.PrevGen = c.u64()
		rec.Gen = c.u64()
		rec.Basis = c.u64()
		rec.Triples = c.triples()
		rec.Removed = c.triples()
	default:
		if c.err == nil {
			c.fail("unknown op %d", rec.Op)
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("byte %d: %d trailing bytes after record", c.off, c.remaining())
	}
	return rec, nil
}
