package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// A checkpoint is one of two files. A base, snap-<lsn%016x>.snap, is the
// whole store:
//
//	8-byte magic "MDWSNAP1"
//	u64 LSN — the last WAL record the file covers
//	dictionary block: uvarint term count, then each term (ID order)
//	uvarint model count, then per model:
//	    name, u64 gen, u64 basis, uvarint triple count,
//	    delta-encoded sorted ID triples
//	u32 CRC32-IEEE of every preceding byte
//	8-byte tail magic "MDWSNAPF"
//
// A delta, delta-<lsn%016x>.snap, is what the store gained and lost
// since the checkpoint file before it, base or delta, which it names by
// LSN — the files from a base to the next base form a chain:
//
//	8-byte magic "MDWDELT1"
//	u64 LSN, u64 LSN of the predecessor
//	uvarint count of dictionary terms the predecessor covers, then the
//	    dictionary's growth since: uvarint term count, each term
//	uvarint entry count, then per model that differs from the predecessor,
//	    name and a kind byte, then
//	    changed: u64 gen before, u64 gen, u64 basis, uvarint triple count
//	             the model now holds, removed triples, added triples
//	    whole:   u64 gen, u64 basis, triples (a model new since the
//	             predecessor, or one its change feed cannot describe)
//	    dropped: nothing
//	u32 CRC32-IEEE, 8-byte tail magic "MDWSNAPF"
//
// Triple lists are a uvarint count and the triples sorted ascending by
// (S, P, O) and encoded as deltas: a zero subject delta means "same
// subject as the previous triple" (then the predicate is delta-encoded
// the same way), so dense subject runs cost one or two bytes per triple.
// Compared to N-Triples text, which repeats every term lexically on every
// line, a checkpoint stores each term once and each triple as a few
// varint bytes — orders of magnitude denser and with no parsing on the
// way back in.
const (
	snapMagic     = "MDWSNAP1"
	deltaMagic    = "MDWDELT1"
	snapTailMagic = "MDWSNAPF"
)

// compactDivisor sets when a checkpoint rewrites the base instead of
// extending the chain: once the chain's files together exceed
// 1/compactDivisor of the base's size. Every compaction is then paid for
// by that much delta written since the last, so checkpointing costs
// amortised O(1) per changed triple, the directory stays within
// 1+1/compactDivisor of one base, and recovery reads that much at most.
const compactDivisor = 2

func snapshotName(lsn uint64) string { return lsnName("snap-", ".snap", lsn) }

func deltaName(lsn uint64) string { return lsnName("delta-", ".snap", lsn) }

func parseSnapshotName(name string) (uint64, bool) { return parseLSNName(name, "snap-", ".snap") }

func parseDeltaName(name string) (uint64, bool) { return parseLSNName(name, "delta-", ".snap") }

// lsnName and parseLSNName are the naming scheme of every file in a data
// directory: a prefix saying what the file is, the LSN it starts at or
// covers as 16 hex digits (so names sort by LSN), and a suffix.
func lsnName(prefix, suffix string, lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", prefix, lsn, suffix)
}

func parseLSNName(name, prefix, suffix string) (uint64, bool) {
	hex, ok := strings.CutPrefix(name, prefix)
	if ok {
		hex, ok = strings.CutSuffix(hex, suffix)
	}
	if !ok || len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	return v, err == nil
}

// listLSNFiles returns the names in dir that parse accepts, sorted by LSN
// ascending.
func listLSNFiles(dir string, parse func(string) (uint64, bool)) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := parse(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // fixed-width hex: name order is LSN order
	return names, nil
}

// Snapshot is a decoded store image.
type Snapshot struct {
	LSN    uint64
	Terms  []rdf.Term // Terms[i] is the term with dictionary ID i+1
	Models []store.ModelState
}

// Delta is a decoded delta checkpoint.
type Delta struct {
	LSN     uint64
	PrevLSN uint64 // the checkpoint file this one extends
	// FirstTerm is the number of dictionary terms the predecessor covers:
	// Terms[i] is the term with dictionary ID FirstTerm+i+1.
	FirstTerm int
	Terms     []rdf.Term
	Models    []ModelDelta
}

// ModelDelta says how one model differs from what the predecessor of a
// delta checkpoint holds.
type ModelDelta struct {
	Name string
	Kind ModelDeltaKind
	// PrevGen is the generation the change applies to (ModelChanged); Gen
	// and Basis are the model's afterwards.
	PrevGen, Gen, Basis uint64
	// Size is the number of triples the model holds afterwards: what a
	// ModelChanged entry must add up to.
	Size int
	// Added and Removed are sorted ascending by (S, P, O). A ModelWhole
	// entry lists the model's whole content as Added.
	Added, Removed []store.ETriple
}

// ModelDeltaKind tags a ModelDelta.
type ModelDeltaKind uint8

const (
	// ModelChanged carries the triples a model gained and lost.
	ModelChanged ModelDeltaKind = iota
	// ModelWhole carries a model whole.
	ModelWhole
	// ModelDropped says the model is gone.
	ModelDropped
)

// snapWriter streams bytes to a buffered file while maintaining the
// running checksum. The first write error sticks.
type snapWriter struct {
	bw  *bufio.Writer
	crc uint32
	err error
	buf []byte
}

func (w *snapWriter) write(p []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	_, w.err = w.bw.Write(p)
}

func (w *snapWriter) scratch() []byte { return w.buf[:0] }

// EncodeSnapshot writes the snapshot body (everything incl. checksum and
// tail magic) to w.
func encodeSnapshot(w *snapWriter, lsn uint64, states []store.ModelState, terms []rdf.Term) {
	w.write([]byte(snapMagic))
	w.write(appendU64(w.scratch(), lsn))
	w.write(appendUvarint(w.scratch(), uint64(len(terms))))
	for _, t := range terms {
		w.buf = appendTerm(w.scratch(), t)
		w.write(w.buf)
	}
	w.write(appendUvarint(w.scratch(), uint64(len(states))))
	for _, ms := range states {
		b := appendString(w.scratch(), ms.Name)
		b = appendU64(b, ms.Gen)
		b = appendU64(b, ms.Basis)
		w.buf = b
		w.write(w.buf)
		w.triples(ms.Triples)
	}
	w.trailer()
}

// encodeDelta writes a delta checkpoint (everything incl. checksum and
// tail magic) to w.
func encodeDelta(w *snapWriter, d *Delta) {
	w.write([]byte(deltaMagic))
	w.write(appendU64(appendU64(w.scratch(), d.LSN), d.PrevLSN))
	w.write(appendUvarint(appendUvarint(w.scratch(), uint64(d.FirstTerm)), uint64(len(d.Terms))))
	for _, t := range d.Terms {
		w.buf = appendTerm(w.scratch(), t)
		w.write(w.buf)
	}
	w.write(appendUvarint(w.scratch(), uint64(len(d.Models))))
	for _, md := range d.Models {
		b := append(appendString(w.scratch(), md.Name), byte(md.Kind))
		switch md.Kind {
		case ModelChanged:
			b = appendU64(appendU64(appendU64(b, md.PrevGen), md.Gen), md.Basis)
			w.buf = appendUvarint(b, uint64(md.Size))
			w.write(w.buf)
			w.triples(md.Removed)
			w.triples(md.Added)
		case ModelWhole:
			w.buf = appendU64(appendU64(b, md.Gen), md.Basis)
			w.write(w.buf)
			w.triples(md.Added)
		default:
			w.buf = b
			w.write(w.buf)
		}
	}
	w.trailer()
}

// triples writes a triple list: the count, then ts — sorted ascending by
// (S, P, O) — as deltas.
func (w *snapWriter) triples(ts []store.ETriple) {
	w.write(appendUvarint(w.scratch(), uint64(len(ts))))
	var prev store.ETriple
	for _, t := range ts {
		b := w.scratch()
		switch {
		case t.S != prev.S:
			b = appendUvarint(b, uint64(t.S-prev.S))
			b = appendUvarint(b, uint64(t.P))
			b = appendUvarint(b, uint64(t.O))
		case t.P != prev.P:
			b = append(b, 0)
			b = appendUvarint(b, uint64(t.P-prev.P))
			b = appendUvarint(b, uint64(t.O))
		default:
			b = append(b, 0, 0)
			b = appendUvarint(b, uint64(t.O-prev.O))
		}
		w.buf = b
		w.write(w.buf)
		prev = t
	}
}

// trailer ends a checkpoint file: the checksum of everything before it,
// then the tail magic.
func (w *snapWriter) trailer() {
	crc := w.crc // capture before the trailer writes update it
	w.write(binary.LittleEndian.AppendUint32(w.scratch(), crc))
	w.write([]byte(snapTailMagic))
}

// WriteSnapshot atomically writes a base checkpoint covering WAL position
// lsn and returns the final path and file size.
func WriteSnapshot(dir string, lsn uint64, states []store.ModelState, terms []rdf.Term) (string, int64, error) {
	return writeCheckpointFile(dir, snapshotName(lsn), func(w *snapWriter) { encodeSnapshot(w, lsn, states, terms) })
}

// writeDelta atomically writes a delta checkpoint and returns the final
// path and file size.
func writeDelta(dir string, d *Delta) (string, int64, error) {
	return writeCheckpointFile(dir, deltaName(d.LSN), func(w *snapWriter) { encodeDelta(w, d) })
}

// writeCheckpointFile writes what encode produces to dir/name: the image
// is written to a temp file in the same directory, synced, and renamed
// into place, so a crash mid-write can never damage or shadow an existing
// checkpoint file.
func writeCheckpointFile(dir, name string, encode func(*snapWriter)) (string, int64, error) {
	f, err := os.CreateTemp(dir, ".snap-tmp-*")
	if err != nil {
		return "", 0, err
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := &snapWriter{bw: bufio.NewWriterSize(f, 1<<16), buf: make([]byte, 0, 256)}
	encode(w)
	if w.err != nil {
		return "", 0, w.err
	}
	if err := w.bw.Flush(); err != nil {
		return "", 0, err
	}
	if err := f.Sync(); err != nil {
		return "", 0, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, name)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		tmp = ""
		return "", 0, err
	}
	tmp = "" // renamed away; nothing to clean up
	if err := syncDir(dir); err != nil {
		return "", 0, err
	}
	return path, size, nil
}

// checkpointBody validates what every checkpoint file has — the magic,
// the tail magic and the footer checksum — and returns a cursor on the
// checksummed bytes just past the magic.
func checkpointBody(data []byte, magic, what string) (*cursor, error) {
	if len(data) < len(magic)+8+4+len(snapTailMagic) {
		return nil, fmt.Errorf("durable: %s too short (%d bytes)", what, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("durable: not a %s (bad magic)", what)
	}
	if string(data[len(data)-len(snapTailMagic):]) != snapTailMagic {
		return nil, fmt.Errorf("durable: %s truncated (missing tail magic)", what)
	}
	body := data[:len(data)-len(snapTailMagic)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(body):])
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, fmt.Errorf("durable: %s checksum mismatch (%08x != %08x)", what, got, wantCRC)
	}
	return &cursor{data: body, off: len(magic)}, nil
}

// terms decodes a dictionary block.
func (c *cursor) terms() []rdf.Term {
	n := c.uvarint()
	if c.err == nil && n > uint64(c.remaining())/2+1 {
		c.fail("term count %d exceeds remaining bytes", n)
	}
	if c.err != nil {
		return nil
	}
	out := make([]rdf.Term, 0, n)
	for i := uint64(0); i < n && c.err == nil; i++ {
		out = append(out, c.term())
	}
	return out
}

// etriples decodes a triple list, enforcing strict (S, P, O) ascending
// order and ID range [1, maxID].
func (c *cursor) etriples(maxID uint64, model string) []store.ETriple {
	n := c.uvarint()
	if c.err == nil && n > uint64(c.remaining())/3+1 {
		c.fail("triple count %d for model %q exceeds remaining bytes", n, model)
	}
	if c.err != nil {
		return nil
	}
	out := make([]store.ETriple, 0, n)
	var prev store.ETriple
	for i := uint64(0); i < n; i++ {
		t, ok := decodeDeltaTriple(c, prev, maxID)
		if !ok {
			return nil
		}
		out = append(out, t)
		prev = t
	}
	return out
}

// DecodeSnapshot parses and fully validates a snapshot image: tail
// magic, footer checksum, structural bounds, and strict triple ordering.
// Exported for the fuzzer.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	c, err := checkpointBody(data, snapMagic, "snapshot")
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{LSN: c.u64()}
	snap.Terms = c.terms()
	maxID := uint64(len(snap.Terms))
	nModels := c.uvarint()
	if c.err == nil && nModels > uint64(c.remaining())+1 {
		c.fail("model count %d exceeds remaining bytes", nModels)
	}
	if c.err != nil {
		return nil, c.err
	}
	seen := make(map[string]bool, nModels)
	snap.Models = make([]store.ModelState, 0, nModels)
	for i := uint64(0); i < nModels; i++ {
		ms := store.ModelState{Name: c.string()}
		ms.Gen = c.u64()
		ms.Basis = c.u64()
		if c.err == nil && seen[ms.Name] {
			c.fail("duplicate model %q in snapshot", ms.Name)
		}
		seen[ms.Name] = true
		ms.Triples = c.etriples(maxID, ms.Name)
		if c.err != nil {
			return nil, c.err
		}
		snap.Models = append(snap.Models, ms)
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("durable: byte %d: %d trailing bytes in snapshot body", c.off, c.remaining())
	}
	return snap, nil
}

// DecodeDelta parses and validates a delta checkpoint image as far as the
// image alone allows: tail magic, footer checksum, structural bounds,
// strict triple ordering and IDs within the dictionary the file assumes.
// Whether it fits the state it is applied to is applyDelta's to say.
// Exported for the fuzzer.
func DecodeDelta(data []byte) (*Delta, error) {
	c, err := checkpointBody(data, deltaMagic, "delta checkpoint")
	if err != nil {
		return nil, err
	}
	d := &Delta{LSN: c.u64(), PrevLSN: c.u64()}
	first := c.uvarint()
	if c.err == nil && (first > math.MaxUint32 || d.PrevLSN >= d.LSN) {
		c.fail("delta checkpoint at LSN %d extends LSN %d over %d terms", d.LSN, d.PrevLSN, first)
	}
	d.FirstTerm = int(first)
	d.Terms = c.terms()
	maxID := first + uint64(len(d.Terms))
	n := c.uvarint()
	if c.err == nil && n > uint64(c.remaining())+1 {
		c.fail("entry count %d exceeds remaining bytes", n)
	}
	if c.err != nil {
		return nil, c.err
	}
	seen := make(map[string]bool, n)
	d.Models = make([]ModelDelta, 0, n)
	for i := uint64(0); i < n; i++ {
		md := ModelDelta{Name: c.string(), Kind: ModelDeltaKind(c.byte())}
		if c.err == nil && seen[md.Name] {
			c.fail("duplicate model %q in delta checkpoint", md.Name)
		}
		seen[md.Name] = true
		switch md.Kind {
		case ModelChanged:
			md.PrevGen, md.Gen, md.Basis = c.u64(), c.u64(), c.u64()
			size := c.uvarint()
			if c.err == nil && size > math.MaxInt32 {
				c.fail("model %q declared to hold %d triples", md.Name, size)
			}
			md.Size = int(size)
			md.Removed = c.etriples(maxID, md.Name)
			md.Added = c.etriples(maxID, md.Name)
		case ModelWhole:
			md.Gen, md.Basis = c.u64(), c.u64()
			md.Added = c.etriples(maxID, md.Name)
			md.Size = len(md.Added)
		case ModelDropped:
		default:
			c.fail("unknown entry kind %d for model %q", md.Kind, md.Name)
		}
		if c.err != nil {
			return nil, c.err
		}
		d.Models = append(d.Models, md)
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("durable: byte %d: %d trailing bytes in delta checkpoint body", c.off, c.remaining())
	}
	return d, nil
}

// decodeDeltaTriple decodes one delta-encoded triple, enforcing strict
// (S, P, O) ascending order and ID range [1, maxID].
func decodeDeltaTriple(c *cursor, prev store.ETriple, maxID uint64) (store.ETriple, bool) {
	checkID := func(v uint64, pos string) (store.ID, bool) {
		if v == 0 || v > maxID || v > math.MaxUint32 {
			c.fail("%s ID %d out of dictionary range [1, %d]", pos, v, maxID)
			return 0, false
		}
		return store.ID(v), true
	}
	dS := c.uvarint()
	if c.err != nil {
		return store.ETriple{}, false
	}
	var t store.ETriple
	switch {
	case dS != 0:
		s, ok := checkID(uint64(prev.S)+dS, "subject")
		if !ok {
			return store.ETriple{}, false
		}
		p, ok := checkID(c.uvarint(), "predicate")
		if !ok {
			return store.ETriple{}, false
		}
		o, ok := checkID(c.uvarint(), "object")
		if !ok {
			return store.ETriple{}, false
		}
		t = store.ETriple{S: s, P: p, O: o}
	default:
		dP := c.uvarint()
		if c.err != nil {
			return store.ETriple{}, false
		}
		if dP != 0 {
			p, ok := checkID(uint64(prev.P)+dP, "predicate")
			if !ok {
				return store.ETriple{}, false
			}
			o, ok := checkID(c.uvarint(), "object")
			if !ok {
				return store.ETriple{}, false
			}
			t = store.ETriple{S: prev.S, P: p, O: o}
		} else {
			dO := c.uvarint()
			if c.err != nil {
				return store.ETriple{}, false
			}
			if dO == 0 {
				c.fail("duplicate triple (zero delta)")
				return store.ETriple{}, false
			}
			o, ok := checkID(uint64(prev.O)+dO, "object")
			if !ok {
				return store.ETriple{}, false
			}
			t = store.ETriple{S: prev.S, P: prev.P, O: o}
		}
	}
	// Strict ascending order is a consequence of the encoding itself:
	// every taken delta is non-zero and positive.
	return t, true
}

// ReadSnapshot loads and validates the base checkpoint at path.
func ReadSnapshot(path string) (*Snapshot, error) {
	snap, _, err := readBase(path)
	return snap, err
}

// readBase and readDelta load and validate the checkpoint file of their
// kind at path, and return its size too.
func readBase(path string) (*Snapshot, int64, error) {
	return readCheckpointFile(path, parseSnapshotName, DecodeSnapshot, func(s *Snapshot) uint64 { return s.LSN })
}

func readDelta(path string) (*Delta, int64, error) {
	return readCheckpointFile(path, parseDeltaName, DecodeDelta, func(d *Delta) uint64 { return d.LSN })
}

// readCheckpointFile loads and decodes the checkpoint file at path and
// checks the LSN it carries against its name.
func readCheckpointFile[T any](path string, parse func(string) (uint64, bool), decode func([]byte) (*T, error), lsnOf func(*T) uint64) (*T, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	base := filepath.Base(path)
	v, err := decode(data)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", base, err)
	}
	if lsn, ok := parse(base); ok && lsn != lsnOf(v) {
		return nil, 0, fmt.Errorf("%s: checkpoint LSN %d disagrees with filename", base, lsnOf(v))
	}
	return v, int64(len(data)), nil
}

// listSnapshots and listDeltas return the base and the delta checkpoint
// filenames in dir sorted by LSN ascending.
func listSnapshots(dir string) ([]string, error) { return listLSNFiles(dir, parseSnapshotName) }

func listDeltas(dir string) ([]string, error) { return listLSNFiles(dir, parseDeltaName) }
