package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// WAL on-disk layout: the log is a sequence of segment files named
// wal-<firstLSN%016x>.log. Each segment starts with a 16-byte header
// (8-byte magic + the first LSN as a little-endian u64) followed by
// record frames:
//
//	u32 payload length | u32 CRC32-IEEE(payload) | payload
//
// LSNs are assigned densely starting at 1; a record's payload embeds its
// LSN, so recovery can verify contiguity across segment boundaries.
const (
	segMagic        = "MDWWAL1\n"
	segHeaderSize   = len(segMagic) + 8
	frameHeaderSize = 8
)

func segmentName(firstLSN uint64) string { return lsnName("wal-", ".log", firstLSN) }

// parseSegmentName extracts the first LSN from a segment filename.
func parseSegmentName(name string) (uint64, bool) { return parseLSNName(name, "wal-", ".log") }

// segmentWriter appends framed records to one open segment file through
// a buffered writer. It is not itself locked; the Manager serializes
// access.
type segmentWriter struct {
	f        *os.File
	bw       *bufio.Writer
	path     string
	firstLSN uint64
	size     int64 // bytes written including header
	dirty    bool  // bytes written since the last successful sync
	frame    []byte
}

// createSegment creates (truncating any leftover file of the same name —
// a collision is only possible when the previous incarnation held no
// valid records), writes and syncs the header, and syncs the containing
// directory, so that the new file survives a crash whole: a segment
// nobody has appended to yet recovers as empty, not as a torn tail.
func createSegment(dir string, firstLSN uint64) (*segmentWriter, error) {
	path := filepath.Join(dir, segmentName(firstLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, segHeaderSize)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, firstLSN)
	if _, err = f.Write(hdr); err == nil {
		if err = f.Sync(); err == nil {
			err = syncDir(dir)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &segmentWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16), path: path, firstLSN: firstLSN, size: int64(segHeaderSize)}, nil
}

// append frames payload and writes it to the buffer.
func (w *segmentWriter) append(payload []byte) error {
	w.frame = w.frame[:0]
	w.frame = binary.LittleEndian.AppendUint32(w.frame, uint32(len(payload)))
	w.frame = binary.LittleEndian.AppendUint32(w.frame, crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(w.frame); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.size += int64(frameHeaderSize + len(payload))
	w.dirty = true
	return nil
}

// sync flushes the buffer and fsyncs the file. No-op when nothing was
// written since the last sync.
func (w *segmentWriter) sync() (time.Duration, error) {
	if !w.dirty {
		return 0, nil
	}
	t0 := time.Now()
	if err := w.bw.Flush(); err != nil {
		return 0, err
	}
	if err := w.f.Sync(); err != nil {
		return 0, err
	}
	w.dirty = false
	return time.Since(t0), nil
}

// close syncs and closes the file.
func (w *segmentWriter) close() error {
	_, err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so renames and creations inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// segmentScan is the result of reading one segment file.
type segmentScan struct {
	path     string
	firstLSN uint64
	records  []*Record
	// validLen is the byte offset just past the last cleanly decoded
	// record — the truncation point when the tail is torn.
	validLen int64
	// torn describes a tail that ends mid-record (tolerated in the final
	// segment: the crash interrupted the last append).
	torn error
	// corrupt describes damage that is NOT a torn tail: a record whose
	// checksum fails with further bytes behind it, a structurally invalid
	// payload, or an LSN discontinuity. Recovery refuses to proceed past
	// it.
	corrupt error
}

// scanSegment reads and validates one segment file. Hard errors (I/O,
// unreadable or mismatched header) are returned as err; frame-level
// problems are classified into scan.torn / scan.corrupt so the caller
// can decide based on the segment's position in the log.
func scanSegment(path string) (*segmentScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	scan := &segmentScan{path: path}
	if len(data) < segHeaderSize {
		// A crash while the segment is created can leave the header short
		// (possibly zero bytes: the file exists before its header is
		// synced). If what IS on disk is a prefix of the header this file
		// would carry, that's a torn creation — only tolerable as the final
		// segment, like any other torn tail. Any other short content is
		// damage.
		fromName, ok := parseSegmentName(filepath.Base(path))
		want := append([]byte(segMagic), make([]byte, 8)...)
		binary.LittleEndian.PutUint64(want[len(segMagic):], fromName)
		if ok && string(data) == string(want[:len(data)]) {
			scan.firstLSN = fromName
			scan.torn = fmt.Errorf("durable: %s: segment header incomplete (%d of %d bytes)", filepath.Base(path), len(data), segHeaderSize)
			return scan, nil
		}
		return nil, fmt.Errorf("durable: %s: not a WAL segment (bad header)", filepath.Base(path))
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("durable: %s: not a WAL segment (bad header)", filepath.Base(path))
	}
	scan.firstLSN = binary.LittleEndian.Uint64(data[len(segMagic):])
	if fromName, ok := parseSegmentName(filepath.Base(path)); !ok || fromName != scan.firstLSN {
		return nil, fmt.Errorf("durable: %s: segment header LSN %d disagrees with filename", filepath.Base(path), scan.firstLSN)
	}
	off := int64(segHeaderSize)
	scan.validLen = off
	expect := scan.firstLSN
	for off < int64(len(data)) {
		rest := int64(len(data)) - off
		if rest < frameHeaderSize {
			scan.torn = fmt.Errorf("durable: %s: torn frame header at byte %d (%d trailing bytes)", filepath.Base(path), off, rest)
			return scan, nil
		}
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if plen > maxRecordBytes || off+frameHeaderSize+plen > int64(len(data)) {
			// The frame extends past EOF (or its length field is garbage,
			// indistinguishable from a partially written length): the
			// classic torn final append.
			scan.torn = fmt.Errorf("durable: %s: torn record at byte %d (declared %d bytes, %d available)", filepath.Base(path), off, plen, rest-frameHeaderSize)
			return scan, nil
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+plen]
		end := off + frameHeaderSize + plen
		if crc32.ChecksumIEEE(payload) != crc {
			if end == int64(len(data)) {
				// Checksum failure on the very last record: a torn write
				// inside the final sector.
				scan.torn = fmt.Errorf("durable: %s: checksum mismatch on final record at byte %d", filepath.Base(path), off)
				return scan, nil
			}
			// Valid-looking frames follow the damage: this is mid-log
			// corruption, not an interrupted append.
			scan.corrupt = fmt.Errorf("durable: %s: checksum mismatch at byte %d with %d bytes following", filepath.Base(path), off, int64(len(data))-end)
			return scan, nil
		}
		rec, derr := DecodePayload(payload)
		if derr != nil {
			scan.corrupt = fmt.Errorf("durable: %s: invalid record at byte %d: %w", filepath.Base(path), off, derr)
			return scan, nil
		}
		if rec.LSN != expect {
			scan.corrupt = fmt.Errorf("durable: %s: LSN discontinuity at byte %d: record %d, expected %d", filepath.Base(path), off, rec.LSN, expect)
			return scan, nil
		}
		scan.records = append(scan.records, rec)
		scan.validLen = end
		off = end
		expect++
	}
	return scan, nil
}

// listSegments returns the segment filenames in dir sorted by first LSN.
func listSegments(dir string) ([]string, error) { return listLSNFiles(dir, parseSegmentName) }
