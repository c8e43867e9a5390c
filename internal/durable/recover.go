package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// RecoveryStats summarizes one recovery pass.
type RecoveryStats struct {
	SnapshotPath     string        `json:"snapshotPath,omitempty"`
	SnapshotLSN      uint64        `json:"snapshotLSN"`
	SkippedSnapshots int           `json:"skippedSnapshots,omitempty"`
	ReplayedRecords  int           `json:"replayedRecords"`
	ReplayedTriples  int           `json:"replayedTriples"`
	LastLSN          uint64        `json:"lastLSN"`
	TornTail         string        `json:"tornTail,omitempty"`
	Models           int           `json:"models"`
	Triples          int           `json:"triples"`
	Duration         time.Duration `json:"duration"`
}

// Recover rebuilds a store from the data directory: it loads the newest
// snapshot that validates (invalid ones are skipped with a warning),
// replays the WAL tail above the snapshot's LSN, truncates a torn final
// record if the last append was interrupted, and fails loudly on mid-log
// corruption or LSN gaps. Every replayed record's post-state generation
// is checked against the generation the record logged at commit time, so
// replay divergence cannot pass silently.
func Recover(dir string, logf func(string, ...any)) (*store.Store, *RecoveryStats, error) {
	return recoverDir(dir, logf, true)
}

// RecoverReadOnly is Recover for a reader that does not own the
// directory: it writes nothing, so a torn final record is skipped and
// left for the owner's next Recover to trim. Trimming it here could cut
// the record a running server is in the middle of appending.
func RecoverReadOnly(dir string, logf func(string, ...any)) (*store.Store, *RecoveryStats, error) {
	return recoverDir(dir, logf, false)
}

func recoverDir(dir string, logf func(string, ...any), repair bool) (*store.Store, *RecoveryStats, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	t0 := time.Now()
	st := store.New()
	stats := &RecoveryStats{}

	snap, err := loadLatestSnapshot(dir, st, stats, logf)
	if err != nil {
		return nil, stats, err
	}
	snapLSN := uint64(0)
	if snap != nil {
		snapLSN = snap.LSN
	}
	stats.LastLSN = snapLSN

	if err := replayWAL(dir, st, snapLSN, stats, logf, repair); err != nil {
		return nil, stats, err
	}

	for _, name := range st.ModelNames() {
		stats.Models++
		stats.Triples += st.Len(name)
	}
	stats.Duration = time.Since(t0)
	return st, stats, nil
}

// loadLatestSnapshot finds the newest valid snapshot, loads it into st,
// and verifies per-model triple counts.
func loadLatestSnapshot(dir string, st *store.Store, stats *RecoveryStats, logf func(string, ...any)) (*Snapshot, error) {
	names, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		snap, err := ReadSnapshot(path)
		if err != nil {
			logf("durable: skipping invalid snapshot %s: %v", names[i], err)
			stats.SkippedSnapshots++
			obsBadSnapshots.Inc()
			continue
		}
		if err := LoadSnapshot(st, snap); err != nil {
			return nil, fmt.Errorf("durable: %s: %w", names[i], err)
		}
		stats.SnapshotPath = path
		stats.SnapshotLSN = snap.LSN
		return snap, nil
	}
	return nil, nil
}

// LoadSnapshot installs a decoded snapshot into a fresh store. The
// dictionary is rebuilt in ID order, so every encoded triple keeps its
// IDs; per-model triple counts are verified against the decoded count.
func LoadSnapshot(st *store.Store, snap *Snapshot) error {
	dict := st.Dict()
	for i, t := range snap.Terms {
		if id := dict.Intern(t); id != store.ID(i+1) {
			return fmt.Errorf("dictionary not reconstructible: term %d interned as ID %d (duplicate term in snapshot?)", i+1, id)
		}
	}
	for _, ms := range snap.Models {
		m := store.NewModel(ms.Name)
		for _, et := range ms.Triples {
			m.Add(et)
		}
		if m.Len() != len(ms.Triples) {
			return fmt.Errorf("model %q: %d distinct triples loaded, snapshot declared %d", ms.Name, m.Len(), len(ms.Triples))
		}
		m.SetGen(ms.Gen)
		m.SetBasis(ms.Basis)
		st.InstallModel(m)
	}
	return nil
}

// replayWAL applies every WAL record above snapLSN to st, enforcing
// cross-segment LSN contiguity, tolerating (and, with repair, truncating)
// a torn tail in the final segment, and reporting mid-log corruption as a
// hard error.
func replayWAL(dir string, st *store.Store, snapLSN uint64, stats *RecoveryStats, logf func(string, ...any), repair bool) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	// Drop segments the snapshot fully covers without reading them: a
	// segment's records all lie below the next segment's first LSN, so if
	// that bound is at or below the snapshot position the segment is
	// redundant (it survives only until the next checkpoint truncation).
	for len(segs) > 1 {
		next, _ := parseSegmentName(segs[1])
		if next > snapLSN+1 {
			break
		}
		segs = segs[1:]
	}
	applied := snapLSN
	for i, name := range segs {
		last := i == len(segs)-1
		path := filepath.Join(dir, name)
		scan, err := scanSegment(path)
		if err != nil {
			return err
		}
		if scan.firstLSN > applied+1 {
			return fmt.Errorf("durable: WAL gap: %s starts at LSN %d but only LSN %d is accounted for", name, scan.firstLSN, applied)
		}
		if scan.corrupt != nil {
			return fmt.Errorf("durable: mid-log corruption: %w", scan.corrupt)
		}
		if scan.torn != nil && !last {
			return fmt.Errorf("durable: mid-log corruption: non-final segment ends mid-record: %w", scan.torn)
		}
		for _, rec := range scan.records {
			if rec.LSN <= applied {
				continue // covered by the snapshot
			}
			if err := applyRecord(st, rec); err != nil {
				return fmt.Errorf("durable: %s: replay LSN %d: %w", name, rec.LSN, err)
			}
			applied = rec.LSN
			stats.ReplayedRecords++
			stats.ReplayedTriples += len(rec.Triples)
			obsReplayed.Inc()
			obsReplayedTrip.Add(int64(len(rec.Triples)))
		}
		if scan.torn != nil {
			stats.TornTail = scan.torn.Error()
			if !repair {
				break // the final segment: its tail is the owner's to trim
			}
			// The crash interrupted the final append: everything before it
			// is applied, the partial record never committed. Truncate so
			// the garbage can't shadow future appends or be misread as
			// mid-log corruption on the next recovery.
			logf("durable: truncating torn WAL tail: %v", scan.torn)
			obsTornTails.Inc()
			if scan.validLen < int64(segHeaderSize) {
				// Not even the header survived: drop the file instead of
				// leaving a headerless stub behind.
				if err := os.Remove(path); err != nil {
					return fmt.Errorf("durable: removing torn segment %s: %w", name, err)
				}
			} else if err := os.Truncate(path, scan.validLen); err != nil {
				return fmt.Errorf("durable: truncating torn tail of %s: %w", name, err)
			}
			if err := syncDir(dir); err != nil {
				return err
			}
		}
	}
	stats.LastLSN = applied
	return nil
}

// applyRecord replays one mutation and verifies the resulting model
// generation matches the one logged at commit time.
func applyRecord(st *store.Store, rec *Record) error {
	switch rec.Op {
	case store.OpAdd:
		if n := st.AddAll(rec.Model, rec.Triples); n != len(rec.Triples) {
			return fmt.Errorf("add: %d of %d triples were duplicates (replay divergence)", len(rec.Triples)-n, len(rec.Triples))
		}
		return verifyGen(st, rec.Model, rec.Gen)
	case store.OpRemove:
		for _, t := range rec.Triples {
			if !st.Remove(rec.Model, t) {
				return fmt.Errorf("remove: triple absent (replay divergence)")
			}
		}
		return verifyGen(st, rec.Model, rec.Gen)
	case store.OpDrop:
		if !st.DropModel(rec.Model) {
			return fmt.Errorf("drop: model %q absent (replay divergence)", rec.Model)
		}
		return nil
	case store.OpClone:
		// Replay with the generation the original CloneModel allocated:
		// clone generations are salted store-wide (the salt depends on
		// models that may since have been dropped), so the record — not a
		// fresh allocation — is authoritative. verifyGen still guards the
		// clone path itself against divergence.
		if err := st.CloneModelAt(rec.Src, rec.Model, rec.Gen); err != nil {
			return err
		}
		return verifyGen(st, rec.Model, rec.Gen)
	case store.OpInstall:
		m := store.NewModel(rec.Model)
		for _, t := range rec.Triples {
			m.Add(intern(st.Dict(), t))
		}
		if m.Len() != len(rec.Triples) {
			return fmt.Errorf("install: %d distinct triples, record declared %d", m.Len(), len(rec.Triples))
		}
		m.SetGen(rec.Gen)
		m.SetBasis(rec.Basis)
		st.InstallModel(m)
		return nil
	case store.OpExtend:
		// The record holds a difference, so it only means something
		// against the model it was computed from.
		if err := verifyGen(st, rec.Model, rec.PrevGen); err != nil {
			return err
		}
		m := st.SnapshotModel(rec.Model)
		if m == nil {
			return fmt.Errorf("extend: model %q absent (replay divergence)", rec.Model)
		}
		for _, t := range rec.Removed {
			if !m.Remove(intern(st.Dict(), t)) {
				return fmt.Errorf("extend: removed triple absent (replay divergence)")
			}
		}
		for _, t := range rec.Triples {
			if !m.Add(intern(st.Dict(), t)) {
				return fmt.Errorf("extend: added triple already present (replay divergence)")
			}
		}
		m.SetGen(rec.Gen)
		m.SetBasis(rec.Basis)
		st.InstallModel(m)
		return nil
	default:
		return fmt.Errorf("unknown op %d", rec.Op)
	}
}

func intern(dict *store.Dict, t rdf.Triple) store.ETriple {
	return store.ETriple{S: dict.Intern(t.S), P: dict.Intern(t.P), O: dict.Intern(t.O)}
}

func verifyGen(st *store.Store, model string, want uint64) error {
	if got := st.Generation(model); got != want {
		return fmt.Errorf("model %q at generation %d after replay, record expected %d (replay divergence)", model, got, want)
	}
	return nil
}
