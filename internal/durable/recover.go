package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mdw/internal/rdf"
	"mdw/internal/store"
)

// RecoveryStats summarizes one recovery pass.
type RecoveryStats struct {
	SnapshotPath string `json:"snapshotPath,omitempty"`
	SnapshotLSN  uint64 `json:"snapshotLSN"`
	// DeltaCheckpoints counts the delta checkpoints applied on top of the
	// base at SnapshotPath; SkippedSnapshots the checkpoint files, base or
	// delta, that recovery could not use.
	DeltaCheckpoints int           `json:"deltaCheckpoints"`
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
// base checkpoint that validates (invalid ones are skipped with a
// warning), applies the chain of delta checkpoints that extends it for as
// far as each one validates and fits the one before, replays the WAL tail
// above the last of them, truncates a torn final record if the last
// append was interrupted, and fails loudly on mid-log corruption or LSN
// gaps. Every replayed record's post-state generation is checked against
// the generation the record logged at commit time, so replay divergence
// cannot pass silently.
func Recover(dir string, logf func(string, ...any)) (*store.Store, *RecoveryStats, error) {
	st, stats, _, err := recoverDir(dir, logf, true)
	return st, stats, err
}

// RecoverReadOnly is Recover for a reader that does not own the
// directory: it writes nothing, so a torn final record is skipped and
// left for the owner's next Recover to trim. Trimming it here could cut
// the record a running server is in the middle of appending.
func RecoverReadOnly(dir string, logf func(string, ...any)) (*store.Store, *RecoveryStats, error) {
	st, stats, _, err := recoverDir(dir, logf, false)
	return st, stats, err
}

// chainState is where a data directory's checkpoint files stand: what the
// next checkpoint extends, and what it decides base-or-delta by. Recovery
// reports it, the Manager keeps it current.
type chainState struct {
	// path and lsn name the newest checkpoint file in use, base or delta
	// (no file, LSN 0, before the first checkpoint); terms is the number
	// of dictionary terms the files up to it cover and cuts the models
	// they add up to, as positions in the models' change feeds.
	path  string
	lsn   uint64
	terms int
	cuts  map[string]store.Cut
	// baseBytes is the size of the base the chain starts from, chainBytes
	// the size of the deltas since.
	baseBytes, chainBytes int64
	// unused lists the checkpoint files newer than that base which
	// recovery could not use: damaged, or chained to one that is.
	unused []string
}

func recoverDir(dir string, logf func(string, ...any), repair bool) (*store.Store, *RecoveryStats, *chainState, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	t0 := time.Now()
	st := store.New()
	stats := &RecoveryStats{}

	ck, err := loadCheckpoints(dir, st, stats, logf)
	if err != nil {
		return nil, stats, nil, err
	}
	stats.LastLSN = ck.lsn

	if err := replayWAL(dir, st, ck.lsn, stats, logf, repair); err != nil {
		return nil, stats, nil, err
	}

	for _, name := range st.ModelNames() {
		stats.Models++
		stats.Triples += st.Len(name)
	}
	stats.Duration = time.Since(t0)
	return st, stats, ck, nil
}

// loadCheckpoints loads the newest valid base checkpoint and the chain of
// delta checkpoints on top of it into st. A delta that is damaged, or
// does not fit the state the files before it add up to, ends the chain:
// the WAL carries on from there.
func loadCheckpoints(dir string, st *store.Store, stats *RecoveryStats, logf func(string, ...any)) (*chainState, error) {
	bases, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	deltas, err := listDeltas(dir)
	if err != nil {
		return nil, err
	}
	ck := &chainState{cuts: map[string]store.Cut{}}
	skip := func(name string, err error) {
		logf("durable: skipping checkpoint file %s: %v", name, err)
		stats.SkippedSnapshots++
		obsBadSnapshots.Inc()
		ck.unused = append(ck.unused, name)
	}
	models := map[string]*store.Model{}
	for i := len(bases) - 1; i >= 0; i-- {
		path := filepath.Join(dir, bases[i])
		snap, size, err := readBase(path)
		if err != nil {
			skip(bases[i], err)
			continue
		}
		if models, err = loadBase(st.Dict(), snap); err != nil {
			return nil, fmt.Errorf("durable: %s: %w", bases[i], err)
		}
		stats.SnapshotPath, stats.SnapshotLSN = path, snap.LSN
		ck.path, ck.lsn, ck.terms, ck.baseBytes = path, snap.LSN, len(snap.Terms), size
		break
	}
	base, broken := ck.lsn, false
	for _, name := range deltas {
		if lsn, _ := parseDeltaName(name); lsn <= base {
			continue // of an older base's chain
		}
		if broken {
			ck.unused = append(ck.unused, name)
			continue
		}
		path := filepath.Join(dir, name)
		d, size, err := readDelta(path)
		if err == nil {
			err = applyDelta(st.Dict(), models, d, ck.lsn)
		}
		if err != nil {
			skip(name, err)
			broken = true
			continue
		}
		ck.path, ck.lsn, ck.terms = path, d.LSN, ck.terms+len(d.Terms)
		ck.chainBytes += size
		stats.DeltaCheckpoints++
	}
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.InstallModel(models[name])
	}
	for _, c := range st.Snapshot(names...).Cuts() {
		ck.cuts[c.Name] = c
	}
	return ck, nil
}

// LoadSnapshot installs a decoded snapshot into a fresh store. The
// dictionary is rebuilt in ID order, so every encoded triple keeps its
// IDs; per-model triple counts are verified against the decoded count.
func LoadSnapshot(st *store.Store, snap *Snapshot) error {
	models, err := loadBase(st.Dict(), snap)
	if err != nil {
		return err
	}
	for _, ms := range snap.Models {
		st.InstallModel(models[ms.Name])
	}
	return nil
}

// loadBase rebuilds what a decoded base checkpoint holds: the dictionary,
// into the empty dict, and the models, which it returns detached.
func loadBase(dict *store.Dict, snap *Snapshot) (map[string]*store.Model, error) {
	for i, t := range snap.Terms {
		if id := dict.Intern(t); id != store.ID(i+1) {
			return nil, fmt.Errorf("dictionary not reconstructible: term %d interned as ID %d (duplicate term in snapshot?)", i+1, id)
		}
	}
	models := make(map[string]*store.Model, len(snap.Models))
	for _, ms := range snap.Models {
		m, err := buildModel(ms.Name, ms.Gen, ms.Basis, ms.Triples)
		if err != nil {
			return nil, err
		}
		models[ms.Name] = m
	}
	return models, nil
}

// buildModel returns a detached model holding ts at the given generation.
func buildModel(name string, gen, basis uint64, ts []store.ETriple) (*store.Model, error) {
	m := store.NewModel(name)
	for _, et := range ts {
		m.Add(et)
	}
	if m.Len() != len(ts) {
		return nil, fmt.Errorf("model %q: %d distinct triples loaded, checkpoint declared %d", name, m.Len(), len(ts))
	}
	m.SetGen(gen)
	m.SetBasis(basis)
	return m, nil
}

// applyDelta brings dict and models — the state the checkpoint files up
// to LSN at add up to — forward by one delta checkpoint. It first checks
// that the delta fits that state (it extends the file at LSN at, over a
// dictionary of the present size; its terms are new; every changed model
// stands at the generation the change starts from, holds what is removed,
// lacks what is added, and ends at the declared size), and changes
// nothing unless it does.
func applyDelta(dict *store.Dict, models map[string]*store.Model, d *Delta, at uint64) error {
	if d.PrevLSN != at {
		return fmt.Errorf("extends the checkpoint at LSN %d, the chain stands at LSN %d", d.PrevLSN, at)
	}
	if d.FirstTerm != dict.Len() {
		return fmt.Errorf("extends a dictionary of %d terms, the chain's has %d", d.FirstTerm, dict.Len())
	}
	fresh := make(map[rdf.Term]bool, len(d.Terms))
	for _, t := range d.Terms {
		if _, known := dict.Lookup(t); known || fresh[t] {
			return fmt.Errorf("term %v is in the dictionary already", t)
		}
		fresh[t] = true
	}
	for _, md := range d.Models {
		m, ok := models[md.Name]
		switch {
		case md.Kind == ModelWhole:
		case !ok:
			return fmt.Errorf("model %q is not in the chain", md.Name)
		case md.Kind == ModelChanged:
			if m.Gen() != md.PrevGen {
				return fmt.Errorf("model %q at generation %d, change starts from %d", md.Name, m.Gen(), md.PrevGen)
			}
			for _, t := range md.Removed {
				if !m.Contains(t) {
					return fmt.Errorf("model %q lacks a triple the change removes", md.Name)
				}
			}
			for _, t := range md.Added {
				if m.Contains(t) {
					return fmt.Errorf("model %q holds a triple the change adds", md.Name)
				}
			}
			if n := m.Len() - len(md.Removed) + len(md.Added); n != md.Size {
				return fmt.Errorf("model %q would hold %d triples, change declared %d", md.Name, n, md.Size)
			}
		}
	}
	for _, t := range d.Terms {
		dict.Intern(t)
	}
	for _, md := range d.Models {
		switch md.Kind {
		case ModelChanged:
			m := models[md.Name]
			for _, t := range md.Removed {
				m.Remove(t)
			}
			for _, t := range md.Added {
				m.Add(t)
			}
			m.SetGen(md.Gen)
			m.SetBasis(md.Basis)
		case ModelWhole:
			m, err := buildModel(md.Name, md.Gen, md.Basis, md.Added)
			if err != nil {
				return err // unreachable: a decoded list is strictly ascending
			}
			models[md.Name] = m
		case ModelDropped:
			delete(models, md.Name)
		}
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
		added, removed := make([]store.ETriple, len(rec.Triples)), make([]store.ETriple, len(rec.Removed))
		for i, t := range rec.Removed {
			if removed[i] = intern(st.Dict(), t); !m.Remove(removed[i]) {
				return fmt.Errorf("extend: removed triple absent (replay divergence)")
			}
		}
		for i, t := range rec.Triples {
			if added[i] = intern(st.Dict(), t); !m.Add(added[i]) {
				return fmt.Errorf("extend: added triple already present (replay divergence)")
			}
		}
		m.SetGen(rec.Gen)
		m.SetBasis(rec.Basis)
		// As an extension, so that the model's change feed carries on over
		// it as it did when the record was logged.
		st.InstallExtension(m, rec.PrevGen, added, removed)
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
