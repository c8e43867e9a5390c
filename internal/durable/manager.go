package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdw/internal/store"
)

// FsyncPolicy controls when WAL appends are forced to stable storage.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every committed mutation. Strongest
	// guarantee, slowest writes (the sync happens inside the commit path).
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a background ticker (Options.FsyncInterval).
	// A crash loses at most one interval of committed writes; the log
	// itself stays prefix-consistent. The default.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNone never syncs explicitly; the OS flushes at its leisure.
	FsyncNone FsyncPolicy = "none"
)

// ParseFsyncPolicy validates a policy name from a flag.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch p := FsyncPolicy(strings.ToLower(s)); p {
	case FsyncAlways, FsyncInterval, FsyncNone:
		return p, nil
	default:
		return "", fmt.Errorf("durable: unknown fsync policy %q (want always, interval, or none)", s)
	}
}

// Options configures a durable Manager.
type Options struct {
	// Dir is the data directory holding WAL segments and snapshots.
	Dir string
	// Fsync selects the sync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates the active WAL segment past this size
	// (default 64 MiB).
	SegmentBytes int64
	// CheckpointEvery starts a background checkpoint loop with this
	// period (0 disables; checkpoints can still be forced via
	// Checkpoint).
	CheckpointEvery time.Duration
	// KeepSnapshots retains this many older base checkpoints, each with
	// its chain of deltas, beyond the newest base and its chain. With any
	// retained the WAL is kept back to the oldest retained base, so that
	// recovery can fall back from a damaged checkpoint file, base or
	// delta, to the files before it and replay forward. The default is 0:
	// only the newest base and its chain are kept, the WAL is cut at the
	// newest checkpoint file, and a damaged file is not recoverable from.
	KeepSnapshots int
	// Logf receives operational messages (recovery summary, degraded
	// mode, checkpoint failures). Nil discards them.
	Logf func(format string, args ...any)
}

func (o *Options) setDefaults() {
	if o.Fsync == "" {
		o.Fsync = FsyncInterval
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// CheckpointStats summarizes one completed checkpoint.
type CheckpointStats struct {
	// Path is the file written: a base or a delta, as Kind says. A
	// checkpoint that finds the store as the last one left it writes
	// nothing; its Kind is CheckpointNone and Path the file still current.
	Path  string `json:"path"`
	Kind  string `json:"kind"`
	LSN   uint64 `json:"lsn"`
	Bytes int64  `json:"bytes"`
	// Models and Triples are what the checkpoint covers — the whole store
	// as of LSN; Written is the number of triples in the file, added and
	// removed ones alike.
	Models          int           `json:"models"`
	Triples         int           `json:"triples"`
	Written         int           `json:"written"`
	SegmentsRemoved int           `json:"segmentsRemoved"`
	Duration        time.Duration `json:"duration"`
}

// The kinds of checkpoint, as CheckpointStats.Kind reports them.
const (
	CheckpointBase  = "base"
	CheckpointDelta = "delta"
	CheckpointNone  = "none"
)

// Manager owns the durability state of one store: the active WAL segment
// writer, the background fsync and checkpoint loops, and the recovery
// statistics of the Open that produced it.
//
// Lock order: the store's lock is always taken before m.mu (the commit
// hook runs under the store's write lock and acquires m.mu; nothing that
// holds m.mu may call a locking store method).
type Manager struct {
	opts Options
	st   *store.Store
	dict *store.Dict

	// lastLSN is the LSN of the most recently appended record. It is only
	// advanced under both the store's write lock (the hook) and m.mu, so
	// reading it inside a store read-lock critical section gives the exact
	// WAL position of the observed state.
	lastLSN atomic.Uint64

	mu     sync.Mutex // serializes writer access: hook, fsync loop, rotation
	w      *segmentWriter
	walErr error  // sticky: first append/sync failure flips to degraded mode
	buf    []byte // payload scratch

	cpMu    sync.Mutex // one checkpoint at a time
	ck      chainState // where the checkpoint files stand; guarded by cpMu
	seedErr error      // why Seed failed: the store is ahead of the files; guarded by cpMu

	rec RecoveryStats

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// Open recovers the store persisted in opts.Dir (creating the directory
// if needed), attaches the write-ahead log to it, and starts the
// configured background loops. The returned store is fully recovered:
// latest valid base checkpoint and its chain loaded, WAL tail replayed,
// per-model counts and generations verified.
func Open(opts Options) (*Manager, *store.Store, error) {
	opts.setDefaults()
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("durable: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	removeStaleTemp(opts.Dir)
	st, rec, ck, err := recoverDir(opts.Dir, opts.Logf, true)
	if err != nil {
		return nil, nil, err
	}
	// The files recovery could not use go before the first new checkpoint
	// is written: a later recovery would meet them in the chain ahead of
	// it. What they covered has just been replayed from the WAL.
	for _, name := range ck.unused {
		opts.Logf("durable: removing unusable checkpoint file %s", name)
		if err := os.Remove(filepath.Join(opts.Dir, name)); err != nil {
			return nil, nil, err
		}
	}
	if len(ck.unused) > 0 {
		if err := syncDir(opts.Dir); err != nil {
			return nil, nil, err
		}
	}
	w, err := createSegment(opts.Dir, rec.LastLSN+1)
	if err != nil {
		return nil, nil, err
	}
	m := &Manager{opts: opts, st: st, dict: st.Dict(), w: w, ck: *ck, rec: *rec, stop: make(chan struct{}), buf: make([]byte, 0, 4096)}
	m.lastLSN.Store(rec.LastLSN)
	st.SetCommitHook(m.committed)
	if opts.Fsync == FsyncInterval {
		m.wg.Add(1)
		go m.fsyncLoop()
	}
	if opts.CheckpointEvery > 0 {
		m.wg.Add(1)
		go m.checkpointLoop()
	}
	return m, st, nil
}

// removeStaleTemp deletes snapshot temp files left behind by a crash
// mid-checkpoint. They were never renamed into place, so they are dead
// weight.
func removeStaleTemp(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, ".snap-tmp-*"))
	for _, p := range matches {
		os.Remove(p)
	}
}

// Store returns the recovered store the manager is attached to.
func (m *Manager) Store() *store.Store { return m.st }

// Recovery returns the statistics of the Open that produced the manager.
func (m *Manager) Recovery() RecoveryStats { return m.rec }

// LastLSN returns the LSN of the most recently logged mutation.
func (m *Manager) LastLSN() uint64 { return m.lastLSN.Load() }

// Err returns the sticky WAL error, if the manager has entered degraded
// mode (appends failing; the in-memory store keeps serving).
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.walErr
}

// maxScratch bounds the capacity the record scratch buffer keeps between
// records: a release's entailment extension record (≈ 3 MB at paper
// scale) reuses the buffer, and a larger one, such as a whole-model
// install record, does not pin its size for the server's life.
const maxScratch = 8 << 20

// committed is the store commit hook: it runs under the store's write
// lock, so records are framed and appended in exactly the store's
// serialization order.
func (m *Manager) committed(mut store.Mutation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.walErr != nil {
		return
	}
	lsn := m.lastLSN.Load() + 1
	m.buf = m.appendMutation(m.buf[:0], lsn, mut)
	if err := m.w.append(m.buf); err != nil {
		m.degradeLocked(fmt.Errorf("append LSN %d: %w", lsn, err))
		return
	}
	m.lastLSN.Store(lsn)
	obsWALBytes.Add(int64(frameHeaderSize + len(m.buf)))
	if cap(m.buf) > maxScratch {
		m.buf = nil
	}
	if m.opts.Fsync == FsyncAlways {
		d, err := m.w.sync()
		if err != nil {
			m.degradeLocked(fmt.Errorf("fsync LSN %d: %w", lsn, err))
			return
		}
		obsFsyncHist.Observe(d)
	}
	if m.w.size >= m.opts.SegmentBytes {
		m.rotateLocked()
	}
}

// appendMutation encodes mut as the payload of the record with the given
// LSN, decoding dictionary IDs to full terms (the dictionary has its own
// lock and is append-only, so this is safe under the store's write
// lock).
func (m *Manager) appendMutation(b []byte, lsn uint64, mut store.Mutation) []byte {
	b = appendU64(b, lsn)
	b = append(b, byte(mut.Op))
	b = appendString(b, mut.Model)
	switch mut.Op {
	case store.OpAdd, store.OpRemove:
		b = appendU64(b, mut.Gen)
		b = m.appendETriples(b, mut.Triples)
	case store.OpDrop:
	case store.OpClone:
		b = appendString(b, mut.Src)
		b = appendU64(b, mut.Gen)
	case store.OpInstall:
		b = appendU64(b, mut.Gen)
		b = appendU64(b, mut.Basis)
		b = appendUvarint(b, uint64(mut.Installed.Len()))
		mut.Installed.ForEach(store.Wildcard, store.Wildcard, store.Wildcard, func(et store.ETriple) bool {
			b = appendTerm(b, m.dict.Term(et.S))
			b = appendTerm(b, m.dict.Term(et.P))
			b = appendTerm(b, m.dict.Term(et.O))
			return true
		})
	case store.OpExtend:
		b = appendU64(b, mut.PrevGen)
		b = appendU64(b, mut.Gen)
		b = appendU64(b, mut.Basis)
		b = m.appendETriples(b, mut.Triples)
		b = m.appendETriples(b, mut.Removed)
	}
	return b
}

func (m *Manager) appendETriples(b []byte, ts []store.ETriple) []byte {
	b = appendUvarint(b, uint64(len(ts)))
	for _, et := range ts {
		b = appendTerm(b, m.dict.Term(et.S))
		b = appendTerm(b, m.dict.Term(et.P))
		b = appendTerm(b, m.dict.Term(et.O))
	}
	return b
}

// degradeLocked flips the manager into degraded mode: the error sticks,
// further appends are dropped, and the operator is told once. The
// in-memory store keeps serving — losing durability is strictly better
// than losing availability.
func (m *Manager) degradeLocked(err error) {
	m.walErr = fmt.Errorf("durable: WAL degraded: %w", err)
	obsWALErrors.Inc()
	m.opts.Logf("durable: WAL degraded, further mutations are NOT logged: %v", err)
}

// rotateLocked closes the active segment and opens a fresh one starting
// at the next LSN. Caller holds m.mu.
func (m *Manager) rotateLocked() {
	if err := m.w.close(); err != nil {
		m.degradeLocked(fmt.Errorf("rotate close: %w", err))
		return
	}
	w, err := createSegment(m.opts.Dir, m.lastLSN.Load()+1)
	if err != nil {
		m.degradeLocked(fmt.Errorf("rotate create: %w", err))
		return
	}
	m.w = w
}

func (m *Manager) fsyncLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.Sync() //mdwlint:allow syncerr Sync records failures in the sticky m.walErr degraded mode; the ticker has no caller to propagate to
		}
	}
}

// Sync flushes and fsyncs the active WAL segment.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.walErr != nil {
		return m.walErr
	}
	d, err := m.w.sync()
	if err != nil {
		m.degradeLocked(fmt.Errorf("fsync: %w", err))
		return m.walErr
	}
	if d > 0 {
		obsFsyncHist.Observe(d)
	}
	return nil
}

func (m *Manager) checkpointLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.opts.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			if _, err := m.Checkpoint(); err != nil {
				m.opts.Logf("durable: background checkpoint failed: %v", err)
			}
		}
	}
}

// Checkpoint makes the data directory's checkpoint files cover the store
// as of the WAL position it reads while pinning a snapshot of every
// model. Most of the time that is one delta file — the dictionary's
// growth and, per model that moved, what its change feed says it gained
// and lost since the last checkpoint, or the model whole where the feed
// cannot say — chained to the file before it. When the chain has grown
// past 1/compactDivisor of its base, and the first time, it is a new
// base: the whole store. It then rotates the active WAL segment and
// removes the segments, and after a new base the older checkpoint files,
// that recovery no longer needs. Concurrent mutations keep committing
// throughout; only pinning the snapshot holds the store's lock.
func (m *Manager) Checkpoint() (CheckpointStats, error) {
	m.cpMu.Lock()
	defer m.cpMu.Unlock()
	return m.checkpoint()
}

// Seed runs fn with the WAL detached and writes the store fn leaves as the
// directory's first base checkpoint: until that file's rename a crash or
// error leaves the directory empty, and after an error m writes nothing.
// It refuses a directory holding a checkpoint or a WAL record. No other
// writer may run, and fn must not call Checkpoint (Seed holds its lock).
func (m *Manager) Seed(fn func() error) error {
	m.cpMu.Lock()
	defer m.cpMu.Unlock()
	if m.ck.path != "" || m.lastLSN.Load() != 0 {
		return fmt.Errorf("durable: seed: %s already holds a checkpoint or WAL records", m.opts.Dir)
	}
	m.st.SetCommitHook(nil)
	err := fn()
	if err == nil {
		_, err = m.checkpoint()
	}
	if err != nil {
		m.seedErr = err
		return fmt.Errorf("durable: seed: %w", err)
	}
	m.st.SetCommitHook(m.committed)
	return nil
}

func (m *Manager) checkpoint() (CheckpointStats, error) {
	if m.seedErr != nil {
		return CheckpointStats{}, fmt.Errorf("durable: checkpoint: the seed failed: %w", m.seedErr)
	}
	t0 := time.Now()
	var lsn uint64
	v := m.st.SnapshotAll(func() { lsn = m.lastLSN.Load() })
	cuts := v.Cuts()
	stats := CheckpointStats{Path: m.ck.path, Kind: CheckpointNone, LSN: lsn, Models: len(cuts)}
	changed := len(cuts) != len(m.ck.cuts)
	for _, c := range cuts {
		stats.Triples += c.Triples
		changed = changed || m.ck.cuts[c.Name] != c
	}
	if !changed && m.ck.path != "" {
		stats.Duration = time.Since(t0)
		return stats, nil
	}
	next := chainState{lsn: lsn, cuts: make(map[string]store.Cut, len(cuts)), baseBytes: m.ck.baseBytes}
	for _, c := range cuts {
		next.cuts[c.Name] = c
	}
	var err error
	// A delta needs a base to extend, a chain still short of the
	// compaction bound, and a later LSN than its predecessor's to be named
	// by (which only a WAL that stopped logging withholds).
	if m.ck.path == "" || m.ck.chainBytes > m.ck.baseBytes/compactDivisor || lsn <= m.ck.lsn {
		stats.Kind = CheckpointBase
		terms := m.dict.Since(0)
		stats.Written = stats.Triples
		stats.Path, stats.Bytes, err = WriteSnapshot(m.opts.Dir, lsn, v.States(), terms)
		next.terms, next.baseBytes = len(terms), stats.Bytes
	} else {
		stats.Kind = CheckpointDelta
		d := m.deltaSince(v, cuts, lsn)
		for _, md := range d.Models {
			stats.Written += len(md.Added) + len(md.Removed)
		}
		stats.Path, stats.Bytes, err = writeDelta(m.opts.Dir, d)
		next.terms, next.chainBytes = m.ck.terms+len(d.Terms), m.ck.chainBytes+stats.Bytes
	}
	if err != nil {
		return stats, fmt.Errorf("durable: checkpoint: %w", err)
	}
	next.path = stats.Path
	m.ck = next
	// Rotate so the active segment starts past the checkpoint and the
	// pre-checkpoint segments become removable.
	m.mu.Lock()
	if m.walErr == nil {
		m.rotateLocked()
	}
	m.mu.Unlock()
	// The new base is durable: the bases before the retained ones, and
	// their chains, can go.
	if stats.Kind == CheckpointBase {
		m.pruneCheckpoints()
	}
	// With older bases retained the WAL reaches back to the oldest of
	// them, not to this checkpoint: if a newer file is later found
	// damaged, recovery falls back to the files before it and replays
	// forward.
	truncLSN := lsn
	if m.opts.KeepSnapshots > 0 {
		if snaps, err := listSnapshots(m.opts.Dir); err == nil && len(snaps) > 0 {
			if oldest, _ := parseSnapshotName(snaps[0]); oldest < truncLSN {
				truncLSN = oldest
			}
		}
	}
	removed, err := m.removeCoveredSegments(truncLSN)
	stats.SegmentsRemoved = removed
	if err != nil {
		m.opts.Logf("durable: checkpoint: segment truncation incomplete: %v", err)
	}
	stats.Duration = time.Since(t0)
	obsCkptHist.Observe(stats.Duration)
	obsCkptBytes.Set(stats.Bytes)
	return stats, nil
}

// deltaSince describes v, the store pinned at WAL position lsn with cuts
// its members, as a delta on the last checkpoint.
func (m *Manager) deltaSince(v *store.View, cuts []store.Cut, lsn uint64) *Delta {
	d := &Delta{LSN: lsn, PrevLSN: m.ck.lsn, FirstTerm: m.ck.terms, Terms: m.dict.Since(m.ck.terms)}
	sorted := func(ts []store.ETriple) []store.ETriple {
		ts = slices.Clone(ts) // ts is a window of the feed
		store.SortETriples(ts)
		return ts
	}
	for _, c := range cuts {
		since, had := m.ck.cuts[c.Name]
		if had && since == c {
			continue
		}
		if had {
			if added, removed, ok := m.st.Changes("durable", since, c); ok {
				d.Models = append(d.Models, ModelDelta{Name: c.Name, Kind: ModelChanged, PrevGen: since.Gen,
					Gen: c.Gen, Basis: c.Basis, Size: c.Triples, Added: sorted(added), Removed: sorted(removed)})
				continue
			}
		}
		d.Models = append(d.Models, ModelDelta{Name: c.Name, Kind: ModelWhole, Gen: c.Gen, Basis: c.Basis,
			Size: c.Triples, Added: v.Of(c.Name).States()[0].Triples})
	}
	for name := range m.ck.cuts {
		if !v.Cut(name).Exists {
			d.Models = append(d.Models, ModelDelta{Name: name, Kind: ModelDropped})
		}
	}
	slices.SortFunc(d.Models, func(a, b ModelDelta) int { return strings.Compare(a.Name, b.Name) })
	return d
}

// removeCoveredSegments deletes every WAL segment whose records all lie
// at or below cpLSN — provable from the *next* segment's first LSN, so
// the active segment (always last) is never considered.
func (m *Manager) removeCoveredSegments(cpLSN uint64) (int, error) {
	segs, err := listSegments(m.opts.Dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	var firstErr error
	for i := 0; i+1 < len(segs); i++ {
		next, _ := parseSegmentName(segs[i+1])
		if next > cpLSN+1 {
			break
		}
		if err := os.Remove(filepath.Join(m.opts.Dir, segs[i])); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		removed++
	}
	if removed > 0 {
		if err := syncDir(m.opts.Dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return removed, firstErr
}

// pruneCheckpoints removes the bases beyond the retention count, oldest
// first, and every delta of their chains.
func (m *Manager) pruneCheckpoints() {
	snaps, err := listSnapshots(m.opts.Dir)
	if err != nil || len(snaps) == 0 {
		return
	}
	if n := len(snaps) - max(m.opts.KeepSnapshots, 0) - 1; n > 0 {
		for _, name := range snaps[:n] {
			os.Remove(filepath.Join(m.opts.Dir, name))
		}
		snaps = snaps[n:]
	}
	oldest, _ := parseSnapshotName(snaps[0])
	deltas, _ := listDeltas(m.opts.Dir)
	for _, name := range deltas {
		if lsn, _ := parseDeltaName(name); lsn <= oldest {
			os.Remove(filepath.Join(m.opts.Dir, name))
		}
	}
}

// Close detaches the manager from the store, stops the background loops,
// and syncs and closes the active segment. The store remains usable
// in-memory; further mutations are simply no longer logged.
func (m *Manager) Close() error {
	m.closeOnce.Do(func() {
		m.st.SetCommitHook(nil)
		close(m.stop)
		m.wg.Wait()
		m.mu.Lock()
		defer m.mu.Unlock()
		if err := m.w.close(); err != nil && m.walErr == nil {
			m.closeErr = err
		}
	})
	return m.closeErr
}
