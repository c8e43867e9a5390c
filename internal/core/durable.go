package core

import "mdw/internal/durable"

// OpenDurable recovers (or initializes) a warehouse backed by a durable
// data directory: every mutation is write-ahead logged, checkpoints
// condense the log into binary snapshots, and a restart resumes from the
// newest snapshot plus the WAL tail. The caller owns the returned
// manager and must Close it to flush the log on shutdown; release
// history survives restarts because Snapshot mirrors the historian's
// records into the store (and hence the WAL).
func OpenDurable(model string, opts durable.Options) (*Warehouse, *durable.Manager, error) {
	mgr, st, err := durable.Open(opts)
	if err != nil {
		return nil, nil, err
	}
	w := newWarehouse(st, model)
	err = w.restore()
	// Build-on-load — but only when there is a graph to index; a fresh
	// directory starts instantly.
	if err == nil && st.Len(w.model) > 0 {
		_, err = w.TextIndex()
	}
	if err != nil {
		mgr.Close()
		return nil, nil, err
	}
	return w, mgr, nil
}

// OpenReadOnly recovers the warehouse a data directory holds without
// writing to the directory or opening its write-ahead log for append:
// what the caller then does to the warehouse stays in memory. It is how
// offline commands (`mdw impact -data-dir`) read the releases an mdwd
// historized.
func OpenReadOnly(dir, model string) (*Warehouse, error) {
	st, _, err := durable.RecoverReadOnly(dir, nil)
	if err != nil {
		return nil, err
	}
	w := newWarehouse(st, model)
	if err := w.restore(); err != nil {
		return nil, err
	}
	return w, nil
}

// restore rebuilds from a recovered store what the warehouse keeps
// outside it: the historian's release records and the thesaurus.
func (w *Warehouse) restore() error {
	w.restoreThesaurus()
	return w.restoreMeta()
}
