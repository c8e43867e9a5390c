package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mdw/internal/durable"
)

// stats is the part of GET /api/stats the oracle reads.
type stats struct {
	Triples      int  `json:"triples"`
	Derived      int  `json:"derived"`
	IndexCurrent bool `json:"indexCurrent"`
}

// getStats fetches /api/stats. It costs the server a full census, so it
// is only ever called between timed phases.
func getStats(c *Conn, rec *recorder) (stats, bool) {
	var st stats
	body, ok := c.Do(Request{Class: "stats", Method: "GET", Path: "/api/stats", Verify: func([]byte) error { return nil }}, rec)
	if !ok {
		return st, false
	}
	if err := json.Unmarshal(body, &st); err != nil {
		rec.fail(1, fmt.Errorf("GET /api/stats: %w", err))
		return st, false
	}
	return st, true
}

// runRelease runs release_cycle: the Figure 4 side, writes beside reads.
// Everything goes over one connection, strictly one request after the
// other: the seed server has no isolation between a load and a query
// (ROADMAP, snapshot-isolated reads), so concurrent requests would abort
// it rather than measure it.
//
// A cycle posts one release's delta in loadBatch-triple batches, then
// searches for a name the release created, which is the first read after
// the write and pays for re-materializing the entailment index and
// updating the text index; then one portal_read basket, whose SEM_MATCH
// calls miss the invalidated results cache; then a checkpoint. After the
// last cycle one more delta is loaded and left in the WAL, the server is
// killed, restarted on the data directory alone, and checked against the
// triple count it had acknowledged.
func (cfg Config) runRelease(res *Result) (live *liveRun, err error) {
	var dirs []string
	defer func() {
		for _, d := range dirs {
			if rmErr := os.RemoveAll(d); rmErr != nil && err == nil {
				err = rmErr
			}
		}
	}()
	inst, setups, err := cfg.setups(func() (string, error) {
		d, err := os.MkdirTemp(cfg.Work, "datadir-")
		dirs = append(dirs, d)
		return d, err
	})
	if err != nil {
		return nil, err
	}
	defer func() { inst.Kill() }()
	dataDir := dirs[len(dirs)-1]

	epoch := time.Now()
	rec, aux := newRecorder(cfg.Trace, epoch), newRecorder(false, epoch)
	conn := NewConn(inst.BaseURL())
	defer func() { conn.Close() }()
	gen := NewGen(cfg.truth, cfg.Seed, 0)
	first, ok := getStats(conn, aux)
	if !ok {
		return nil, fmt.Errorf("release_cycle: %s", aux.errs[0])
	}
	if err := inst.Settle(); err != nil {
		return nil, err
	}
	before, err := Scrape(inst.BaseURL())
	if err != nil {
		return nil, err
	}
	cpu0 := inst.CPUSeconds()

	var sent []Request
	added, posted := 0, 0
	load := func(d *Delta) []Request {
		var reqs []Request
		for _, b := range d.Batches() {
			reqs = append(reqs, Load(b))
			posted += len(b)
		}
		added += len(d.Lines)
		return reqs
	}
	t0 := time.Now()
	alive := true
	for c := 0; c < cfg.cycles() && alive; c++ {
		d := &cfg.deltas[c]
		reqs := append(load(d), Visible(d))
		reqs = append(reqs, gen.PortalDeal()...)
		reqs = append(reqs, Checkpoint())
		sent = append(sent, reqs...)
		alive = conn.basket(reqs, rec, inst.Alive)
	}
	wall := time.Since(t0).Seconds()
	rps := rec.rate()
	cpu := inst.CPUSeconds() - cpu0
	live = &liveRun{requests: sent, rec: rec, seconds: wall}
	if alive {
		after, err := Scrape(inst.BaseURL())
		if err != nil {
			return nil, err
		}
		live.delta, live.end = after.Sub(before), after
		res.PerLayer["data_dir_mb"] = dirSizeMB(dataDir)
		res.PerLayer["durable.wal_bytes_per_user_byte"] = ratio(live.delta["mdw_wal_bytes_total"], float64(posted))
		res.PerLayer["durable.snapshot_bytes_per_triple"] = ratio(after["mdw_checkpoint_last_bytes"],
			float64(first.Triples+first.Derived+added))
	}

	// The tail: a delta that is acknowledged but never checkpointed, so
	// recovery has a WAL to replay. It comes after the scrape that ends
	// the timed phase, so its batches are no load_batch samples.
	if alive {
		for _, r := range load(&cfg.deltas[cfg.cycles()]) {
			if _, ok := conn.Do(r, aux); !ok && !inst.Alive() {
				alive = false
				break
			}
		}
	}
	want := first.Triples + added
	if alive {
		if st, ok := getStats(conn, aux); ok && st.Triples != want {
			aux.fail(1, fmt.Errorf("before the crash: %d triples, want %d acknowledged", st.Triples, want))
		}
	}
	res.EndToEnd["rss_mb"] = inst.PeakRSSMB()

	// kill -9 leaves the operating system's page cache intact, so this
	// shows that an acknowledged write was written, not that it reached
	// the disk; -fsync always is what the acknowledgement promises.
	crash := time.Now()
	inst.Kill()
	conn.Close()
	restarted, err := cfg.Host.Start(cfg.seed, dataDir)
	if err != nil {
		return nil, fmt.Errorf("restart after kill: %w", err)
	}
	inst = restarted
	rec.lat[ClassRecovery] = []float64{ms(time.Since(crash))}
	conn = NewConn(inst.BaseURL())
	if st, ok := getStats(conn, aux); ok && (st.Triples != want || !st.IndexCurrent) {
		aux.fail(1, fmt.Errorf("after recovery: %d triples (index current: %v), want %d acknowledged and a current index",
			st.Triples, st.IndexCurrent, want))
	}
	cfg.golden(conn, aux, res)
	rec.count(aux)
	if cfg.Trace {
		// durable.Recover alone, on the directory as the restarted server
		// leaves it: recovery_s minus process start and index builds.
		inst.Kill()
		_, recovered, err := durable.Recover(dataDir, nil)
		if err != nil {
			return nil, fmt.Errorf("durable.Recover: %w", err)
		}
		res.PerLayer["durable.recover_s"] = recovered.Duration.Seconds()
	}

	res.SequenceHash = gen.SequenceHash()
	cfg.report(res, live, setups, rps, cpu)
	return live, nil
}
