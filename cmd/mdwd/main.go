// Command mdwd serves the meta-data warehouse over HTTP: the JSON API
// and the single-page frontend that reproduce the paper's search and
// provenance screens (Figures 6 and 7).
//
// Usage:
//
//	mdwd [-addr :8080] [-data DIR | -scale small|paper] [-data-dir DIR]
//	     [-fsync always|interval|none] [-checkpoint-every 5m]
//	     [-rescache N] [-rescache-bytes B] [-pprof]
//
// Without -data/-scale the server hosts the built-in Figure 3 example.
// With -data-dir the warehouse is durable, and that directory is its one
// on-disk form: every mutation is write-ahead logged to it, checkpoints
// condense the log into a binary snapshot and a chain of deltas on it
// (periodically via -checkpoint-every, or on demand via POST
// /api/checkpoint), and a restart recovers the exact pre-crash state from
// the newest snapshot, its chain and the WAL tail. A fresh data directory
// is seeded by the usual flags as its first base checkpoint (a crash before
// its rename leaves the directory empty); then -data and -scale are ignored.
// Metrics are served at /api/metrics (Prometheus text exposition,
// including runtime gauges refreshed by a background sampler), recent
// traces at /api/traces (every response carries its trace ID in
// X-Mdw-Trace), and per-fingerprint query statistics at /api/statements:
// one row per statement with its latency summary, the plan of its
// slowest execution and the worst misestimate an analyzed execution
// found. GET /api/query?...&analyze=1 executes with operator-level
// instrumentation and returns the runtime statistics tree alongside the
// results.
// /healthz answers 200 as soon as the process serves (liveness);
// /readyz answers 503 with the blocking startup stage until recovery
// and index builds finish, then 200 (readiness). -pprof additionally
// mounts the net/http/pprof profiling handlers under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mdw/internal/core"
	"mdw/internal/durable"
	"mdw/internal/httpapi"
	"mdw/internal/obs"
	"mdw/internal/rescache"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "data directory written by `mdw generate`")
	scale := flag.String("scale", "", "serve a freshly generated landscape: small or paper")
	dataDir := flag.String("data-dir", "", "durable data directory (write-ahead log + snapshots); recovered on start")
	fsync := flag.String("fsync", string(durable.FsyncInterval), "WAL fsync policy: always, interval, or none")
	ckptEvery := flag.Duration("checkpoint-every", 5*time.Minute, "background checkpoint period with -data-dir (0 disables)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	rcEntries := flag.Int("rescache", rescache.DefaultMaxEntries,
		"max entries in the generation-keyed results cache (0 disables it)")
	rcBytes := flag.Int64("rescache-bytes", rescache.DefaultMaxBytes,
		"byte budget of the results cache")
	flag.Parse()
	if *rcEntries <= 0 {
		rescache.Disable()
	} else {
		rescache.Enable(*rcEntries, *rcBytes)
	}

	// Reserve the port before the (possibly long) durable recovery and
	// index builds: probes connecting during startup queue in the listen
	// backlog and get an honest not-ready answer the moment serving
	// begins, instead of connection-refused flapping.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdwd:", err)
		os.Exit(1)
	}
	w, mgr, err := buildWarehouse(*data, *scale, *dataDir, *fsync, *ckptEvery)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdwd:", err)
		os.Exit(1)
	}
	stop := obs.StartRuntimeSampler(0)
	defer stop()
	srv := httpapi.NewServer(w)
	hs := newHTTPServer(srv)
	stopped := make(chan struct{})
	if mgr != nil {
		srv.SetDurable(mgr)
		// Drain the requests in flight, then flush the WAL (and stop the
		// background loops) on SIGINT/SIGTERM, so an orderly shutdown loses
		// nothing it acknowledged, even under -fsync interval.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			log.Printf("shutting down, closing WAL")
			shutdown(hs, mgr)
			close(stopped)
		}()
	}
	if *pprofOn {
		srv.MountPprof()
		log.Printf("pprof enabled at /debug/pprof/")
	}

	// Serve immediately — /healthz answers 200 and /readyz 503 with the
	// blocking stage — and run the remaining startup work (entailment
	// index, text index) with the listener live. /readyz flips to 200
	// when the warehouse can answer queries at full speed; queries
	// arriving earlier still work, they just pay the on-demand builds.
	var ready atomic.Bool
	var stage atomic.Value
	stage.Store("building entailment index")
	srv.SetReadiness(func() (bool, string) {
		if ready.Load() {
			return true, ""
		}
		reason, _ := stage.Load().(string)
		return false, reason
	})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		errc <- hs.Serve(ln)
	}()

	// Bring the entailment index up to date up front so the first query
	// is fast: from scratch on a fresh store, by extension when recovery
	// replayed loads the recovered index has not seen, not at all when it
	// brought back a current one.
	derived, err := w.Reindex()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdwd:", err)
		os.Exit(1)
	}
	stage.Store("building text index")
	if _, err := w.TextIndex(); err != nil {
		fmt.Fprintln(os.Stderr, "mdwd:", err)
		os.Exit(1)
	}
	ready.Store(true)

	// Len, not Stats: a census here would walk the store while the first
	// requests, which may be loads, are already being served.
	log.Printf("serving model %s (%d base + %d derived triples) on %s, ready",
		w.Model(), w.Store().Len(w.Model()), derived, ln.Addr())
	err = <-errc
	wg.Wait()
	if errors.Is(err, http.ErrServerClosed) {
		<-stopped
		return
	}
	fmt.Fprintln(os.Stderr, "mdwd:", err)
	os.Exit(1)
}

// shutdownGrace bounds how long the requests in flight at SIGINT/SIGTERM
// get to finish before the WAL is closed regardless.
const shutdownGrace = 5 * time.Second

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so one that never finishes them does not hold a
// connection and a goroutine forever. The deadline starts at a request's
// first byte: an idle keep-alive connection is not cut.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer is the one place the server is configured. There is no
// read or write deadline: a query's reply streams for as long as it
// takes.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// shutdown stops hs accepting, waits for the requests it is still
// answering — a load that is mid-AddAll must reach the WAL it is logged
// to — and only then closes the WAL.
func shutdown(hs *http.Server, mgr *durable.Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := mgr.Close(); err != nil {
		log.Printf("WAL close: %v", err)
	}
}

// buildWarehouse returns the warehouse to serve: in memory and seeded
// from -scale, -data or the built-in example, or — with a durable
// directory — recovered from it, and seeded the same way, as its first
// base checkpoint, only while the directory is still empty.
func buildWarehouse(dataDir, scale, durableDir, fsync string, ckptEvery time.Duration) (*core.Warehouse, *durable.Manager, error) {
	if durableDir == "" {
		w := core.New("")
		if err := core.Seed(w, dataDir, scale); err != nil {
			return nil, nil, err
		}
		return w, nil, nil
	}
	policy, err := durable.ParseFsyncPolicy(fsync)
	if err != nil {
		return nil, nil, err
	}
	w, mgr, err := core.OpenDurable("", durable.Options{
		Dir:             durableDir,
		Fsync:           policy,
		CheckpointEvery: ckptEvery,
		Logf:            log.Printf,
	})
	if err != nil {
		return nil, nil, err
	}
	rec := mgr.Recovery()
	log.Printf("durable: recovered %d models / %d triples from %s (snapshot LSN %d, %d delta checkpoints, %d WAL records replayed) in %s",
		rec.Models, rec.Triples, durableDir, rec.SnapshotLSN, rec.DeltaCheckpoints, rec.ReplayedRecords, rec.Duration.Round(time.Millisecond))
	if rec.TornTail != "" {
		log.Printf("durable: torn WAL tail truncated: %s", rec.TornTail)
	}
	if w.Store().Len(w.Model()) > 0 {
		if dataDir != "" || scale != "" {
			log.Printf("durable: data directory already populated; ignoring -data/-scale")
		}
		return w, mgr, nil
	}
	if err := mgr.Seed(func() error { return core.Seed(w, dataDir, scale) }); err != nil {
		mgr.Close()
		return nil, nil, err
	}
	return w, mgr, nil
}
