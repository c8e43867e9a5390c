package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mdw/internal/core"
	"mdw/internal/durable"
	"mdw/internal/httpapi"
	"mdw/internal/landscape"
	"mdw/internal/rdf"
	"mdw/internal/store"
)

func TestBuildWarehouseDefault(t *testing.T) {
	w, mgr, err := buildWarehouse("", "", "", "interval", 0)
	if err != nil {
		t.Fatal(err)
	}
	if mgr != nil {
		t.Error("ephemeral mode returned a durability manager")
	}
	if w.Stats().Triples == 0 {
		t.Error("default warehouse empty")
	}
}

func TestBuildWarehouseScale(t *testing.T) {
	w, _, err := buildWarehouse("", "small", "", "interval", 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().Triples < 1000 {
		t.Errorf("small landscape too small: %d", w.Stats().Triples)
	}
	if _, _, err := buildWarehouse("", "bogus", "", "interval", 0); err == nil {
		t.Error("bad scale should error")
	}
}

// TestBuildWarehouseDurable exercises the -data-dir path end to end:
// seed an empty directory with the built-in example, checkpoint over
// HTTP, reopen, and require the identical graph — with the seeding flags
// ignored on the second start.
func TestBuildWarehouseDurable(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := buildWarehouse("", "", dir, "sometimes", 0); err == nil {
		t.Error("bad fsync policy not rejected")
	}

	w, mgr, err := buildWarehouse("", "", dir, "none", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := w.Stats().Triples
	if want == 0 {
		t.Fatal("durable warehouse not seeded")
	}

	api := httpapi.NewServer(w)
	api.SetDurable(mgr)
	srv := httptest.NewServer(api)
	resp, err := srv.Client().Post(srv.URL+"/api/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cp struct {
		LSN     uint64 `json:"lsn"`
		Triples int    `json:"triples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close()
	if resp.StatusCode != http.StatusOK || cp.Triples == 0 {
		t.Fatalf("checkpoint: status %d, stats %+v", resp.StatusCode, cp)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: -scale would reseed an empty store, but the directory is
	// populated, so it must be ignored.
	w2, mgr2, err := buildWarehouse("", "small", dir, "none", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if got := w2.Stats().Triples; got != want {
		t.Errorf("recovered %d triples, want %d", got, want)
	}
	if mgr2.Recovery().SnapshotLSN != cp.LSN {
		t.Errorf("recovery used snapshot LSN %d, checkpoint wrote %d", mgr2.Recovery().SnapshotLSN, cp.LSN)
	}
}

// census lists every model of st with its generation, basis and size.
func census(st *store.Store) []string {
	var out []string
	for _, c := range st.Snapshot(st.ModelNames()...).Cuts() {
		out = append(out, fmt.Sprintf("%s gen=%d basis=%d n=%d", c.Name, c.Gen, c.Basis, c.Triples))
	}
	return out
}

// sameAsMemorySeed fails the test unless the directory recovers to the
// models, generations and sizes the in-memory seed of the same scale has.
func sameAsMemorySeed(t *testing.T, dir, scale string) {
	t.Helper()
	mem, _, err := buildWarehouse("", scale, "", "none", 0)
	if err != nil {
		t.Fatal(err)
	}
	w, mgr, err := buildWarehouse("", "", dir, "none", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if rec := mgr.Recovery(); rec.ReplayedRecords != 0 {
		t.Errorf("recovery replayed %d WAL records; the seed is one base checkpoint", rec.ReplayedRecords)
	}
	if got, want := census(w.Store()), census(mem.Store()); !slices.Equal(got, want) {
		t.Errorf("the seeded directory recovers\n%s\nthe in-memory seed holds\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestDurableSeedAgreesWithMemory: a directory seeded by -data-dir
// recovers to the same models, generations and sizes as the in-memory
// seed, with nothing replayed from the WAL.
func TestDurableSeedAgreesWithMemory(t *testing.T) {
	dir := t.TempDir()
	_, mgr, err := buildWarehouse("", "small", dir, "none", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	sameAsMemorySeed(t, dir, "small")
}

// TestFailedSeedIsSeededAgain: a seed that stops after LoadOntology and
// LoadExports — a crash before LoadTriples and IntegrateDBpedia — leaves a
// directory that recovers empty, and the next start seeds it whole.
func TestFailedSeedIsSeededAgain(t *testing.T) {
	dir := t.TempDir()
	w, mgr, err := core.OpenDurable("", durable.Options{Dir: dir, Fsync: durable.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	crash := errors.New("killed before LoadTriples")
	err = mgr.Seed(func() error {
		l := landscape.Generate(landscape.Small())
		if _, err := w.LoadOntology(l.Ontology); err != nil {
			return err
		}
		if _, err := w.LoadExports(l.Exports); err != nil {
			return err
		}
		return crash
	})
	if !errors.Is(err, crash) {
		t.Fatalf("Seed returned %v, want the seed's error", err)
	}
	if w.Store().Len(w.Model()) == 0 {
		t.Fatal("the failed seed wrote nothing before failing: the test shows nothing")
	}
	mgr.Close()
	if _, rec, err := durable.RecoverReadOnly(dir, nil); err != nil || rec.Triples != 0 {
		t.Fatalf("the directory of the failed seed recovers %d triples (%v), want 0", rec.Triples, err)
	}

	_, mgr2, err := buildWarehouse("", "small", dir, "none", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}
	sameAsMemorySeed(t, dir, "small")
}

// TestCheckpointWithoutDurability documents the 503 contract of
// POST /api/checkpoint on an ephemeral server.
func TestCheckpointWithoutDurability(t *testing.T) {
	w, _, err := buildWarehouse("", "", "", "interval", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewServer(w))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/api/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
}

// TestHTTPServerConfig pins the served http.Server: a client that stalls
// in its request headers is cut off, and nothing else is — a reply
// streams as long as it takes, and idle keep-alive connections stay.
func TestHTTPServerConfig(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want readHeaderTimeout (%v)", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 || hs.IdleTimeout != 0 {
		t.Errorf("read/write/idle timeouts = %v/%v/%v, want none", hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	if hs.Handler == nil {
		t.Error("server has no handler")
	}
}

func TestServerEndToEnd(t *testing.T) {
	w, _, err := buildWarehouse("", "", "", "interval", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewServer(w))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

// TestShutdownKeepsAcknowledgedLoads is SIGTERM under load: clients keep
// posting one-triple loads while shutdown runs, and every load that was
// acknowledged with a 200 — before the signal or while the server drained
// — must be in the store recovered from the data directory. Closing the
// WAL while http.Serve was still answering raced a load's AddAll against
// the close.
func TestShutdownKeepsAcknowledgedLoads(t *testing.T) {
	dir := t.TempDir()
	w, mgr, err := buildWarehouse("", "", dir, "interval", 0)
	if err != nil {
		t.Fatal(err)
	}
	api := httpapi.NewServer(w)
	api.SetDurable(mgr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(api)
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	var mu sync.Mutex
	var acked []rdf.Triple
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				tr := rdf.T(rdf.IRI(fmt.Sprintf("%sshutdown_%d_%d", rdf.InstNS, c, i)), rdf.HasName, rdf.Literal("x"))
				resp, err := http.Post("http://"+ln.Addr().String()+"/api/load", "application/n-triples", strings.NewReader(tr.NTriple()+"\n"))
				if err != nil {
					return // the server stopped accepting
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("load answered %d", resp.StatusCode)
					return
				}
				mu.Lock()
				acked = append(acked, tr)
				mu.Unlock()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	shutdown(hs, mgr)
	wg.Wait()
	if err := <-served; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v", err)
	}
	if len(acked) == 0 {
		t.Fatal("no load was acknowledged before the shutdown")
	}

	w2, mgr2, err := buildWarehouse("", "", dir, "interval", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	for _, tr := range acked {
		if !w2.Store().Contains(w2.Model(), tr) {
			t.Fatalf("acknowledged load %s is not in the recovered store (%d acknowledged)", tr.S.Value, len(acked))
		}
	}
}
