package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mdw/internal/httpapi"
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
