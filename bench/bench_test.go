package bench

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "record this run's replies as the small-scale golden digests")

// testHost serves the benchmark's handler in-process, so that the smoke
// test needs no mdwd binary. Kill closes the listener and abandons the
// durability manager without closing it: nothing is flushed, as with
// kill -9, and the next Start recovers from the directory alone.
type testHost struct{}

type testInstance struct {
	srv   *httptest.Server
	setup time.Duration
	dead  bool
}

func (testHost) Start(seedDir, dataDir string) (Instance, error) {
	start := time.Now()
	p, err := buildInproc(seedDir, dataDir)
	if err != nil {
		return nil, err
	}
	return &testInstance{srv: httptest.NewServer(p.srv), setup: time.Since(start)}, nil
}

func (i *testInstance) BaseURL() string          { return i.srv.URL }
func (i *testInstance) SetupTime() time.Duration { return i.setup }
func (i *testInstance) Alive() bool              { return !i.dead }
func (i *testInstance) PeakRSSMB() float64       { return 0 }
func (i *testInstance) CPUSeconds() float64      { return 0 }
func (i *testInstance) Settle() error            { return nil }
func (i *testInstance) Kill() {
	if !i.dead {
		i.dead = true
		i.srv.Close()
	}
}

// TestSmoke runs every workload for a second against the small
// landscape: the oracle passes, every metric of BENCHMARK.json is
// reported, and the request sequence is a function of the seed.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	for _, w := range Workloads {
		cfg := Config{
			Workload: w, Seed: 1, Seconds: 1, Scale: ScaleSmall, Work: work,
			GoldenDir: "golden", UpdateGolden: *updateGolden, Host: testHost{},
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d ops failed: %v", w, res.Correct, res.Failed, res.Attempted, res.Errors)
		}
		for _, m := range []string{"setup_s", "throughput_rps", "class_geomean_ms"} {
			if res.EndToEnd[m] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, m, res.EndToEnd[m])
			}
		}
		want, err := ReadGolden(cfg.GoldenDir, w, cfg.goldenState())
		if err != nil || want == "" {
			t.Errorf("%s: no golden digest for %s (%v); record it with go test -update-golden", w, cfg.goldenState(), err)
		}

		cfg.Trace, cfg.UpdateGolden = true, false
		traced, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		if !traced.Correct {
			t.Errorf("%s traced: %v", w, traced.Errors)
		}
		if len(traced.PerLayer) != len(PerLayer) {
			t.Errorf("%s traced: %d per-layer metrics, want %d", w, len(traced.PerLayer), len(PerLayer))
		}
		if traced.PerLayer["httpapi.self_ms"] <= 0 || traced.PerLayer["store.add_us_per_triple"] <= 0 {
			t.Errorf("%s traced: ladder metrics missing: %v", w, traced.PerLayer)
		}
		if _, err := os.Stat(filepath.Join(work, "trace-"+w+".json")); err != nil {
			t.Errorf("%s traced: %v", w, err)
		}
	}
	if entries, _ := filepath.Glob(filepath.Join(work, "*-*")); len(entries) != 1+len(Workloads) {
		t.Errorf("work directory holds %v, want the data set and the traces only", entries)
	}
}

func TestSequenceIsSeeded(t *testing.T) {
	truth, _, err := NewTruth(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	hash := func(seed int64) string {
		g := NewGen(truth, seed, 0)
		for i := 0; i < 5; i++ {
			g.PortalDeal()
			g.AdhocDeal()
		}
		return g.SequenceHash()
	}
	if hash(1) != hash(1) {
		t.Error("the same seed gave two request sequences")
	}
	if hash(1) == hash(2) {
		t.Error("two seeds gave the same request sequence")
	}
}

func TestCanonical(t *testing.T) {
	a, err := Canonical([]byte(`{"rows": [{"x": "1", "y": "2"}, {"x": "0"}], "vars": ["x", "y"]}`), false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonical([]byte(`{"vars":["y","x"],"rows":[{"x":"0"},{"y":"2","x":"1"}]}`), false)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("reordered and reformatted reply differs:\n%s\n%s", a, b)
	}
	c, err := Canonical([]byte(`{"vars":["y","x"],"rows":[{"x":"0"},{"y":"2","x":"2"}]}`), false)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(c) {
		t.Error("a changed row left the canonical form unchanged")
	}
	if n, ok := fieldInt([]byte(`{"a":{"instances" : 12}}`), "instances"); !ok || n != 12 {
		t.Errorf("fieldInt = %d, %v", n, ok)
	}
	if !hasString([]byte(`{"iri":"x"}`), "iri", "x") || hasString([]byte(`{"x":"iri"}`), "iri", "x") {
		t.Error("hasString confuses keys and values")
	}
}
