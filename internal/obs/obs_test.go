package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mdw_test_total")
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5 (negative deltas ignored)", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1})
	// Exactly on a bound lands in that bucket (le semantics: v <= bound).
	h.Observe(1 * time.Millisecond)   // == 0.001 -> bucket 0
	h.Observe(500 * time.Microsecond) // < 0.001  -> bucket 0
	h.Observe(2 * time.Millisecond)   // -> bucket 1 (0.01)
	h.Observe(10 * time.Millisecond)  // == 0.01  -> bucket 1
	h.Observe(50 * time.Millisecond)  // -> bucket 2 (0.1)
	h.Observe(2 * time.Second)        // -> +Inf
	bounds, cum := h.Buckets()
	if len(bounds) != 4 || len(cum) != 4 {
		t.Fatalf("got %d bounds / %d counts, want 4/4", len(bounds), len(cum))
	}
	want := []int64{2, 4, 5, 6} // cumulative
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (bounds %v, cum %v)", i, cum[i], w, bounds, cum)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	wantSum := 0.001 + 0.0005 + 0.002 + 0.01 + 0.05 + 2
	if diff := h.Sum() - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum = %g, want %g", h.Sum(), wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mdw_test_seconds", nil)
	var wg sync.WaitGroup
	const goroutines, per = 8, 500
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
}

func TestRegistrySameHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("mdw_x_total", "op", "add")
	b := r.Counter("mdw_x_total", "op", "add")
	if a != b {
		t.Fatal("same family+labels must return the same handle")
	}
	c := r.Counter("mdw_x_total", "op", "del")
	if a == c {
		t.Fatal("different labels must return distinct handles")
	}
	// Label order must not matter.
	d1 := r.Gauge("mdw_y", "a", "1", "b", "2")
	d2 := r.Gauge("mdw_y", "b", "2", "a", "1")
	if d1 != d2 {
		t.Fatal("label order must not create a new series")
	}
}

func TestRegistryKindClashInert(t *testing.T) {
	r := NewRegistry()
	r.Counter("mdw_clash")
	g := r.Gauge("mdw_clash") // wrong kind: inert handle, no panic
	g.Set(42)
	for _, sv := range r.Snapshot() {
		if sv.Family == "mdw_clash" && sv.Kind != "counter" {
			t.Fatalf("clash series exported as %s, want counter", sv.Kind)
		}
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("mdw_store_triples", "Triples in the current model.")
	r.Gauge("mdw_store_triples").Set(1200000)
	r.SetHelp("mdw_query_total", "Queries executed.")
	r.Counter("mdw_query_total", "kind", "select").Add(3)
	r.Counter("mdw_query_total", "kind", "ask").Add(1)
	r.SetHelp("mdw_query_seconds", "Query latency.")
	h := r.Histogram("mdw_query_seconds", []float64{0.005, 0.05})
	h.Observe(time.Millisecond)
	h.Observe(10 * time.Millisecond)
	h.Observe(100 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP mdw_query_seconds Query latency.
# TYPE mdw_query_seconds histogram
mdw_query_seconds_bucket{le="0.005"} 1
mdw_query_seconds_bucket{le="0.05"} 2
mdw_query_seconds_bucket{le="+Inf"} 3
mdw_query_seconds_sum 0.111
mdw_query_seconds_count 3
# HELP mdw_query_total Queries executed.
# TYPE mdw_query_total counter
mdw_query_total{kind="ask"} 1
mdw_query_total{kind="select"} 3
# HELP mdw_store_triples Triples in the current model.
# TYPE mdw_store_triples gauge
mdw_store_triples 1200000
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestTracerSpansAndRing(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 3; i++ {
		root := tr.Start(fmt.Sprintf("req%d", i))
		child := root.Child("exec").SetLabel("rows", "7")
		child.Finish()
		child.Finish() // idempotent
		root.Finish()
	}
	recent := tr.Recent()
	if len(recent) != 2 {
		t.Fatalf("ring len = %d, want 2", len(recent))
	}
	if recent[0].Name != "req2" || recent[1].Name != "req1" {
		t.Fatalf("ring order = [%s %s], want [req2 req1]", recent[0].Name, recent[1].Name)
	}
	got := recent[0]
	if len(got.Spans) != 2 {
		t.Fatalf("spans = %d, want 2 (child + root)", len(got.Spans))
	}
	child, root := got.Spans[0], got.Spans[1]
	if child.Parent != root.ID {
		t.Fatalf("child.Parent = %d, want root ID %d", child.Parent, root.ID)
	}
	if root.Parent != 0 {
		t.Fatalf("root.Parent = %d, want 0", root.Parent)
	}
	if len(child.Labels) != 1 || child.Labels[0] != (Label{"rows", "7"}) {
		t.Fatalf("child labels = %+v", child.Labels)
	}
	if tr.Started() != 3 {
		t.Fatalf("started = %d, want 3", tr.Started())
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := tr.Start(fmt.Sprintf("g%d", i))
				s.Child("work").Finish()
				s.Finish()
			}
		}(i)
	}
	wg.Wait()
	if got := len(tr.Recent()); got != 16 {
		t.Fatalf("ring len = %d, want 16", got)
	}
	if tr.Started() != 400 {
		t.Fatalf("started = %d, want 400", tr.Started())
	}
}
