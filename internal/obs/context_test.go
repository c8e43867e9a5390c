package obs

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestStartSharesOneTimestamp(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.Start("root")
	if !sp.start.Equal(sp.rec.start) {
		t.Fatalf("root span start %v != trace record start %v", sp.start, sp.rec.start)
	}
	sp.Finish()
	got, ok := tr.Get(sp.TraceID())
	if !ok {
		t.Fatal("published trace not found")
	}
	if !got.Start.Equal(got.Spans[0].Start) {
		t.Fatalf("published trace start %v != root span start %v", got.Start, got.Spans[0].Start)
	}
}

func TestLateChildFinishIsDroppedAndCounted(t *testing.T) {
	dropped := Default().Counter("mdw_trace_spans_dropped_total")
	before := dropped.Value()
	root := StartSpan("root")
	late := root.Child("late")
	early := root.Child("early")
	early.Finish()
	root.Finish()
	if d := dropped.Value() - before; d != 0 {
		t.Fatalf("mdw_trace_spans_dropped_total moved by %d before any late finish", d)
	}
	late.Finish()
	if d := dropped.Value() - before; d != 1 {
		t.Fatalf("mdw_trace_spans_dropped_total moved by %d, want 1", d)
	}
	got, ok := DefaultTracer().Get(root.TraceID())
	if !ok {
		t.Fatal("trace not published")
	}
	if len(got.Spans) != 2 {
		t.Fatalf("published trace has %d spans, want 2 (late child dropped)", len(got.Spans))
	}
	for _, s := range got.Spans {
		if s.Name == "late" {
			t.Fatal("late child leaked into published trace")
		}
	}
}

func TestTracerGet(t *testing.T) {
	tr := NewTracer(2)
	first := tr.Start("first")
	first.Finish()
	if _, ok := tr.Get(0); ok {
		t.Fatal("Get(0) reported a trace")
	}
	if _, ok := tr.Get(999); ok {
		t.Fatal("Get of unknown ID reported a trace")
	}
	got, ok := tr.Get(first.TraceID())
	if !ok || got.Name != "first" {
		t.Fatalf("Get(first) = %+v, %v", got, ok)
	}
	// Overflow the 2-slot ring; the first trace must be evicted.
	for i := 0; i < 2; i++ {
		tr.Start("later").Finish()
	}
	if _, ok := tr.Get(first.TraceID()); ok {
		t.Fatal("evicted trace still retrievable")
	}
}

func TestContextPropagation(t *testing.T) {
	tr := NewTracer(4)
	if got := SpanFromContext(context.Background()); got != nil {
		t.Fatalf("SpanFromContext(empty) = %v", got)
	}
	if got := SpanFromContext(nil); got != nil { //nolint:staticcheck // nil-safety is the contract under test
		t.Fatalf("SpanFromContext(nil) = %v", got)
	}

	// ChildCtx without a parent must not start a trace.
	sp, ctx := ChildCtx(context.Background(), "hot")
	if sp != nil {
		t.Fatalf("ChildCtx without parent returned span %v", sp)
	}
	sp.SetLabel("k", "v") // nil-safe
	sp.Finish()
	if SpanFromContext(ctx) != nil {
		t.Fatal("ChildCtx without parent attached a span to ctx")
	}

	// A root attached to ctx makes both StartChildCtx and ChildCtx nest.
	root := tr.Start("root")
	ctx = ContextWithSpan(context.Background(), root)
	if SpanFromContext(ctx) != root {
		t.Fatal("ContextWithSpan/SpanFromContext round trip failed")
	}
	child, ctx2 := StartChildCtx(ctx, "mid")
	if child == nil || child.parent != root.id {
		t.Fatalf("StartChildCtx did not nest under root: %+v", child)
	}
	leaf, _ := ChildCtx(ctx2, "leaf")
	if leaf == nil || leaf.parent != child.id {
		t.Fatalf("ChildCtx did not nest under mid: %+v", leaf)
	}
	if leaf.TraceID() != root.TraceID() {
		t.Fatalf("leaf trace ID %d != root trace ID %d", leaf.TraceID(), root.TraceID())
	}
	leaf.Finish()
	child.Finish()
	root.Finish()
	got, ok := tr.Get(root.TraceID())
	if !ok || len(got.Spans) != 3 {
		t.Fatalf("trace = %+v, %v; want 3 spans", got, ok)
	}
}

func TestStartChildCtxRootFallback(t *testing.T) {
	sp, ctx := StartChildCtx(context.Background(), "standalone")
	if sp == nil || sp.parent != 0 {
		t.Fatalf("StartChildCtx without parent did not start a root: %+v", sp)
	}
	if SpanFromContext(ctx) != sp {
		t.Fatal("returned ctx does not carry the new root")
	}
	sp.Finish()
	if _, ok := DefaultTracer().Get(sp.TraceID()); !ok {
		t.Fatal("root fallback trace not published to default tracer")
	}
}

func TestStatementsRecordAndSnapshot(t *testing.T) {
	s := NewStatements(8)
	s.Record("", "ignored", Execution{Rows: 1, D: time.Second}) // empty fingerprint: dropped
	if s.Len() != 0 {
		t.Fatalf("empty fingerprint recorded; len = %d", s.Len())
	}
	s.Record("fpA", "SELECT a", Execution{Rows: 3, D: 30 * time.Millisecond, Plan: stringerFunc("plan-a1")})
	s.Record("fpA", "SELECT a variant", Execution{Rows: 5, D: 10 * time.Millisecond, Plan: stringerFunc("plan-a2")})
	s.Record("fpB", "SELECT b", Execution{Rows: 1, D: 25 * time.Millisecond})
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(snap))
	}
	a := snap[0]
	if a.Fingerprint != "fpA" {
		t.Fatalf("snapshot not sorted by total time: first = %q", a.Fingerprint)
	}
	if a.Query != "SELECT a" {
		t.Fatalf("example query = %q, want first-seen text", a.Query)
	}
	if a.Calls != 2 || a.Hits != 0 || a.Rows != 8 {
		t.Fatalf("calls/hits/rows = %d/%d/%d, want 2/0/8", a.Calls, a.Hits, a.Rows)
	}
	if a.Total != 40*time.Millisecond || a.Min != 10*time.Millisecond ||
		a.Max != 30*time.Millisecond || a.Mean != 20*time.Millisecond {
		t.Fatalf("latency summary = total %v min %v max %v mean %v", a.Total, a.Min, a.Max, a.Mean)
	}
	// The slowest plan survives a faster later execution.
	if a.MaxPlan != "plan-a1" {
		t.Fatalf("max plan = %q, want plan-a1 (the 30ms execution's)", a.MaxPlan)
	}
	if snap[1].MaxPlan != "" {
		t.Fatalf("fpB plan = %q, want empty (never set)", snap[1].MaxPlan)
	}
	s.Record("fpA", "SELECT a", Execution{Rows: 1, D: 50 * time.Millisecond, Plan: stringerFunc("plan-a3")})
	if got := s.Snapshot()[0].MaxPlan; got != "plan-a3" {
		t.Fatalf("max plan = %q after a slower execution, want plan-a3", got)
	}
}

// TestStatementsHitsAndWorst: a results-cache hit counts as a call and
// a hit, never in the latency summary; the worst misestimate and its
// analyzed plan survive a better later analyzed execution, and an
// analyzed execution without a ratio (stopped early) adds its resources
// only.
func TestStatementsHitsAndWorst(t *testing.T) {
	s := NewStatements(8)
	s.Record("fp", "q", Execution{Hit: true, Rows: 2}) // a hit before any execution
	s.Record("fp", "q", Execution{Rows: 2, D: 20 * time.Millisecond})
	s.Record("fp", "q", Execution{Hit: true, Rows: 2})
	s.Record("fp", "q", Execution{Rows: 2, D: 40 * time.Millisecond, Analyzed: true, Scanned: 10, Decodes: 4,
		Ratio: 12, WorstOp: "op-1", WorstPlan: stringerFunc("analyzed-1")})
	s.Record("fp", "q", Execution{Rows: 2, D: 30 * time.Millisecond, Analyzed: true, Scanned: 10, Decodes: 4,
		Ratio: 3, WorstOp: "op-2", WorstPlan: stringerFunc("analyzed-2")})
	s.Record("fp", "q", Execution{Rows: 1, D: 30 * time.Millisecond, Analyzed: true, Scanned: 1, Decodes: 1})
	st := s.Snapshot()[0]
	if st.Calls != 6 || st.Hits != 2 || st.Rows != 11 {
		t.Fatalf("calls/hits/rows = %d/%d/%d, want 6/2/11", st.Calls, st.Hits, st.Rows)
	}
	if st.Total != 120*time.Millisecond || st.Min != 20*time.Millisecond ||
		st.Max != 40*time.Millisecond || st.Mean != 30*time.Millisecond {
		t.Fatalf("latency over executions = total %v min %v max %v mean %v", st.Total, st.Min, st.Max, st.Mean)
	}
	if st.MaxRatio != 12 || st.WorstOp != "op-1" || st.WorstPlan != "analyzed-1" {
		t.Fatalf("worst = x%v %q %q, want x12 op-1 analyzed-1", st.MaxRatio, st.WorstOp, st.WorstPlan)
	}
	if st.AnalyzedCalls != 3 || st.RowsScanned != 21 || st.TermDecodes != 9 {
		t.Fatalf("analyzed/scanned/decodes = %d/%d/%d, want 3/21/9", st.AnalyzedCalls, st.RowsScanned, st.TermDecodes)
	}

	// A row only ever hit has no latency to summarize.
	s.Record("hits", "q", Execution{Hit: true})
	for _, st := range s.Snapshot() {
		if st.Fingerprint == "hits" && (st.Calls != 1 || st.Hits != 1 || st.Mean != 0 || st.Max != 0) {
			t.Fatalf("hit-only row = %+v", st)
		}
	}
}

func TestStatementsEviction(t *testing.T) {
	s := NewStatements(2)
	s.Record("cheap", "q1", Execution{D: 1 * time.Millisecond})
	s.Record("costly", "q2", Execution{D: 100 * time.Millisecond})
	s.Record("new", "q3", Execution{D: 50 * time.Millisecond})
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if s.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", s.Evicted())
	}
	for _, st := range s.Snapshot() {
		if st.Fingerprint == "cheap" {
			t.Fatal("least-total entry survived eviction")
		}
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("len after Reset = %d", s.Len())
	}
	// Regression: Reset must clear the eviction counter with the table —
	// a reset table reporting phantom evictions misled `mdw top -reset`.
	if s.Evicted() != 0 {
		t.Fatalf("evicted after Reset = %d, want 0", s.Evicted())
	}
}

type stringerFunc string

func (s stringerFunc) String() string { return string(s) }

func TestQuantile(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1, math.Inf(1)}
	// 100 observations: 50 in (0,10ms], 40 in (10ms,100ms], 10 in (100ms,1s].
	cum := []int64{50, 90, 100, 100}
	if got := Quantile(bounds, cum, 0.5); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.01", got)
	}
	// p95: rank 95 falls in the third bucket (90..100 over 0.1..1):
	// 0.1 + 0.9*(95-90)/10 = 0.55.
	if got := Quantile(bounds, cum, 0.95); math.Abs(got-0.55) > 1e-9 {
		t.Fatalf("p95 = %v, want 0.55", got)
	}
	// A quantile landing in the +Inf bucket clamps to the last finite bound.
	cumInf := []int64{0, 0, 0, 10}
	if got := Quantile(bounds, cumInf, 0.5); got != 1 {
		t.Fatalf("+Inf bucket quantile = %v, want 1", got)
	}
	if got := Quantile(bounds, []int64{0, 0, 0, 0}, 0.5); !math.IsNaN(got) {
		t.Fatalf("empty histogram quantile = %v, want NaN", got)
	}
	if got := Quantile(nil, nil, 0.5); !math.IsNaN(got) {
		t.Fatalf("nil histogram quantile = %v, want NaN", got)
	}

	h := NewRegistry().Histogram("h", nil)
	for i := 0; i < 100; i++ {
		h.Observe(5 * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	if math.IsNaN(p50) || p50 <= 0 || p50 > 0.01 {
		t.Fatalf("histogram p50 = %v, want within (0, 0.01]", p50)
	}
}

func TestSampleRuntime(t *testing.T) {
	r := NewRegistry()
	SampleRuntime(r)
	if v := r.Gauge("mdw_runtime_goroutines").Value(); v < 1 {
		t.Fatalf("goroutines gauge = %d", v)
	}
	if v := r.Gauge("mdw_runtime_heap_alloc_bytes").Value(); v <= 0 {
		t.Fatalf("heap alloc gauge = %d", v)
	}
	stop := StartRuntimeSampler(time.Hour)
	stop()
	stop() // idempotent
	if v := Default().Gauge("mdw_runtime_goroutines").Value(); v < 1 {
		t.Fatalf("default registry goroutines gauge = %d after sampler start", v)
	}
}
