package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceCapacity is the size of the default tracer's ring of
// recent traces.
const DefaultTraceCapacity = 64

// Label is one key/value annotation on a span.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is the exported record of one finished (or still-open) span.
type SpanData struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"` // 0 for the root
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"durationNs"`
	Labels []Label       `json:"labels,omitempty"`
}

// Trace is one finished trace: a root span plus its descendants, in
// start order.
type Trace struct {
	ID    uint64        `json:"id"`
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"durationNs"`
	Spans []SpanData    `json:"spans"`
}

// traceRec accumulates the spans of one in-flight trace.
type traceRec struct {
	mu    sync.Mutex
	id    uint64
	name  string
	start time.Time
	spans []SpanData
	// published flips when the root span finishes and the trace is
	// copied into the ring; children finishing after that are dropped
	// (and counted in mdw_trace_spans_dropped_total, for the default
	// tracer).
	published bool
}

// Span is one timed region. Spans are created from a Tracer (root spans)
// or from a parent span (children); Finish records the duration, and
// finishing the root publishes the whole trace into the tracer's ring.
// All methods are nil-safe so conditional instrumentation ("span only
// when the request is traced") needs no call-site guards.
type Span struct {
	tr     *Tracer
	rec    *traceRec
	id     uint64
	parent uint64
	name   string
	start  time.Time
	labels []Label
	done   atomic.Bool
}

// Tracer collects recent traces in a bounded ring: the last cap finished
// traces are retained, oldest evicted first.
type Tracer struct {
	mu      sync.Mutex
	ring    []Trace
	next    int
	filled  bool
	cap     int
	ids     atomic.Uint64
	started atomic.Int64
	// dropCounter, when set, counts the spans dropped for finishing after
	// their root (wired up for the default tracer in obs.go).
	dropCounter *Counter
}

// NewTracer returns a tracer retaining the last cap traces (cap <= 0
// selects DefaultTraceCapacity).
func NewTracer(cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]Trace, cap), cap: cap}
}

// Start begins a new trace and returns its root span. The trace record
// and the root span share one timestamp, so the published trace's Start
// always equals its root span's Start.
func (t *Tracer) Start(name string) *Span {
	id := t.ids.Add(1)
	t.started.Add(1)
	now := time.Now()
	return &Span{
		tr:    t,
		rec:   &traceRec{id: id, name: name, start: now},
		id:    id,
		name:  name,
		start: now,
	}
}

// Started returns the number of traces ever started.
func (t *Tracer) Started() int64 { return t.started.Load() }

// Child starts a nested span with this span as parent. On a nil span it
// returns nil (which is itself safe to use).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tr:     s.tr,
		rec:    s.rec,
		id:     s.tr.ids.Add(1),
		parent: s.id,
		name:   name,
		start:  time.Now(),
	}
}

// TraceID returns the ID of the trace this span belongs to (the root
// span's ID), or 0 on a nil span.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.id
}

// SetLabel annotates the span. Not safe for concurrent use on one span
// (spans are single-goroutine by construction). No-op on a nil span.
func (s *Span) SetLabel(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.labels = append(s.labels, Label{Key: key, Value: value})
	return s
}

// Finish records the span's duration and returns it. Finishing the root
// span publishes the trace; Finish is idempotent, and children finished
// after their root are dropped and counted (the default tracer's
// mdw_trace_spans_dropped_total).
func (s *Span) Finish() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	if !s.done.CompareAndSwap(false, true) {
		return d
	}
	sd := SpanData{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, Dur: d, Labels: s.labels,
	}
	s.rec.mu.Lock()
	if s.rec.published {
		// The root already published this trace; the span can no longer
		// be attached. Count it instead of losing it silently.
		s.rec.mu.Unlock()
		if s.tr.dropCounter != nil {
			s.tr.dropCounter.Inc()
		}
		return d
	}
	s.rec.spans = append(s.rec.spans, sd)
	var tr *Trace
	if s.parent == 0 {
		s.rec.published = true
		spans := make([]SpanData, len(s.rec.spans))
		copy(spans, s.rec.spans)
		tr = &Trace{ID: s.rec.id, Name: s.rec.name, Start: s.rec.start, Dur: d, Spans: spans}
	}
	s.rec.mu.Unlock()
	if tr != nil {
		s.tr.publish(*tr)
	}
	return d
}

func (t *Tracer) publish(tr Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring[t.next] = tr
	t.next++
	if t.next == t.cap {
		t.next = 0
		t.filled = true
	}
}

// Recent returns the retained traces, newest first.
func (t *Tracer) Recent() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.filled {
		n = t.cap
	}
	out := make([]Trace, 0, n)
	for i := 0; i < n; i++ {
		idx := (t.next - 1 - i + t.cap) % t.cap
		out = append(out, t.ring[idx])
	}
	return out
}

// Get returns the retained trace with the given ID. It reports false
// when the trace never existed, has been evicted from the ring, or has
// not finished yet (a trace publishes when its root span finishes).
func (t *Tracer) Get(id uint64) (Trace, bool) {
	if id == 0 {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.filled {
		n = t.cap
	}
	for i := 0; i < n; i++ {
		idx := (t.next - 1 - i + t.cap) % t.cap
		if t.ring[idx].ID == id {
			return t.ring[idx], true
		}
	}
	return Trace{}, false
}
