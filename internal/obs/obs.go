// Package obs is the warehouse's observability substrate: a
// dependency-free metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms), lightweight span tracing feeding a
// bounded ring of recent traces, and the statement table, one row per
// query fingerprint holding everything known about its executions — the
// latency summary, the plan of the slowest and the planner's worst
// misestimate.
//
// The paper's warehouse is an operational system: §III.B's load pipeline
// and §IV's services ran against ~1.2M-edge releases, where "how long
// did this query take and why" is a production question. Every service
// package instruments its hot paths against the shared default instances
// below; the HTTP API exposes them as GET /api/metrics (Prometheus text
// exposition), GET /api/traces and GET /api/statements, and `mdw
// metrics` and `mdw top` pretty-print them.
//
// Design constraints, in order:
//
//   - zero dependencies (standard library only);
//   - negligible overhead on instrumented hot paths: metric handles are
//     resolved once into package-level variables and updated with single
//     atomic operations, never map lookups or allocation;
//   - safe for concurrent use throughout.
package obs

// Shared default instances. Instrumented packages resolve their metric
// handles against Default() once at init time; the HTTP API and the CLI
// read all three.
var (
	defaultRegistry   = NewRegistry()
	defaultTracer     = NewTracer(DefaultTraceCapacity)
	defaultStatements = NewStatements(DefaultStatementCapacity)
)

func init() {
	defaultRegistry.SetHelp("mdw_trace_spans_dropped_total",
		"Spans discarded because they finished after their trace's root span had published the trace.")
	defaultTracer.dropCounter = defaultRegistry.Counter("mdw_trace_spans_dropped_total")
}

// Default returns the process-wide metrics registry.
func Default() *Registry { return defaultRegistry }

// DefaultStatements returns the process-wide statement-statistics table
// (per-fingerprint query aggregates, pg_stat_statements-style).
func DefaultStatements() *Statements { return defaultStatements }

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// StartSpan starts a root span of a new trace on the default tracer.
func StartSpan(name string) *Span { return defaultTracer.Start(name) }
