package sparql

import "mdw/internal/obs"

// Metric handles, resolved once at package init. Exec-path updates are
// single atomic operations.
var (
	obsParseHist = obs.Default().Histogram("mdw_sparql_parse_seconds", nil)
	obsPlanHist  = obs.Default().Histogram("mdw_sparql_plan_seconds", nil)
	obsExecHist  = obs.Default().Histogram("mdw_sparql_exec_seconds", nil)
	obsRows      = obs.Default().Counter("mdw_sparql_rows_total")

	// Executions whose root ran as a morsel scan, at any worker count. How
	// wide each one went is the exec span's workers/morsels labels and
	// EXPLAIN ANALYZE's summary line.
	obsParExecMorsel = obs.Default().Counter("mdw_sparql_parallel_execs_total", "strategy", "morsel")

	// Misestimation feedback: analyzed executions whose worst operator
	// estimate was off by at least the threshold factor.
	obsMisestimate = obs.Default().Counter("mdw_sparql_misestimate_total")
)

func init() {
	r := obs.Default()
	r.SetHelp("mdw_sparql_parse_seconds", "SPARQL parse latency.")
	r.SetHelp("mdw_sparql_plan_seconds", "Query planning latency (results-cache misses only).")
	r.SetHelp("mdw_sparql_exec_seconds", "Plan execution latency.")
	r.SetHelp("mdw_sparql_rows_total", "Solutions streamed to clients (rows, or triples for CONSTRUCT).")
	r.SetHelp("mdw_sparql_parallel_execs_total", "Executions whose root scan ran as a morsel scan (1 worker when inline).")
	r.SetHelp("mdw_sparql_misestimate_total", "Analyzed executions whose worst per-operator estimate/actual ratio reached the misestimation threshold.")
}
