package sparql

import "mdw/internal/obs"

// Metric handles, resolved once at package init. Exec-path updates are
// single atomic operations.
var (
	obsParseHist   = obs.Default().Histogram("mdw_sparql_parse_seconds", nil)
	obsParseErrors = obs.Default().Counter("mdw_sparql_parse_errors_total")
	obsPlanHist    = obs.Default().Histogram("mdw_sparql_plan_seconds", nil)
	obsExecHist    = obs.Default().Histogram("mdw_sparql_exec_seconds", nil)
	obsRows        = obs.Default().Counter("mdw_sparql_rows_total")
	obsEarlyAsk    = obs.Default().Counter("mdw_sparql_early_terminations_total", "kind", "ask")
	obsEarlyLimit  = obs.Default().Counter("mdw_sparql_early_terminations_total", "kind", "limit")

	// Intra-query parallelism: executions that fanned out, executions
	// whose plan chose a morsel scan but fell back to serial at runtime
	// (stale estimates), and the fan-out volumes.
	obsParExecMorsel = obs.Default().Counter("mdw_sparql_parallel_execs_total", "strategy", "morsel")
	obsParFallback   = obs.Default().Counter("mdw_sparql_parallel_fallbacks_total")
	obsParWorkers    = obs.Default().Counter("mdw_sparql_parallel_workers_total")
	obsParMorsels    = obs.Default().Counter("mdw_sparql_parallel_morsels_total")

	// Misestimation feedback: analyzed executions whose worst operator
	// estimate was off by at least the threshold factor.
	obsMisestimate = obs.Default().Counter("mdw_sparql_misestimate_total")
)

func init() {
	r := obs.Default()
	r.SetHelp("mdw_sparql_parse_seconds", "SPARQL parse latency.")
	r.SetHelp("mdw_sparql_parse_errors_total", "SPARQL parses rejected with an error.")
	r.SetHelp("mdw_sparql_plan_seconds", "Query planning latency (results-cache misses only).")
	r.SetHelp("mdw_sparql_exec_seconds", "Plan execution latency.")
	r.SetHelp("mdw_sparql_rows_total", "Solutions streamed to clients (rows, or triples for CONSTRUCT).")
	r.SetHelp("mdw_sparql_early_terminations_total", "Executions stopped before exhausting the search space (ASK first solution, LIMIT reached).")
	r.SetHelp("mdw_sparql_parallel_execs_total", "Executions that fanned out as a morsel-parallel scan.")
	r.SetHelp("mdw_sparql_parallel_fallbacks_total", "Executions whose plan chose a morsel scan but ran serially (live data under the threshold).")
	r.SetHelp("mdw_sparql_parallel_workers_total", "Workers launched by parallel executions.")
	r.SetHelp("mdw_sparql_parallel_morsels_total", "Candidate morsels dispatched by parallel BGP scans.")
	r.SetHelp("mdw_sparql_misestimate_total", "Analyzed executions whose worst per-operator estimate/actual ratio reached the misestimation threshold.")
}
