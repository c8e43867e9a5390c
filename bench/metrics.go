package bench

// Metric is one named metric of BENCHMARK.json.
type Metric struct {
	Name, Unit string
}

// EndToEnd lists the end-to-end metrics: what a user of the server
// sees, defined alike on every workload. BENCHMARK.json gives each a
// regression bound.
var EndToEnd = []Metric{
	{"setup_s", "s"},                // exec of mdwd to the first 200 from /readyz, median of setupRuns starts
	{"throughput_rps", "1/s"},       // verified requests per second of timed baskets, summed over connections
	{"class_geomean_ms", "ms"},      // geometric mean of the class medians: every class weighs the same
	{"server_cpu_ms_per_req", "ms"}, // server user+system CPU over the timed phase per verified request
	{"rss_mb", "MB"},                // server resident-set high-water mark at the end of the workload
}

// PerLayer lists the per-layer metrics: the class latencies the baskets
// are made of, then one group per package of the repository. None has a
// bound. A metric a workload does not exercise reads 0.
var PerLayer = []Metric{
	// Client-observed, by request class.
	{"search_p50_ms", "ms"}, {"search_p99_ms", "ms"}, {"lineage_p50_ms", "ms"}, {"audit_p50_ms", "ms"},
	{"listing1_p50_ms", "ms"}, {"listing2_p50_ms", "ms"},
	{"query_point_p50_ms", "ms"}, {"query_join_p50_ms", "ms"}, {"query_scan_p50_ms", "ms"},
	{"load_batch_p50_ms", "ms"}, {"release_visible_s", "s"}, {"recovery_s", "s"}, {"data_dir_mb", "MB"},
	// The ladder: mean self time per request of the traced replay.
	{"transport.self_ms", "ms"}, {"httpapi.self_ms", "ms"}, {"httpapi.resp_kb", "kB"}, {"httpapi.allocs_per_req", "count"},
	{"core.self_ms", "ms"}, {"search.busy_ms", "ms"}, {"textindex.lookup_ms", "ms"}, {"textindex.postings_per_req", "count"},
	{"lineage.trace_ms", "ms"}, {"lineage.rollup_ms", "ms"}, {"lineage.nodes_per_req", "count"}, {"audit.busy_ms", "ms"},
	{"semmatch.parse_ms", "ms"}, {"sparql.parse_ms", "ms"}, {"sparql.plan_ms", "ms"}, {"sparql.exec_ms", "ms"},
	{"ladder_closure_pct", "%"},
	// Counts and busy times the server reports, over the timed phase.
	{"sparql.rows_per_req", "count"}, {"sparql.rows_scanned_per_row", "count"}, {"sparql.terms_decoded_per_row", "count"},
	{"sparql.plancache_hit_ratio", "ratio"}, {"sparql.parallel_exec_ratio", "ratio"},
	{"rescache.hit_ratio", "ratio"}, {"rescache.evictions", "count"}, {"rescache.entries", "count"}, {"rescache.mb", "MB"},
	{"store.lookups_per_req", "count"}, {"store.match_us", "us"}, {"store.add_us_per_triple", "us"},
	{"store.bytes_per_triple", "B"}, {"store.installs", "count"},
	{"reason.materialize_s", "s"}, {"reason.derived_triples", "count"},
	{"staging.pipeline_s", "s"}, {"ntriples.parse_us_per_triple", "us"},
	{"textindex.build_s", "s"}, {"textindex.update_ms_per_batch", "ms"},
	{"durable.wal_append_us_per_triple", "us"}, {"durable.fsync_ms", "ms"}, {"durable.fsyncs_per_batch", "count"},
	{"durable.wal_bytes_per_user_byte", "ratio"}, {"durable.checkpoint_s", "s"},
	{"durable.snapshot_bytes_per_triple", "B"}, {"durable.recover_s", "s"},
	{"runtime.gc_pause_ms_per_s", "ms/s"}, {"runtime.heap_inuse_mb", "MB"},
}
