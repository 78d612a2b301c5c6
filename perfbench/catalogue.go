package main

// metricDef describes one reported metric. The end-to-end entries mirror
// BENCHMARK.json's end_to_end list (a test keeps the two equal); the
// per-layer entries mirror its per_layer list.
type metricDef struct {
	name     string
	unit     string
	better   string  // "lower" or "higher"
	bound    float64 // end-to-end only: allowed worsening, share of the parent's median
	perLayer bool
	// exact marks metrics that are deterministic for a workload seed;
	// the exact gate compares them across runs.
	exact bool
}

var catalogue = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "edge_cut", unit: "count", better: "lower", bound: 0.1, exact: true},
	{name: "balance_max", unit: "ratio", better: "lower", bound: 0.1, exact: true},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25},

	{name: "error_rate", unit: "ratio", better: "lower", perLayer: true},
	{name: "balance_violation_rate", unit: "ratio", better: "lower", perLayer: true, exact: true},
	{name: "latency_tail_pct", unit: "%", better: "higher", perLayer: true},
	{name: "requests", unit: "count", better: "higher", perLayer: true},
	{name: "service.compute_ms", unit: "ms", better: "lower", perLayer: true},
	{name: "service.overhead_ms", unit: "ms", better: "lower", perLayer: true},
	{name: "service.cache_hit_ratio", unit: "ratio", better: "lower", perLayer: true},
	{name: "service.degraded_results", unit: "count", better: "lower", perLayer: true},
	{name: "service.rejected", unit: "count", better: "lower", perLayer: true},
	{name: "graph.decode_ms", unit: "ms", better: "lower", perLayer: true},
	{name: "graph.decode_alloc_mb", unit: "MiB", better: "lower", perLayer: true},
	{name: "graph.fingerprint_ms", unit: "ms", better: "lower", perLayer: true},
	{name: "coarsen.ms", unit: "ms", better: "lower", perLayer: true},
	{name: "coarsen.levels", unit: "count", better: "lower", perLayer: true, exact: true},
	{name: "coarsen.coarsest_n", unit: "count", better: "lower", perLayer: true, exact: true},
	{name: "coarsen.shrink_per_level", unit: "ratio", better: "higher", perLayer: true, exact: true},
	{name: "initpart.ms", unit: "ms", better: "lower", perLayer: true},
	{name: "initpart.initial_cut", unit: "count", better: "lower", perLayer: true, exact: true},
	{name: "refine.ms", unit: "ms", better: "lower", perLayer: true},
	{name: "refine.passes", unit: "count", better: "lower", perLayer: true, exact: true},
	{name: "refine.moves", unit: "count", better: "lower", perLayer: true, exact: true},
	{name: "refine.positive_gain_ratio", unit: "ratio", better: "higher", perLayer: true, exact: true},
	{name: "refine.boundary_mean", unit: "count", better: "lower", perLayer: true, exact: true},
	{name: "multilevel.project_ms", unit: "ms", better: "lower", perLayer: true},
	{name: "multilevel.bisections", unit: "count", better: "lower", perLayer: true, exact: true},
	{name: "multilevel.call_ms", unit: "ms", better: "lower", perLayer: true},
	{name: "multilevel.self_ms", unit: "ms", better: "lower", perLayer: true},
	{name: "multilevel.unaccounted_ms", unit: "ms", better: "lower", perLayer: true},
	{name: "wire.encode_ms", unit: "ms", better: "lower", perLayer: true},
	{name: "wire.response_kb", unit: "KiB", better: "lower", perLayer: true},
	{name: "sessions.apply_ms.boundary", unit: "ms", better: "lower", perLayer: true},
	{name: "sessions.apply_ms.full", unit: "ms", better: "lower", perLayer: true},
	{name: "sessions.repairs.boundary", unit: "count", better: "higher", perLayer: true, exact: true},
	{name: "sessions.repairs.full", unit: "count", better: "lower", perLayer: true, exact: true},
	{name: "sessions.repairs.vcycle", unit: "count", better: "lower", perLayer: true, exact: true},
	{name: "sessions.resident_mb", unit: "MiB", better: "lower", perLayer: true},
	{name: "sessions.cut_drift", unit: "ratio", better: "lower", perLayer: true, exact: true},
	{name: "runtime.alloc_mb_per_req", unit: "MiB", better: "lower", perLayer: true},
	{name: "runtime.gc_cycles_per_req", unit: "count", better: "lower", perLayer: true},
	{name: "trace_overhead_pct", unit: "%", better: "lower", perLayer: true},
}
