package main

// metricDef mirrors one entry of BENCHMARK.json; bench_test.go holds
// the two in step. bound is the share of the baseline median by which
// an end-to-end metric may worsen before a change counts as a
// regression (per-layer metrics have none).
type metricDef struct {
	name, unit, better string
	bound              float64
}

// workloadNames lists the four user paths in the order they run.
var workloadNames = []string{"interpret_cli", "serve_inline_small", "session_update", "cluster_2proc"}

// endToEnd is reported by every workload on an untraced run. The
// relative units are multiples of the interleaved calibration sample,
// which is what makes them repeat on a host whose speed drifts. Each
// bound is at least three times the widest spread measured on the
// 2-core shared host the benchmark was written on (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_rel_p50", "calib", "lower", 0.25},
	{"cpu_rel_per_op", "calib", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.12},
	{"heap_live_mb", "MB", "lower", 0.08},
}

// perLayer is reported by every workload on a traced run; a layer a
// workload never enters reads 0. README.md maps each to the end-to-end
// metric it should move.
var perLayer = []metricDef{
	{"spam.self_ms", "ms", "lower", 0},
	{"spam.tasks", "count", "lower", 0},
	{"spam.session.rerun_share", "ratio", "lower", 0},
	{"spam.session.reused", "count", "higher", 0},
	{"spam.session.retracted_wmes", "count", "lower", 0},
	{"spam.session.update_vs_full", "ratio", "lower", 0},
	{"tlp.run_tasks_ms.rtf", "ms", "lower", 0},
	{"tlp.run_tasks_ms.lcc", "ms", "lower", 0},
	{"tlp.run_tasks_ms.fa", "ms", "lower", 0},
	{"tlp.run_tasks_ms.model", "ms", "lower", 0},
	{"tlp.overhead_ms", "ms", "lower", 0},
	{"tlp.speedup_w2", "ratio", "higher", 0},
	{"ops5.build_seed_ms", "ms", "lower", 0},
	{"ops5.run_ms", "ms", "lower", 0},
	{"ops5.firings", "count", "lower", 0},
	{"ops5.rhs_actions", "count", "lower", 0},
	{"ops5.sim_minstr", "Minstr", "lower", 0},
	{"ops5.sim_match_share", "ratio", "lower", 0},
	{"rete.join_tests", "count", "lower", 0},
	{"rete.tokens_created", "count", "lower", 0},
	{"rete.activations", "count", "lower", 0},
	{"geom.memo_hits", "count", "higher", 0},
	{"geom.memo_misses", "count", "lower", 0},
	{"geom.memo_evictions", "count", "lower", 0},
	{"geom.memo_hit_ratio", "ratio", "higher", 0},
	{"serve.http_ms", "ms", "lower", 0},
	{"serve.handler_ms", "ms", "lower", 0},
	{"serve.transport_ms", "ms", "lower", 0},
	{"serve.direct_ms", "ms", "lower", 0},
	{"serve.self_ms", "ms", "lower", 0},
	{"serve.request_kb", "KB", "lower", 0},
	{"serve.response_kb", "KB", "lower", 0},
	{"serve.cache_misses", "count", "lower", 0},
	{"serve.cache_evictions", "count", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"cluster.run_tasks_ms", "ms", "lower", 0},
	{"cluster.codec_ms", "ms", "lower", 0},
	{"cluster.ship_kb_per_op", "KB", "lower", 0},
	{"cluster.chunk_kb_per_op", "KB", "lower", 0},
	{"cluster.result_kb_per_op", "KB", "lower", 0},
	{"cluster.chunk_hit_ratio", "ratio", "higher", 0},
	{"cluster.steals_per_op", "count", "lower", 0},
	{"cluster.continuation_share", "ratio", "higher", 0},
	{"cluster.worker_task_imbalance", "ratio", "lower", 0},
	{"cluster.coord_cpu_s_per_op", "s", "lower", 0},
	{"cluster.worker_cpu_s_per_op", "s", "lower", 0},
	{"cluster.speedup_vs_inproc", "ratio", "higher", 0},
	{"scene.delta_regions", "count", "lower", 0},
	{"e2e.op_ms_p50", "ms", "lower", 0},
	{"e2e.op_ms_p90", "ms", "lower", 0},
	{"e2e.op_ms_mean", "ms", "lower", 0},
	{"e2e.ops_per_s", "1/s", "higher", 0},
	{"host.calib_ms_p50", "ms", "lower", 0},
	{"host.calib_ms_p90", "ms", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.span_coverage", "ratio", "higher", 0},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a single-workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// withUnits pairs measured values with the declared units; a declared
// metric that was not measured reads 0.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
