package main

import "chimera/internal/experiments"

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; TestMetricListsMatchBenchmarkJSON keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics of the untraced run, reported by every
// workload. README.md defines each one per workload and names its clock
// (host or sim).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"slo_met_pct", "%", "higher"},
	{"sat_jobs_per_s", "jobs/s", "higher"},
	{"deadline_met_pct", "%", "higher"},
	{"overhead_pct", "%", "lower"},
	{"antt_gain_x", "x", "higher"},
}

// perLayer are the metrics of the traced run. Every workload reports
// every one; a layer the workload does not reach reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"eventq.cpu_pct", "%", "lower"},
		{"engine.cpu_pct", "%", "lower"},
		{"core.cpu_pct", "%", "lower"},
		{"preempt.cpu_pct", "%", "lower"},
		{"rng.cpu_pct", "%", "lower"},
		{"runtime.gc_cpu_pct", "%", "lower"},
		{"server.http_cpu_pct", "%", "lower"},
		{"engine.ns_per_sim_cycle", "ns", "lower"},
		{"engine.events_per_sim_ms", "count", "lower"},
		{"engine.requests", "count", "lower"},
		{"engine.rebalances", "count", "lower"},
		{"engine.allocs_per_sim_ms", "count", "lower"},
		{"engine.bytes_per_sim_ms", "B", "lower"},
		{"policy.select_calls", "count", "lower"},
		{"policy.select_ns_mean", "ns", "lower"},
		{"policy.select_pct", "%", "lower"},
		{"workloads.run_miss_ms.solo", "ms", "lower"},
		{"workloads.run_miss_ms.periodic", "ms", "lower"},
		{"workloads.run_miss_ms.pair", "ms", "lower"},
		{"workloads.run_hit_us", "us", "lower"},
		{"jobspec.prepare_ns", "ns", "lower"},
		{"simjob.jobs_run", "count", "lower"},
		{"simjob.cache_hits", "count", "higher"},
		{"simjob.hit_pct", "%", "higher"},
		{"simjob.busy_pct", "%", "higher"},
	}
	for _, name := range experiments.Names() {
		defs = append(defs, metricDef{"experiments." + name + "_s", "s", "lower"})
	}
	return append(defs, []metricDef{
		{"latency.p50_ms", "ms", "lower"},
		{"latency.p99_ms", "ms", "lower"},
		{"server.submit_ms.p50", "ms", "lower"},
		{"server.submit_ms.p99", "ms", "lower"},
		{"server.queue_ms.p50", "ms", "lower"},
		{"server.queue_ms.p99", "ms", "lower"},
		{"server.run_ms.p50", "ms", "lower"},
		{"server.run_ms.p99", "ms", "lower"},
		{"server.deduped_pct", "%", "higher"},
		{"server.rejected", "count", "lower"},
		{"server.shed", "count", "lower"},
		{"trace.export_ms", "ms", "lower"},
		{"cluster.front_ms", "ms", "lower"},
		{"cluster.routed", "count", "higher"},
		{"cluster.cache_hits", "count", "higher"},
		{"cluster.failovers", "count", "lower"},
		{"cluster.peer_hits", "count", "higher"},
		{"bench.gen_lag_ms", "ms", "lower"},
		{"bench.trace_overhead_pct", "%", "lower"},
		{"bench.fail_pct", "%", "lower"},
	}...)
}

// zeroLayers sets every per-layer metric the workload has not set to 0:
// the layer does no work on this workload.
func zeroLayers(out *outcome) {
	for _, d := range perLayer() {
		if _, ok := out.values[d.Name]; !ok {
			out.set(d.Name, 0)
		}
	}
}
