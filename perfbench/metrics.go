package main

import "fmt"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0). The light
// and loaded rungs' p99s are printed on a line of their own and kept in
// the run report, but are not among them: on a shared 2-CPU VM they
// swing 2-5x with the neighbours' load, run to run, which no bound of
// at most 25% can hold. Nor is capacity, for the same reason: the
// highest offered rate meeting p99 <= 20 ms (a binary search over a
// 1.1x geometric ladder) read 3700 to 7700 req/s on bookworm-read in
// five consecutive runs, and the closed-loop peak throughput spread
// 0.19 (IQR over median) in ten. The peak is client.peak_rps among the
// per-layer metrics instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"light_p50_ms", "ms"},
	{"loaded_p50_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"visible_p99_ms", "ms"},
	{"cpu_us_per_req", "us"},
	{"max_rss_mb", "MB"},
	{"transform_services_per_s", "1/s"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{"front.self_us.p50", "us"},
	{"core.forward_share", "ratio"},
	{"core.forward_us.p50", "us"},
	{"core.forward_us.p99", "us"},
	{"cluster.invoke_us.read.p50", "us"},
	{"cluster.invoke_us.read.p99", "us"},
	{"cluster.invoke_us.write.p50", "us"},
	{"cluster.invoke_us.write.p99", "us"},
	{"cluster.slot_wait_us.read.p50", "us"},
	{"cluster.slot_wait_us.read.p99", "us"},
	{"cluster.slot_wait_us.write.p50", "us"},
	{"cluster.slot_wait_us.write.p99", "us"},
	{"cluster.mispredict_ratio", "ratio"},
	{"cluster.reads", "count"},
	{"cluster.writes", "count"},
	{"httpapp.exec_us.read.p50", "us"},
	{"httpapp.exec_us.write.p50", "us"},
	{"statesync.after_invoke_us.p50", "us"},
	{"statesync.after_invoke_us.p99", "us"},
	{"durable.appends_per_write", "count"},
	{"durable.fsyncs_per_write", "count"},
	{"durable.commit_batch_mean", "count"},
	{"durable.bytes_per_write", "B"},
	{"statesync.bytes_per_write", "B"},
	{"statesync.frames_per_write", "count"},
	{"statesync.apply_ratio", "ratio"},
	{"statesync.window_stalls", "count"},
	{"statesync.reconnects", "count"},
	{"statesync.apply_errors", "count"},
	{"statesync.visible_cloud_ms.p50", "ms"},
	{"statesync.visible_cloud_ms.p99", "ms"},
	{"statesync.visible_peer_ms.p50", "ms"},
	{"statesync.visible_peer_ms.p99", "ms"},
	{"statesync.visible_poll_ms", "ms"},
	{"statesync.visible_unresolved", "count"},
	{"capture.ms", "ms"},
	{"analysis.ms", "ms"},
	{"datalog.ms", "ms"},
	{"datalog.iterations", "count"},
	{"datalog.facts_derived", "count"},
	{"refactor.ms", "ms"},
	{"checkpoint.ms", "ms"},
	{"core.deploy_ms", "ms"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_bytes_per_req", "B"},
	{"loadgen.lag_ms.p99", "ms"},
	{"error_share", "ratio"},
	{"client.loaded_p99_ms", "ms"},
	{"client.peak_rps", "req/s"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_p99_ms", "ms"},
}

// collect pairs every wanted metric with its unit. A run that did not
// produce exactly the wanted set is a bug in the benchmark.
func collect(values map[string]float64, want []metricDef) (map[string]metric, error) {
	if len(values) != len(want) {
		return nil, fmt.Errorf("run produced %d metrics, want %d", len(values), len(want))
	}
	out := make(map[string]metric, len(want))
	for _, d := range want {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s missing", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}
