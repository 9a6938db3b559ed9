package main

import "slices"

// metricDef declares one reported metric. bound is the share of the
// baseline median by which an end-to-end metric may worsen before a change
// counts as a regression, and floor the absolute change below which it
// never does; per-layer metrics carry neither.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	floor  float64
}

// e2eMetrics are the end-to-end metrics of BENCHMARK.json: every workload
// reports every one of them in an untraced run.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.005},
	{"ops_per_s", "1/s", "higher", 0.25, 0},
	{"read_p50_ns", "ns", "lower", 0.25, 0},
	{"read_p99_ns", "ns", "lower", 0.25, 0},
	{"lock_bytes", "B", "lower", 0.01, 0},
}

// recordOnlyMetrics are end-to-end metrics that exist only for some
// workloads or are zero by design, so BENCHMARK.json cannot declare them;
// the run record keeps them and compare checks them where present.
// failed_share has bound 0: any increase is a regression.
var recordOnlyMetrics = []metricDef{
	{"write_p50_ns", "ns", "lower", 0.25, 0},
	{"write_p99_ns", "ns", "lower", 0.25, 0},
	{"failed_share", "ratio", "lower", 0, 0},
}

// recordedE2E is every end-to-end metric a run record carries.
var recordedE2E = slices.Concat(e2eMetrics, recordOnlyMetrics)

// layer declares a per-layer metric; every one of them is better lower.
func layer(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "lower"} }

// layerMetrics are the per-layer metrics a traced run reports for its
// workload. Counter and trace metrics a workload cannot observe read 0.
var layerMetrics = []metricDef{
	layer("ladder.seqlock_read_ns", "ns"),
	layer("ladder.lockword_validate_ns", "ns"),
	layer("ladder.stats_add_ns", "ns"),
	layer("ladder.jthread_specframe_ns", "ns"),
	layer("ladder.core_readonly_lean_ns", "ns"),
	layer("ladder.core_readonly_ns", "ns"),
	layer("ladder.solero_readonly_ns", "ns"),
	layer("ladder.core_readonly_metrics_ns", "ns"),
	layer("ladder.core_readmostly_ns", "ns"),
	layer("ladder.rmap_get_ns", "ns"),
	layer("ladder.core_write_ns", "ns"),
	layer("ladder.vmlock_sync_ns", "ns"),

	layer("core.elision_failure_pct", "%"),
	layer("core.fallbacks_per_mop", "1/Mop"),
	layer("core.inflations_per_s", "1/s"),
	layer("core.fat_enter_share", "ratio"),
	layer("core.spin_acquire_share", "ratio"),
	layer("core.flc_waits_per_s", "1/s"),
	layer("runtime.gc_cycles", "count"),
	layer("runtime.alloc_bytes_per_op", "B/op"),
	layer("metrics.abort.writer-raced", "1/Mop"),
	layer("metrics.abort.lockbit-set", "1/Mop"),
	layer("metrics.abort.inflated", "1/Mop"),
	layer("metrics.abort.recursion-overflow", "1/Mop"),
	layer("metrics.abort.async-abort", "1/Mop"),

	layer("read.lock_self_ns", "ns"),
	layer("read.body_ns", "ns"),
	layer("read.body_execs", "execs/op"),
	layer("write.lock_self_p50_ns", "ns"),
	layer("write.lock_self_p99_ns", "ns"),
	layer("trace.overhead_pct", "%"),

	layer("env.clock_floor_ns", "ns"),
	layer("env.calib_ns", "ns"),
}
