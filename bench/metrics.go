package main

// spec declares one metric. BENCHMARK.json carries the same names, units
// and directions (bench_test.go holds the two in step) plus the regression
// bounds, which live only there.
type spec struct {
	name, unit, better string
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them, measured with tracing off. A run repeats episodes of
// identical work; sizes and set-up take the median across them, times the
// first quartile (see undisturbed).
//
//	setup_s          episode start → measured window start (excludes the go
//	                 build); median
//	live_heap_mb     HeapAlloc after a forced GC at the end of the window,
//	                 before teardown, less the harness's own share; median
//	peak_rss_mb      the process's peak resident set (getrusage)
//	work_per_s       the workload's fixed work ÷ steady window: machine scan
//	                 periods (sim_*), telemetry entries (cp_*)
//	op_ms_p50        median latency of the workload's user-visible operation:
//	                 one scan period of the cluster / machine (sim_*), one
//	                 report round trip (cp_ingest), closing Tick → last agent
//	                 polled the round's epoch (cp_rounds); median over
//	                 positions of the steady latency
//	cpu_us_per_work  process CPU (user+sys) spent in the window ÷ work; first
//	                 quartile
var endToEnd = []spec{
	{"setup_s", "s", lower},
	{"live_heap_mb", "MiB", lower},
	{"peak_rss_mb", "MiB", lower},
	{"work_per_s", "1/s", higher},
	{"op_ms_p50", "ms", lower},
	{"cpu_us_per_work", "us", lower},
}

// perLayer are the metrics of single layers (the layers are the packages),
// measured from outside by the traced run: spans around calls into public
// functions, public counters, and layer probes. A workload that does not
// run a layer reports 0 for it. Work counts are "lower is better" in the
// sense that less work per step is a faster step; a change that only
// speeds the simulator up must leave them identical.
var perLayer = []spec{
	{"workload.tick_ns_per_access", "ns", lower},
	{"workload.accesses_per_step", "count", lower},
	{"workload.share_of_step", "ratio", lower},

	{"mem.touch_ns_per_access", "ns", lower},
	{"mem.scan_ns_per_page", "ns", lower},
	{"mem.heap_bytes_per_page", "B", lower},

	{"kstaled.scan_ns_per_page", "ns", lower},
	{"kstaled.pages_per_step", "count", lower},
	{"kstaled.share_of_step", "ratio", lower},

	{"kreclaimd.reclaim_us_per_call", "us", lower},
	{"kreclaimd.idle_walk_ns", "ns", lower},
	{"kreclaimd.stored_per_step", "count", lower},
	{"kreclaimd.share_of_step", "ratio", lower},

	{"zswap.store_us_per_page", "us", lower},
	{"zswap.load_us_per_page", "us", lower},
	{"zswap.stored_pages", "count", lower},
	{"zswap.loaded_pages", "count", lower},
	{"zswap.rejected_pages", "count", lower},

	{"zsmalloc.alloc_ns", "ns", lower},
	{"zsmalloc.free_ns", "ns", lower},
	{"zsmalloc.compact_ms", "ms", lower},
	{"zsmalloc.fragmentation_pct", "%", lower},

	{"compress.compress_us_per_page", "us", lower},
	{"compress.decompress_us_per_page", "us", lower},
	{"compress.ratio", "x", higher},

	{"pagedata.generate_us_per_page", "us", lower},

	{"node.step_ms_p50", "ms", lower},
	{"node.step_ms_p99", "ms", lower},
	{"node.allocs_per_step", "count", lower},
	{"node.addjob_ms", "ms", lower},

	{"cluster.populate_ms", "ms", lower},
	{"cluster.parallel_speedup_x", "x", higher},

	{"telemetry.record_us_per_entry", "us", lower},
	{"telemetry.validate_ns_per_entry", "ns", lower},

	{"obs.step_overhead_pct", "%", lower},
	{"audit.step_overhead_pct", "%", lower},

	{"fleet.generate_entries_per_s", "1/s", higher},

	{"tracestore.write_entries_per_s", "1/s", higher},
	{"tracestore.scan_entries_per_s", "1/s", higher},
	{"tracestore.bytes_per_entry", "B", lower},

	{"wire.encode_ns_per_entry", "ns", lower},
	{"wire.decode_ns_per_entry", "ns", lower},
	{"wire.decode_allocs_per_report", "count", lower},
	{"wire.bytes_per_entry", "B", lower},

	{"controlplane.http_report_us_p50", "us", lower},
	{"controlplane.http_report_us_p99", "us", lower},
	{"controlplane.enqueue_ns_per_entry", "ns", lower},
	{"controlplane.tick_ns_per_entry", "ns", lower},
	{"controlplane.tick_ms_p99", "ms", lower},
	{"controlplane.drain_ms_p50", "ms", lower},
	{"controlplane.queue_depth_max", "count", lower},
	{"controlplane.dropped_entries", "count", lower},
	{"controlplane.rejected_entries", "count", lower},
	{"controlplane.round_ms_p50", "ms", lower},
	{"controlplane.round_ms_p90", "ms", lower},
	{"controlplane.poll_us_p50", "us", lower},
	{"controlplane.ingest_entries_per_s_p1", "1/s", higher},
	{"controlplane.ingest_scaling_x", "x", higher},

	{"ckpt.write_ms_p50", "ms", lower},
	{"ckpt.bytes", "B", lower},
	{"ckpt.restore_ms", "ms", lower},

	{"model.compile_ms_p50", "ms", lower},
	{"model.replay_us_per_eval", "us", lower},
	{"model.window_entries", "count", lower},

	{"tuner.autotune_ms_p50", "ms", lower},
	{"tuner.rollout_ms_p50", "ms", lower},
	{"tuner.evals_per_round", "count", lower},
	{"tuner.rollbacks", "count", lower},

	{"gp.session_ms", "ms", lower},

	{"bench.trace_overhead_pct", "%", lower},
	{"bench.gen_cpu_share", "ratio", lower},
}
