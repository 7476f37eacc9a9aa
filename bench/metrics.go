package main

// metricDecl declares one reported metric. BENCHMARK.json lists the
// same names, units, directions and bounds; TestBenchmarkJSON keeps
// the two in step.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEndMetrics are measured with tracing off and printed by
// --trace 0. Every workload reports every one (see README.md for what
// each means on the workloads where the plain definition has no
// samples). The bounds are about three times the widest run-to-run
// spread measured on the two-vCPU box this was built on (README.md,
// "Steadiness"), capped at the contract's 0.25.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"tick_cpu_ms", "ms", "lower", 0.20},
	{"delivery_p50_ms", "ms", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"retained_heap_mb", "MB", "lower", 0.06},
}

// perLayerMetrics are printed by --trace 1: the single-goroutine
// replay's per-stage numbers, then the counters and tails of the
// end-to-end harness.
var perLayerMetrics = []metricDecl{
	{Name: "htmlparse.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "htmlparse.mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "htmlparse.allocs", Unit: "count", Better: "lower"},
	{Name: "dom.warm_ms", Unit: "ms", Better: "lower"},
	{Name: "dom.allocs", Unit: "count", Better: "lower"},
	{Name: "fetchcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fetchcache.hit_us", Unit: "us", Better: "lower"},
	{Name: "fetchcache.miss_ms", Unit: "ms", Better: "lower"},
	{Name: "transform.poll_memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "transform.tick_ms", Unit: "ms", Better: "lower"},
	{Name: "transform.collect_us", Unit: "us", Better: "lower"},
	{Name: "elog.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "elog.allocs", Unit: "count", Better: "lower"},
	{Name: "elog.subtree_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "elog.reused_node_ratio", Unit: "ratio", Better: "higher"},
	{Name: "elog.match_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "elog.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "pib.transform_ms", Unit: "ms", Better: "lower"},
	{Name: "pib.diff_ms", Unit: "ms", Better: "lower"},
	{Name: "pib.allocs", Unit: "count", Better: "lower"},
	{Name: "pib.reused_node_ratio", Unit: "ratio", Better: "higher"},
	{Name: "xmlenc.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "xmlenc.spliced_byte_ratio", Unit: "ratio", Better: "higher"},
	{Name: "xmlenc.bytes_out", Unit: "bytes", Better: "lower"},
	{Name: "xmlenc.allocs", Unit: "count", Better: "lower"},
	{Name: "resultlog.append_us", Unit: "us", Better: "lower"},
	{Name: "resultlog.bytes_per_tick", Unit: "bytes", Better: "lower"},
	{Name: "resultlog.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "resultlog.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "resultlog.fsyncs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "server.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "server.etag_us", Unit: "us", Better: "lower"},
	{Name: "server.register_ms", Unit: "ms", Better: "lower"},
	{Name: "server.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "server.read_us", Unit: "us", Better: "lower"},
	{Name: "server.read304_us", Unit: "us", Better: "lower"},
	{Name: "server.read_jsongz_us", Unit: "us", Better: "lower"},
	{Name: "server.noop_suppressed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.etag_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.sse_frames", Unit: "count", Better: "higher"},
	{Name: "server.dropped_slow", Unit: "count", Better: "lower"},
	{Name: "sched.interval_err_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.tick_errors", Unit: "count", Better: "lower"},
	{Name: "sched.late_ticks", Unit: "count", Better: "lower"},
	{Name: "sched.dropped_ticks", Unit: "count", Better: "lower"},
	{Name: "sched.worker_utilization", Unit: "ratio", Better: "lower"},
	{Name: "lixto.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "lixto.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.allocs_per_tick", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_kb_per_tick", Unit: "KB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "ctl.register_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ctl.extract_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.delivery_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "tail.read304_p99_us", Unit: "us", Better: "lower"},
	{Name: "tail.read_jsongz_p50_us", Unit: "us", Better: "lower"},
	{Name: "tail.extract_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.register_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "upstream.render_us", Unit: "us", Better: "lower"},
	{Name: "upstream.dirty_node_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.reconcile_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.e2e_ratio", Unit: "ratio", Better: "lower"},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower"},
}

// perLayerUnits indexes perLayerMetrics by name.
var perLayerUnits = func() map[string]string {
	m := make(map[string]string, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		m[d.Name] = d.Unit
	}
	return m
}()
