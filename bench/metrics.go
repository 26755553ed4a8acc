package main

// metricDef is one reported metric. BENCHMARK.json lists the same names
// with the same units (bench_test.go holds the two in step); it adds the
// direction and, for end-to-end metrics, the regression bound.
type metricDef struct {
	name, unit string
}

// endToEnd metrics are measured untraced, on every workload. Each names
// something a user of the workload waits for or pays for; "job" is the
// workload's unit of requested work: a study (campaign-*), a submitted
// job (serve-mixed) or a leased chunk (coord-fleet).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
}

// perLayer metrics come from the traced run. A layer the workload does
// not drive reports 0.
var perLayer = []metricDef{
	// The traced run's own end-to-end numbers and its cost.
	{"trace.runs_per_s", "1/s"},
	{"trace.job_p50_ms", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.spans", "count"},
	// The host probe's median slowdown over the window: a raw measured
	// time is the reported one times host.slowdown.
	{"host.slowdown", "ratio"},
	// Workload-specific timings and counts that cannot be end-to-end
	// metrics because they do not exist on every workload, or read 0.
	{"fail_frac", "share"},
	{"job_samples", "count"},
	{"job_mean_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"hit_samples", "count"},
	{"miss_p50_ms", "ms"},
	{"miss_p99_ms", "ms"},
	{"miss_samples", "count"},
	{"runtime.gc_cpu_share", "share"},
	// scenario: assembly and the MPP solve behind it.
	{"scenario.assemble_us", "us"},
	{"scenario.assemble_share", "share"},
	// sim: the integrator, PV solves and discrete events of one run.
	{"sim.run_us", "us"},
	{"sim.run_share", "share"},
	{"sim.host_us_per_sim_s", "us"},
	{"sim.events_per_run", "count"},
	{"sim.host_ns_per_event", "ns"},
	// study/batch/stats run path: everything in Study.Run but the runs.
	{"study.overhead_share", "share"},
	{"study.retained_mb_per_1k_runs", "MB"},
	{"study.alloc_kb_per_run", "KB"},
	// study checkpoint codec and fold.
	{"study.checkpoint_bytes", "B"},
	{"study.checkpoint_encode_us", "us"},
	{"study.checkpoint_decode_us", "us"},
	{"study.fold_us", "us"},
	{"study.runchunk_ms", "ms"},
	// coord: leases, submissions, journal.
	{"coord.lease_rtt_ms", "ms"},
	{"coord.submit_rtt_ms", "ms"},
	{"coord.lease_handler_us", "us"},
	{"coord.submit_handler_ms", "ms"},
	{"coord.journal_append_us", "us"},
	{"coord.journal_append_nosync_us", "us"},
	{"coord.idle_leases_per_chunk", "count"},
	{"coord.idle_wait_share", "share"},
	{"coord.submit_accept_ratio", "ratio"},
	{"coord.span_coverage", "ratio"},
	// serve and the studycli recipe decoder.
	{"serve.submit_handler_us", "us"},
	{"serve.outcome_handler_us", "us"},
	{"serve.submit_http_us", "us"},
	{"serve.exec_ms", "ms"},
	{"serve.sched_late_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.cells_cached_ratio", "ratio"},
	{"serve.runs_simulated_per_job", "count"},
	{"serve.evictions", "count"},
	{"serve.refused", "count"},
	{"studycli.decode_build_us", "us"},
}
