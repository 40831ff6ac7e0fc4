package main

// The ledger: every workload and metric the benchmark reports, with the
// reason it exists. BENCHMARK.json lists the same names, units and bounds
// (ledger_test.go keeps the two in step); the prose that BENCHMARK.json's
// fixed schema has no room for lives here and is printed beside each value.

type workloadDef struct {
	name, why string
	run       func(*bench) error
}

var workloads = []workloadDef{
	{"sharded-bulk", "closed loop, 1 client: System.Run with Workers=nproc at n=1e5, lambda=gamma=4, sparse sampling, no checkpoints; core.Sharded and TileStore do the work, durability bypassed", (*bench).shardedBulk},
	{"sopsd-mixed", "closed loop, nproc HTTP clients, 1 job executor: jobs.Manager+Server on loopback, 90% n=200 run jobs, 10% 3x3 sweeps, followed over SSE; the only path through jobs, HTTP and runner", (*bench).sopsdMixed},
}

type e2eDef struct {
	name, unit, better string
	bound              float64
	what               string
}

// A "job" is the unit a user waits for: one sharded run on sharded-bulk,
// one sopsd job on sopsd-mixed. Every metric is reported on every workload.
var e2eMetrics = []e2eDef{
	{"setup_s", "s", "lower", 0.25, "median time to build a workload's starting state (System, or an open Manager serving HTTP), repeated within the run"},
	{"steps_per_s", "1/s", "higher", 0.25, "chain proposals per wall second, sampling and durability included (sopsd: all jobs' steps over the pass)"},
	{"accepted_per_s", "1/s", "higher", 0.25, "accepted moves and swaps per wall second (sopsd: run jobs only, counted by re-running each in process)"},
	{"peak_rss_mb", "MB", "lower", 0.15, "peak resident set size of the benchmark process"},
	{"jobs_per_s", "1/s", "higher", 0.25, "jobs completed per wall second (sharded-bulk: one client running jobs back to back, so the reciprocal of the median job time)"},
	{"job_p50_s", "s", "lower", 0.25, "median job latency (sopsd: submit until the client sees the terminal SSE frame)"},
	{"job_tail_s", "s", "lower", 0.25, "job latency at the highest percentile with at least 10 samples beyond it; the percentile and n are printed beside it"},
	{"ok_frac", "frac", "higher", 0.01, "1 - failed_frac: operations and output checks that succeeded over those attempted (failed_frac itself is 0 when healthy, which no bound can be a share of)"},
}

type layerDef struct {
	name, unit, better string
	// moves names the end-to-end metric and workload the layer metric
	// should move; flat names the workload where it is predicted not to.
	moves, flat string
}

// Layer metrics read 0 on a workload whose path does not reach the layer.
var layerMetrics = []layerDef{
	{"core.ns_per_step", "ns", "lower", "job_p50_s and steps_per_s on sopsd-mixed through run time", ""},
	{"core.busy_frac", "frac", "higher", "steps_per_s on sopsd-mixed", ""},
	{"core.accept_ratio", "frac", "higher", "accepted_per_s on sopsd-mixed", ""},
	{"sharded.lift_ms", "ms", "lower", "steps_per_s on sharded-bulk (paid per sharded Run); setup_s if moved into construction", "sopsd-mixed"},
	{"sharded.ns_per_step", "ns", "lower", "steps_per_s on sharded-bulk", "sopsd-mixed"},
	{"sharded.fold_ms", "ms", "lower", "steps_per_s on sharded-bulk", "sopsd-mixed"},
	{"sharded.accept_ratio", "frac", "higher", "accepted_per_s on sharded-bulk", "sopsd-mixed"},
	{"sharded.band_imbalance", "ratio", "lower", "steps_per_s on sharded-bulk", "sopsd-mixed"},
	{"sharded.speedup_vs_serial", "x", "higher", "steps_per_s on sharded-bulk", "sopsd-mixed"},
	{"metrics.capture_us", "us", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"metrics.captures", "count/op", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"metrics.capture_store_ms", "ms", "lower", "steps_per_s on sharded-bulk", "sopsd-mixed"},
	{"telemetry.offer_ns", "ns", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"telemetry.flush_ms", "ms", "lower", "none here: the daemon streams samples; cmd/sops pays it per run", "sharded-bulk"},
	{"telemetry.trace_bytes", "bytes", "lower", "none here: the size of the .sbt cmd/sops would write per run job", "sharded-bulk"},
	{"snapbin.encode_us", "us", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"snapbin.checkpoint_bytes", "bytes", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"seal.write_ms", "ms", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"seal.writes_per_mstep", "1/Mstep", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"fs.fsyncs", "count/op", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"fs.fsync_ms", "ms", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"fs.bytes_written", "bytes/op", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"jobs.queue_wait_ms", "ms", "lower", "job_tail_s on sopsd-mixed", "sharded-bulk"},
	{"jobs.run_ms", "ms", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"jobs.fsyncs_per_job", "count", "lower", "jobs_per_s on sopsd-mixed", "sharded-bulk"},
	{"jobs.retries", "count", "lower", "ok_frac on sopsd-mixed", "sharded-bulk"},
	{"http.submit_ms", "ms", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"http.terminal_lag_ms", "ms", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"http.sse_bytes_per_job", "bytes", "lower", "job_p50_s on sopsd-mixed", "sharded-bulk"},
	{"http.refused", "count", "lower", "ok_frac on sopsd-mixed", "sharded-bulk"},
	{"runner.cells_per_s", "1/s", "higher", "jobs_per_s on sopsd-mixed", "sharded-bulk"},
	{"go.alloc_bytes_per_mstep", "bytes/Mstep", "lower", "steps_per_s on sharded-bulk and sopsd-mixed", ""},
	{"go.gc_pause_ms", "ms/op", "lower", "steps_per_s on sharded-bulk and sopsd-mixed", ""},
	{"trace.overhead_frac", "frac", "lower", "none: the cost of this benchmark's own spans, per workload", ""},
}
