package main

// metric is one row of the benchmark's ledger. BENCHMARK.json carries name,
// unit and direction, and the bound of end-to-end rows. README.md holds the
// prediction for each per-layer row: which end-to-end metric it should move,
// on which workload.
//
// An end-to-end metric has two bounds because it is judged two ways. Bound
// is for medians over runs of different seeds, which is how the benchmark's
// driver compares a commit with its parent; it has to cover the spread
// between seeds. Paired is for -compare, which sets runs of the same seed
// side by side; the inputs cancel, so it can be as tight as the runner is
// steady.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Paired float64 // end-to-end only: share a same-seed pair may worsen by
}

// pairedBound is the metric's paired bound on one workload. A pinned
// workload's simulated results are a function of the seed alone; with
// placement decided by load at submit time they move a little with host
// timing.
func (m metric) pairedBound(w *workload) float64 {
	if m.Name == "sim_ttc_mean_s" && !w.pinned {
		return 0.02
	}
	return m.Paired
}

// endToEnd is what a user of the system sees. Every workload reports all of
// them, measured untraced.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Paired: 0.20},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.20, Paired: 0.10},
	{Name: "submit_done_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Paired: 0.20},
	{Name: "submit_done_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Paired: 0.20},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.15, Paired: 0.10},
	{Name: "allocs_per_job", Unit: "count", Better: "lower", Bound: 0.02, Paired: 0.02},
	{Name: "alloc_kb_per_job", Unit: "KB", Better: "lower", Bound: 0.10, Paired: 0.02},
	{Name: "retained_kb_per_job", Unit: "KB", Better: "lower", Bound: 0.06, Paired: 0.05},
	{Name: "sim_ttc_mean_s", Unit: "s", Better: "lower", Bound: 0.25, Paired: 0.001},
	{Name: "done_share", Unit: "share", Better: "higher", Bound: 0.001, Paired: 0},
}

// perLayer is the traced run's ledger, one or more rows per package of the
// program. Rows are read from outside the program: by timing bench's own
// calls into a layer's exported functions, and by counting at those calls.
var perLayer = []metric{
	{Name: "skeleton.generate_us_per_job", Unit: "us", Better: "lower"},
	{Name: "aimes.newenv_ms", Unit: "ms", Better: "lower"},
	{Name: "aimes.submit_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "aimes.admit_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "aimes.admit_wait_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "aimes.self_us_per_job", Unit: "us", Better: "lower"},
	{Name: "aimes.events_per_job", Unit: "count", Better: "lower"},
	{Name: "aimes.events_dropped_per_job", Unit: "count", Better: "lower"},
	{Name: "aimes.recorder_records_per_job", Unit: "count", Better: "lower"},
	{Name: "aimes.migrations_per_job", Unit: "count", Better: "lower"},
	{Name: "aimes.steal_vetoes_per_job", Unit: "count", Better: "lower"},
	{Name: "aimes.foreign_pumps_per_job", Unit: "count", Better: "lower"},
	{Name: "shard.pick_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "model.predict_ns", Unit: "ns", Better: "lower"},
	{Name: "model.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "model.rel_error_mean", Unit: "ratio", Better: "lower"},
	{Name: "core.derive_us_per_job", Unit: "us", Better: "lower"},
	{Name: "backend.local_enact_us_per_job", Unit: "us", Better: "lower"},
	{Name: "backend.local_step_us_per_job", Unit: "us", Better: "lower"},
	{Name: "backend.steps_per_job", Unit: "count", Better: "lower"},
	{Name: "backend.local_us_per_unit_n8", Unit: "us", Better: "lower"},
	{Name: "backend.local_us_per_unit_n2048", Unit: "us", Better: "lower"},
	{Name: "sim.events_per_job", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "sim.cancel_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.records_per_job", Unit: "count", Better: "lower"},
	{Name: "trace.record_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.qualify_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.qualify_allocs", Unit: "count", Better: "lower"},
	{Name: "trace.wire_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.wire_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.wire_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "netsim.ns_per_transfer_n64", Unit: "ns", Better: "lower"},
	{Name: "netsim.ns_per_transfer_n2048", Unit: "ns", Better: "lower"},
	{Name: "netsim.sim_events_per_transfer_n2048", Unit: "count", Better: "lower"},
	{Name: "batch.easy_select_us_q256", Unit: "us", Better: "lower"},
	{Name: "experiments.run_ms_n2048", Unit: "ms", Better: "lower"},
	{Name: "backend.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.enact_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "backend.step_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "backend.events_per_step", Unit: "count", Better: "higher"},
	{Name: "backend.round_trips_per_job", Unit: "count", Better: "lower"},
	{Name: "backend.wire_bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "backend.wire_self_us_per_job", Unit: "us", Better: "lower"},
	{Name: "server.submit_handler_us", Unit: "us", Better: "lower"},
	{Name: "server.get_handler_us", Unit: "us", Better: "lower"},
	{Name: "server.metrics_handler_us", Unit: "us", Better: "lower"},
	{Name: "server.sse_events_per_job", Unit: "count", Better: "lower"},
	{Name: "server.sse_bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "server.self_us_per_job", Unit: "us", Better: "lower"},
	{Name: "server.rejected_share", Unit: "share", Better: "lower"},
	{Name: "client.submit_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.wait_rtt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.requests_per_job", Unit: "count", Better: "lower"},
	{Name: "client.http_bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "bench.runner_speed", Unit: "ratio", Better: "higher"},
}
