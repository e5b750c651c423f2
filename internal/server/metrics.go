package server

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"aimes"
)

// metrics is the daemon's hand-rolled Prometheus registry: per-tenant job
// counters, a sliding completion-rate window, SSE drop accounting, and —
// rendered live at scrape time — the environment's per-shard load and
// work-stealing telemetry. No dependency on any client library; render
// emits the text exposition format directly.
type metrics struct {
	start time.Time

	mu      sync.Mutex
	tenants map[string]*tenantCounters
	// window holds recent job-completion timestamps; jobs/s is the count
	// inside the trailing rateWindow.
	window []time.Time

	sseJob, sseEnv sseCounters // the two kinds of SSE stream

	requests map[string]*histogram // request durations by route pattern
}

// sseCounters is what SSE streams wrote, added once per batch: events
// delivered, flushes (one per batch, so events/flushes is the batch size),
// body bytes, and events the trace log had evicted before a stream reached
// them.
type sseCounters struct{ events, flushes, bytes, dropped int64 }

type tenantCounters struct {
	submitted     int64
	completed     int64
	failed        int64
	canceled      int64
	rejected      int64 // quota 429s
	eventsDropped int64 // Job.EventsDropped, accumulated at completion
}

const rateWindow = 60 * time.Second

// requestBuckets bound the request-duration buckets, in seconds: from a fast
// reply to a long-poll's 30 s.
var requestBuckets = [...]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// histogram counts observations per bucket, the last past every bound.
type histogram struct {
	counts [len(requestBuckets) + 1]int64
	sum    float64
}

// timed wraps the daemon's mux to add each request's duration to the
// histogram of the route pattern it matched, but for event streams, which
// last as long as their job or subscriber: a streamed submit is observed by
// its stream, when the submission's answer is flushed (Server.openStream).
func (m *metrics) timed(mux http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		mux.ServeHTTP(w, r)
		if strings.HasSuffix(r.Pattern, "/events") || w.Header().Get("Content-Type") == "text/event-stream" {
			return
		}
		m.observe(r.Pattern, time.Since(start))
	})
}

// observe adds one request's duration to its route's histogram; a request
// that matched no route is left out.
func (m *metrics) observe(route string, d time.Duration) {
	if route == "" {
		return
	}
	sec := d.Seconds()
	i, _ := slices.BinarySearch(requestBuckets[:], sec) // the first bound sec does not exceed
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.requests[route]
	if h == nil {
		h = new(histogram)
		m.requests[route] = h
	}
	h.counts[i]++
	h.sum += sec
}

// processMetrics are the process's heap and goroutines, read at scrape time
// from runtime/metrics, which, unlike runtime.ReadMemStats, does not stop the
// world.
var processMetrics = [...]struct{ name, kind, sample, help string }{
	{"aimes_heap_objects_bytes", "gauge", "/memory/classes/heap/objects:bytes", "Heap bytes held by objects, live or not yet swept."},
	{"aimes_heap_allocs_bytes_total", "counter", "/gc/heap/allocs:bytes", "Bytes allocated on the heap since the process started."},
	{"aimes_gc_cycles_total", "counter", "/gc/cycles/total:gc-cycles", "Completed garbage-collection cycles."},
	{"aimes_goroutines", "gauge", "/sched/goroutines:goroutines", "Live goroutines."},
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), tenants: make(map[string]*tenantCounters), requests: make(map[string]*histogram)}
}

func (m *metrics) tenant(name string) *tenantCounters {
	tc := m.tenants[name]
	if tc == nil {
		tc = &tenantCounters{}
		m.tenants[name] = tc
	}
	return tc
}

func (m *metrics) submitted(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenant(tenant).submitted++
}

func (m *metrics) rejected(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenant(tenant).rejected++
}

// finished records a job reaching its terminal state.
func (m *metrics) finished(tenant string, state aimes.JobState, eventsDropped int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tc := m.tenant(tenant)
	switch state {
	case aimes.JobDone:
		tc.completed++
	case aimes.JobFailed:
		tc.failed++
	case aimes.JobCanceled:
		tc.canceled++
	}
	tc.eventsDropped += eventsDropped
	now := time.Now()
	m.window = append(m.window, now)
	m.pruneLocked(now)
}

func (m *metrics) pruneLocked(now time.Time) {
	cut := 0
	for cut < len(m.window) && now.Sub(m.window[cut]) > rateWindow {
		cut++
	}
	if cut > 0 {
		m.window = append(m.window[:0], m.window[cut:]...)
	}
}

func (m *metrics) addSSE(stream string, c sseCounters) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &m.sseJob
	if stream == "env" {
		t = &m.sseEnv
	}
	t.events += c.events
	t.flushes += c.flushes
	t.bytes += c.bytes
	t.dropped += c.dropped
}

// render writes the full exposition. env supplies live per-shard state and
// steal counters; inflight is the registry's live-job count per tenant, held
// its count of records.
func (m *metrics) render(w io.Writer, env *aimes.Environment, inflight map[string]int, held int) {
	m.mu.Lock()
	now := time.Now()
	m.pruneLocked(now)
	rate := float64(len(m.window)) / rateWindow.Seconds()
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	snap := make(map[string]tenantCounters, len(names))
	for _, name := range names {
		snap[name] = *m.tenants[name]
	}
	sseJob, sseEnv := m.sseJob, m.sseEnv
	routes := slices.Sorted(maps.Keys(m.requests))
	requests := make([]histogram, len(routes))
	for i, route := range routes {
		requests[i] = *m.requests[route]
	}
	uptime := now.Sub(m.start).Seconds()
	m.mu.Unlock()

	counter := func(metric, help string, value func(tenantCounters) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", metric, help, metric)
		for _, name := range names {
			fmt.Fprintf(w, "%s{tenant=\"%s\"} %d\n", metric, labelEscape(name), value(snap[name]))
		}
	}

	fmt.Fprintf(w, "# HELP aimes_uptime_seconds Daemon uptime.\n# TYPE aimes_uptime_seconds gauge\naimes_uptime_seconds %g\n", uptime)
	samples := make([]rtmetrics.Sample, len(processMetrics))
	for i, pm := range processMetrics {
		samples[i].Name = pm.sample
	}
	rtmetrics.Read(samples)
	for i, pm := range processMetrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", pm.name, pm.help, pm.name, pm.kind, pm.name, samples[i].Value.Uint64())
	}

	counter("aimes_jobs_submitted_total", "Jobs admitted, per tenant.", func(c tenantCounters) int64 { return c.submitted })
	counter("aimes_jobs_completed_total", "Jobs finished successfully, per tenant.", func(c tenantCounters) int64 { return c.completed })
	counter("aimes_jobs_failed_total", "Jobs that failed, per tenant.", func(c tenantCounters) int64 { return c.failed })
	counter("aimes_jobs_canceled_total", "Jobs canceled, per tenant.", func(c tenantCounters) int64 { return c.canceled })
	counter("aimes_jobs_rejected_total", "Submissions rejected at admission (quota), per tenant.", func(c tenantCounters) int64 { return c.rejected })
	counter("aimes_job_events_dropped_total", "Job events that readers found already evicted from the shard's trace log (its most recent 2^20 records), accumulated at job completion, per tenant.", func(c tenantCounters) int64 { return c.eventsDropped })

	fmt.Fprintf(w, "# HELP aimes_jobs_inflight Live (non-final) jobs, per tenant.\n# TYPE aimes_jobs_inflight gauge\n")
	for _, name := range names {
		fmt.Fprintf(w, "aimes_jobs_inflight{tenant=\"%s\"} %d\n", labelEscape(name), inflight[name])
	}

	fmt.Fprintf(w, "# HELP aimes_registry_jobs Jobs the registry holds for reattach, live and finished; finished ones are evicted oldest first beyond the retention bound.\n# TYPE aimes_registry_jobs gauge\naimes_registry_jobs %d\n", held)

	fmt.Fprintf(w, "# HELP aimes_jobs_per_second Job completions per second over the trailing %s.\n# TYPE aimes_jobs_per_second gauge\naimes_jobs_per_second %g\n", rateWindow, rate)

	loads := env.Loads()
	shardGauge := func(metric, help string, value func(aimes.ShardLoad) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", metric, help, metric)
		for _, l := range loads {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %s\n", metric, l.Shard, value(l))
		}
	}
	shardGauge("aimes_shard_running", "Enacted, unfinished jobs per shard.",
		func(l aimes.ShardLoad) string { return fmt.Sprintf("%d", l.Running) })
	shardGauge("aimes_shard_queue_depth", "Jobs queued awaiting admission per shard.",
		func(l aimes.ShardLoad) string { return fmt.Sprintf("%d", l.Queued) })
	shardGauge("aimes_shard_effective_load_seconds", "Weighted effective load per shard (estimated seconds to drain).",
		func(l aimes.ShardLoad) string { return fmt.Sprintf("%g", l.Load) })
	shardGauge("aimes_model_predicted_cost", "Cost model's predicted completion (virtual seconds) of one more typical job per shard.",
		func(l aimes.ShardLoad) string { return fmt.Sprintf("%g", l.PredictedCost) })
	shardGauge("aimes_model_rel_error", "Cost model's EWMA of relative prediction error per shard.",
		func(l aimes.ShardLoad) string { return fmt.Sprintf("%g", l.ModelError) })
	shardGauge("aimes_trace_retained_records", "Trace records the shard's retention-bounded log holds now; with aimes_trace_dropped_total, every record the shard appended.",
		func(l aimes.ShardLoad) string { return fmt.Sprintf("%d", l.TraceRetained) })
	shardCounter := func(metric, help string, value func(aimes.ShardLoad) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", metric, help, metric)
		for _, l := range loads {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", metric, l.Shard, value(l))
		}
	}
	shardCounter("aimes_trace_dropped_total", "Trace records evicted from the shard's retention-bounded log.",
		func(l aimes.ShardLoad) int64 { return l.TraceDropped })
	shardCounter("aimes_wire_round_trips_total", "Request/response exchanges with the shard's worker (0 on local shards).",
		func(l aimes.ShardLoad) int64 { return l.Wire.RoundTrips })
	fmt.Fprintf(w, "# HELP aimes_wire_bytes_total Frame bytes exchanged with the shard's worker, by direction from this process (0 on local shards).\n# TYPE aimes_wire_bytes_total counter\n")
	for _, l := range loads {
		fmt.Fprintf(w, "aimes_wire_bytes_total{shard=\"%d\",direction=\"sent\"} %d\n", l.Shard, l.Wire.BytesSent)
		fmt.Fprintf(w, "aimes_wire_bytes_total{shard=\"%d\",direction=\"received\"} %d\n", l.Shard, l.Wire.BytesReceived)
	}
	shardCounter("aimes_wire_events_total", "Trace records and completions the shard's worker delivered (0 on local shards).",
		func(l aimes.ShardLoad) int64 { return l.Wire.Events })

	steal := env.StealStats()
	fmt.Fprintf(w, "# HELP aimes_steal_migrations_total Queued jobs migrated across shards by work stealing.\n# TYPE aimes_steal_migrations_total counter\naimes_steal_migrations_total %d\n", steal.Migrations)
	fmt.Fprintf(w, "# HELP aimes_steal_vetoed_total Migration candidates the pending-cost rule refused under the submission lock after a concurrent reservation took the margin its pre-check saw.\n# TYPE aimes_steal_vetoed_total counter\naimes_steal_vetoed_total %d\n", steal.Vetoed)
	fmt.Fprintf(w, "# HELP aimes_steal_foreign_pumps_total Pump batches run on behalf of other shards' jobs.\n# TYPE aimes_steal_foreign_pumps_total counter\naimes_steal_foreign_pumps_total %d\n", steal.ForeignPumps)

	fleet := env.Fleet()
	fmt.Fprintf(w, "# HELP aimes_worker_restarts_total Worker respawns placed across the fleet.\n# TYPE aimes_worker_restarts_total counter\naimes_worker_restarts_total %d\n", fleet.Restarts)
	fmt.Fprintf(w, "# HELP aimes_jobs_replayed_total Queued descriptors replayed onto respawned workers.\n# TYPE aimes_jobs_replayed_total counter\naimes_jobs_replayed_total %d\n", fleet.Replayed)
	if len(fleet.Endpoints) > 0 {
		bit := func(b bool) int {
			if b {
				return 1
			}
			return 0
		}
		fmt.Fprintf(w, "# HELP aimes_endpoint_unhealthy Whether the fleet endpoint's last dial or liveness probe failed.\n# TYPE aimes_endpoint_unhealthy gauge\n")
		for _, ep := range fleet.Endpoints {
			fmt.Fprintf(w, "aimes_endpoint_unhealthy{endpoint=\"%s\"} %d\n", labelEscape(ep.Name), bit(ep.Unhealthy))
		}
		fmt.Fprintf(w, "# HELP aimes_endpoint_cordoned Whether the fleet endpoint is cordoned against placements.\n# TYPE aimes_endpoint_cordoned gauge\n")
		for _, ep := range fleet.Endpoints {
			fmt.Fprintf(w, "aimes_endpoint_cordoned{endpoint=\"%s\"} %d\n", labelEscape(ep.Name), bit(ep.Cordoned))
		}
		fmt.Fprintf(w, "# HELP aimes_endpoint_shards Live worker shards hosted per fleet endpoint.\n# TYPE aimes_endpoint_shards gauge\n")
		for _, ep := range fleet.Endpoints {
			fmt.Fprintf(w, "aimes_endpoint_shards{endpoint=\"%s\"} %d\n", labelEscape(ep.Name), ep.Shards)
		}
		fmt.Fprintf(w, "# HELP aimes_endpoint_probe_failures_total Failed liveness probes per fleet endpoint.\n# TYPE aimes_endpoint_probe_failures_total counter\n")
		for _, ep := range fleet.Endpoints {
			fmt.Fprintf(w, "aimes_endpoint_probe_failures_total{endpoint=\"%s\"} %d\n", labelEscape(ep.Name), ep.ProbeFailures)
		}
	}

	sse := func(metric, help string, value func(sseCounters) int64) {
		fmt.Fprintf(w, "# HELP %s %s, by stream kind.\n# TYPE %s counter\n", metric, help, metric)
		fmt.Fprintf(w, "%s{stream=\"job\"} %d\n%s{stream=\"env\"} %d\n", metric, value(sseJob), metric, value(sseEnv))
	}
	sse("aimes_sse_events_total", "Events written to SSE streams", func(c sseCounters) int64 { return c.events })
	sse("aimes_sse_flushes_total", "Writes to SSE streams, each one batch of events encoded, written and flushed together", func(c sseCounters) int64 { return c.flushes })
	sse("aimes_sse_bytes_total", "Body bytes written to SSE streams", func(c sseCounters) int64 { return c.bytes })
	sse("aimes_sse_dropped_total", "Events SSE streams could not deliver because the trace log had evicted them (replay of an old job, or a consumer a whole retention window behind)", func(c sseCounters) int64 { return c.dropped })

	const hist = "aimes_http_request_duration_seconds"
	fmt.Fprintf(w, "# HELP %s Time to serve one request, by route pattern (the SSE streams are not timed).\n# TYPE %s histogram\n", hist, hist)
	for i, route := range routes {
		h, label := requests[i], labelEscape(route)
		var n int64
		for b, le := range requestBuckets {
			n += h.counts[b]
			fmt.Fprintf(w, "%s_bucket{route=\"%s\",le=\"%g\"} %d\n", hist, label, le, n)
		}
		n += h.counts[len(requestBuckets)]
		fmt.Fprintf(w, "%s_bucket{route=\"%s\",le=\"+Inf\"} %d\n%s_sum{route=\"%s\"} %g\n%s_count{route=\"%s\"} %d\n",
			hist, label, n, hist, label, h.sum, hist, label, n)
	}
}

// labelEscape escapes a Prometheus label value (backslash, quote, newline).
// Tenant names are already restricted to a safe alphabet; this is defense
// in depth.
func labelEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}
