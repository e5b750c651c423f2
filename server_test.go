// Service-tier battery: HTTP-vs-in-process report parity on both backends,
// tenant quota enforcement with /metrics accounting, reattach-by-job-ID
// after a client disconnect, and graceful drain. Every test drives a real
// HTTP server (httptest over a loopback socket) through the public client
// package — nothing reaches around the wire.
package aimes_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aimes"
	"aimes/client"
	"aimes/internal/batch"
	"aimes/internal/server"
)

// testDaemon stands up a server over env with one unlimited tenant per
// entry of tokens (token → tenant name), on a real loopback HTTP listener.
func testDaemon(t *testing.T, env *aimes.Environment, tenants map[string]server.Tenant) (*server.Server, *httptest.Server) {
	t.Helper()
	auth, err := server.NewAuth(tenants)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Env: env, Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, hs
}

// parityWorkloads generates the seeded workload mix once and freezes it as
// interchange JSON — the exact bytes both the HTTP and the in-process leg
// parse, so float-second duration rounding cannot split the legs.
func parityWorkloads(t *testing.T, nShards, perShard int) [][]byte {
	t.Helper()
	var out [][]byte
	for k := 0; k < nShards; k++ {
		for i := 0; i < perShard; i++ {
			w, err := aimes.GenerateWorkload(
				aimes.BagOfTasks(8+4*i, aimes.UniformDuration()), int64(1000*k+i))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := w.WriteMiddlewareJSON(&buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf.Bytes())
		}
	}
	return out
}

var parityCfgs = []aimes.StrategyConfig{
	{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2},
	{Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1},
}

// runServerParity submits the frozen workloads through the HTTP client —
// pinned per shard, in the same per-shard order as the in-process leg —
// waits concurrently, and returns the outcomes in submission order.
func runServerParity(t *testing.T, workloads [][]byte, nShards, perShard int, opts ...aimes.Option) []jobOutcome {
	t.Helper()
	env, err := aimes.NewEnv(append([]aimes.Option{aimes.WithSeed(20260728)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	_, hs := testDaemon(t, env, map[string]server.Tenant{
		"parity-token": {Name: "parity"},
	})
	c := client.New(hs.URL, "parity-token")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var ids []string
	for k := 0; k < nShards; k++ {
		for i := 0; i < perShard; i++ {
			info, err := c.SubmitRaw(ctx, &client.SubmitRequest{
				Workload:  workloads[k*perShard+i],
				Config:    parityCfgs[i%len(parityCfgs)],
				Placement: "pinned",
				Shard:     k,
			})
			if err != nil {
				t.Fatalf("submit shard %d job %d: %v", k, i, err)
			}
			ids = append(ids, info.ID)
		}
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := c.Wait(ctx, id); err != nil {
				t.Errorf("wait %s: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	var out []jobOutcome
	for _, id := range ids {
		info, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if !info.Final || info.State != "done" {
			t.Fatalf("job %s finished %q (%s)", id, info.State, info.Error)
		}
		out = append(out, jobOutcome{Namespace: info.Namespace, Shard: info.Shard, Report: info.Report})
	}
	return out
}

// runInProcessParity is the control leg: the same frozen workloads, same
// seed, same pinned per-shard order, submitted through the library.
func runInProcessParity(t *testing.T, workloads [][]byte, nShards, perShard int, opts ...aimes.Option) []jobOutcome {
	t.Helper()
	env, err := aimes.NewEnv(append([]aimes.Option{aimes.WithSeed(20260728)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	var jobs []*aimes.Job
	for k := 0; k < nShards; k++ {
		for i := 0; i < perShard; i++ {
			w, err := aimes.ParseWorkloadJSON(bytes.NewReader(workloads[k*perShard+i]))
			if err != nil {
				t.Fatal(err)
			}
			j, err := env.Submit(context.Background(), w, aimes.JobConfig{
				StrategyConfig: parityCfgs[i%len(parityCfgs)],
				Placement:      aimes.PlacePinned, Shard: k,
			})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *aimes.Job) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			if _, err := j.Wait(ctx); err != nil {
				t.Errorf("job %d: %v", j.ID(), err)
			}
		}(j)
	}
	wg.Wait()
	var out []jobOutcome
	for _, j := range jobs {
		out = append(out, jobOutcome{Namespace: j.Namespace(), Shard: j.Shard(), Report: j.Report()})
	}
	return out
}

// TestServerParity is the service tier's acceptance gate: a workload
// submitted through the HTTP client — serialized to interchange JSON,
// admitted by the daemon, report round-tripped through response JSON —
// must be DeepEqual to the same seed/config submitted in-process, on the
// local backend and on worker processes.
func TestServerParity(t *testing.T) {
	const nShards, perShard = 3, 2
	workloads := parityWorkloads(t, nShards, perShard)
	inproc := runInProcessParity(t, workloads, nShards, perShard, aimes.WithShards(nShards))
	backends := []struct {
		name string
		opts []aimes.Option
	}{
		{"local", []aimes.Option{aimes.WithShards(nShards)}},
		{"worker", processWorkers(nShards)},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			if be.name == "worker" && testing.Short() {
				t.Skip("spawns worker processes")
			}
			got := runServerParity(t, workloads, nShards, perShard, be.opts...)
			if len(got) != len(inproc) {
				t.Fatalf("HTTP leg ran %d jobs, in-process %d", len(got), len(inproc))
			}
			for i := range inproc {
				if inproc[i].Namespace != got[i].Namespace {
					t.Errorf("job %d: namespace %q (in-process) vs %q (HTTP)", i+1, inproc[i].Namespace, got[i].Namespace)
				}
				if inproc[i].Shard != got[i].Shard {
					t.Errorf("job %d: shard %d (in-process) vs %d (HTTP)", i+1, inproc[i].Shard, got[i].Shard)
				}
				if !reflect.DeepEqual(inproc[i].Report, got[i].Report) {
					t.Errorf("job %d: reports diverge across the wire:\nin-process: %+v\nHTTP:       %+v",
						i+1, *inproc[i].Report, *got[i].Report)
				}
			}
		})
	}
}

// fastRealtimeEnv builds a wall-clock environment with millisecond-scale
// pilot waits, so a 60-second task deterministically stays in flight for
// the duration of a quota test.
func fastRealtimeEnv(t *testing.T) *aimes.Environment {
	t.Helper()
	site := func(name string) aimes.SiteConfig {
		return aimes.SiteConfig{
			Name: name, Nodes: 8, CoresPerNode: 4, Architecture: "beowulf",
			WaitModel: batch.WaitModel{
				MedianWait: 30 * time.Millisecond, Sigma: 0.4,
				MinWait: 10 * time.Millisecond, MaxWait: 150 * time.Millisecond,
			},
			SubmitLatency: 2 * time.Millisecond,
			BandwidthMBps: 1000, NetLatency: time.Millisecond, StorageGB: 10,
		}
	}
	env, err := aimes.NewEnv(
		aimes.WithRealTime(),
		aimes.WithSeed(7),
		aimes.WithSites(site("left"), site("right")),
	)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func longWorkload(t *testing.T, name string, seed int64) *aimes.Workload {
	t.Helper()
	w, err := aimes.GenerateWorkload(aimes.AppSpec{
		Name: name,
		Stages: []aimes.StageSpec{{
			Name: "main", Tasks: 1, DurationS: aimes.ConstantSpec(60),
		}},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestServerExposesWireCounters: on a worker backend /metrics carries each
// shard's wire counters — round trips, frame bytes each way, events — as
// Loads reports them, and a local shard's are zero.
func TestServerExposesWireCounters(t *testing.T) {
	addr, secret := tcpWorkerHost(t)
	env, err := aimes.NewEnv(tcpWorkers(1, addr, secret)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	_, hs := testDaemon(t, env, map[string]server.Tenant{"token-w": {Name: "wire"}})
	c := client.New(hs.URL, "token-w")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(16, aimes.UniformDuration()), 5)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(ctx, w, client.SubmitOptions{Config: parityCfgs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	// The shard may still be finishing its last Step when Wait returns.
	var st aimes.WireStats
	var page string
	for i := 0; ; i++ {
		st = env.Loads()[0].Wire
		if page, err = c.Metrics(ctx); err != nil {
			t.Fatal(err)
		}
		if env.Loads()[0].Wire == st || i == 100 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.RoundTrips < 2 || st.Events < 16 || st.BytesSent == 0 || st.BytesReceived <= st.BytesSent {
		t.Fatalf("a 16-task job over a worker shard counted %+v", st)
	}
	for _, want := range []string{
		fmt.Sprintf(`aimes_wire_round_trips_total{shard="0"} %d`, st.RoundTrips),
		fmt.Sprintf(`aimes_wire_bytes_total{shard="0",direction="sent"} %d`, st.BytesSent),
		fmt.Sprintf(`aimes_wire_bytes_total{shard="0",direction="received"} %d`, st.BytesReceived),
		fmt.Sprintf(`aimes_wire_events_total{shard="0"} %d`, st.Events),
	} {
		if !strings.Contains(page, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}

	local, err := aimes.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if st := local.Loads()[0].Wire; st != (aimes.WireStats{}) {
		t.Errorf("a local shard counted wire traffic: %+v", st)
	}
}

// TestServerQuotaAndMetrics is the multi-tenancy acceptance gate: two
// tenants with quota 1 each; tenant A's second submission is rejected with
// 429 while tenant B's is admitted, and /metrics reflects the per-tenant
// counters. Runs on the wall clock so the first job provably stays
// in flight across the second submission.
func TestServerQuotaAndMetrics(t *testing.T) {
	env := fastRealtimeEnv(t)
	_, hs := testDaemon(t, env, map[string]server.Tenant{
		"token-a": {Name: "alice", Quota: server.Quota{MaxInFlight: 1}},
		"token-b": {Name: "bob", Quota: server.Quota{MaxInFlight: 1}},
	})
	alice := client.New(hs.URL, "token-a")
	bob := client.New(hs.URL, "token-b")
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	a1, err := alice.Submit(ctx, longWorkload(t, "a1", 1), client.SubmitOptions{Config: cfg})
	if err != nil {
		t.Fatalf("alice job 1: %v", err)
	}
	_, err = alice.Submit(ctx, longWorkload(t, "a2", 2), client.SubmitOptions{Config: cfg})
	if !client.IsQuotaError(err) {
		t.Fatalf("alice job 2: want a 429 quota rejection, got %v", err)
	}
	if !strings.Contains(err.Error(), "alice") || !strings.Contains(err.Error(), "quota") {
		t.Errorf("quota error does not name tenant and cause: %v", err)
	}
	b1, err := bob.Submit(ctx, longWorkload(t, "b1", 3), client.SubmitOptions{Config: cfg})
	if err != nil {
		t.Fatalf("bob's job must be admitted while alice is over quota: %v", err)
	}

	metrics, err := alice.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`aimes_jobs_submitted_total{tenant="alice"} 1`,
		`aimes_jobs_submitted_total{tenant="bob"} 1`,
		`aimes_jobs_rejected_total{tenant="alice"} 1`,
		`aimes_jobs_rejected_total{tenant="bob"} 0`,
		`aimes_jobs_inflight{tenant="alice"} 1`,
		`aimes_jobs_inflight{tenant="bob"} 1`,
		"\naimes_registry_jobs 2\n",
		`aimes_shard_running{shard="0"}`,
		`aimes_trace_retained_records{shard="0"}`,
		`aimes_steal_migrations_total 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q\n%s", want, metrics)
		}
	}
	process := processMetrics(t, metrics)
	runtime.GC() // the daemon is this process: its GC counter must move
	// Every submission so far, the refused one too, took one POST /v1/jobs.
	if submits := requestCount(t, metrics, "POST /v1/jobs"); submits != 3 {
		t.Errorf("POST /v1/jobs histogram counts %g requests, want 3", submits)
	}

	// A tenant cannot see, cancel or wait on another tenant's job.
	if _, err := bob.Job(ctx, a1.ID); err == nil {
		t.Error("bob read alice's job")
	}
	if _, err := bob.Cancel(ctx, a1.ID, "mine now"); err == nil {
		t.Error("bob canceled alice's job")
	}

	// Unknown tokens are rejected outright.
	if _, err := client.New(hs.URL, "wrong").List(ctx); err == nil {
		t.Error("unknown token accepted")
	}

	// Clean up: cancel both, and verify the terminal counters land.
	for _, tc := range []struct {
		c  *client.Client
		id string
	}{{alice, a1.ID}, {bob, b1.ID}} {
		if _, err := tc.c.Cancel(ctx, tc.id, "test over"); err != nil {
			t.Fatal(err)
		}
		// Mirroring in-process Wait, a canceled job yields its
		// canceled-units report with a nil error; the state says the rest.
		report, err := tc.c.Wait(ctx, tc.id)
		if err != nil {
			t.Fatalf("wait on canceled job: %v", err)
		}
		if report == nil || report.UnitsCanceled == 0 {
			t.Fatalf("canceled job's report does not account canceled units: %+v", report)
		}
		info, err := tc.c.Job(ctx, tc.id)
		if err != nil || info.State != "canceled" {
			t.Fatalf("canceled job state %q (%v)", info.State, err)
		}
	}
	metrics, err = alice.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`aimes_jobs_canceled_total{tenant="alice"} 1`,
		`aimes_jobs_canceled_total{tenant="bob"} 1`,
		`aimes_jobs_inflight{tenant="alice"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q after cancel\n%s", want, metrics)
		}
	}
	later := processMetrics(t, metrics)
	for _, counter := range []string{"aimes_heap_allocs_bytes_total", "aimes_gc_cycles_total"} {
		if later[counter] < process[counter] {
			t.Errorf("%s fell from %g to %g", counter, process[counter], later[counter])
		}
	}
	if later["aimes_gc_cycles_total"] == process["aimes_gc_cycles_total"] {
		t.Errorf("aimes_gc_cycles_total stayed at %g across a runtime.GC", later["aimes_gc_cycles_total"])
	}
	for _, gauge := range []string{"aimes_heap_objects_bytes", "aimes_goroutines"} {
		if later[gauge] <= 0 {
			t.Errorf("%s = %g", gauge, later[gauge])
		}
	}

	// After quota frees up, alice can submit again — and cancel it to
	// leave the daemon idle for shutdown.
	a3, err := alice.Submit(ctx, longWorkload(t, "a3", 4), client.SubmitOptions{Config: cfg})
	if err != nil {
		t.Fatalf("alice under quota again: %v", err)
	}
	if _, err := alice.Cancel(ctx, a3.ID, "test over"); err != nil {
		t.Fatal(err)
	}
	alice.Wait(ctx, a3.ID)
	if metrics, err = alice.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	if submits := requestCount(t, metrics, "POST /v1/jobs"); submits != 4 {
		t.Errorf("POST /v1/jobs histogram counts %g requests after a fourth submission, want 4", submits)
	}
	if waits := requestCount(t, metrics, "GET /v1/jobs/{id}"); waits < 3 {
		t.Errorf("GET /v1/jobs/{id} histogram counts %g requests, want at least the 3 waits made", waits)
	}
}

// requestCount reads route's request-duration histogram off a /metrics page
// and returns its count, failing the test unless the buckets are cumulative
// and the +Inf one holds the count.
func requestCount(t *testing.T, page, route string) float64 {
	t.Helper()
	const hist = "aimes_http_request_duration_seconds"
	label := `{route="` + route + `"`
	var buckets []float64
	count := -1.0
	for _, line := range strings.Split(page, "\n") {
		name, rest, ok := strings.Cut(line, label)
		if !ok {
			continue
		}
		_, value, _ := strings.Cut(rest, "} ")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		switch name {
		case hist + "_bucket":
			if len(buckets) > 0 && v < buckets[len(buckets)-1] {
				t.Errorf("%s buckets are not cumulative: %q follows %g", route, line, buckets[len(buckets)-1])
			}
			buckets = append(buckets, v)
		case hist + "_count":
			count = v
		}
	}
	if len(buckets) < 2 || count < 0 || !strings.Contains(page, hist+"_bucket"+label+`,le="+Inf"} `+strconv.FormatFloat(count, 'g', -1, 64)+"\n") {
		t.Fatalf("/metrics has no histogram for %s whose +Inf bucket equals its count %g\n%s", route, count, page)
	}
	return count
}

// processMetrics reads the process's heap, GC and goroutine metrics off a
// /metrics page, failing the test for each one missing.
func processMetrics(t *testing.T, page string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, name := range []string{"aimes_heap_objects_bytes", "aimes_heap_allocs_bytes_total", "aimes_gc_cycles_total", "aimes_goroutines"} {
		for _, line := range strings.Split(page, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("/metrics line %q: %v", line, err)
				}
				out[name] = f
			}
		}
		if _, ok := out[name]; !ok {
			t.Errorf("/metrics lacks %s\n%s", name, page)
		}
	}
	return out
}

// TestServerResubmitAfterWait is the regression test for accounting that
// trailed the answer: Wait returned as soon as the job was done, but the
// tenant's quota slot and counters were released later, by a registry
// goroutine, so a client that resubmitted at once could be refused on its
// own finished job. Whoever reports the end now settles it first.
func TestServerResubmitAfterWait(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(20260928))
	if err != nil {
		t.Fatal(err)
	}
	_, hs := testDaemon(t, env, map[string]server.Tenant{
		"token": {Name: "solo", Quota: server.Quota{MaxInFlight: 1}},
	})
	c := client.New(hs.URL, "token")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(8, aimes.UniformDuration()), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}

	const rounds = 200
	for i := 1; i <= rounds; i++ {
		info, err := c.Submit(ctx, w, client.SubmitOptions{Config: cfg})
		if err != nil {
			t.Fatalf("submission %d, right after the previous job's Wait returned: %v", i, err)
		}
		if _, err := c.Wait(ctx, info.ID); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if i%20 != 0 {
			continue
		}
		metrics, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf(`aimes_jobs_completed_total{tenant="solo"} %d`, i),
			`aimes_jobs_inflight{tenant="solo"} 0`,
			`aimes_jobs_rejected_total{tenant="solo"} 0`,
		} {
			if !strings.Contains(metrics, want) {
				t.Fatalf("/metrics read right after Wait %d misses %q\n%s", i, want, metrics)
			}
		}
	}
}

// TestServerReattach covers the disconnect/reconnect contract: a client
// that walks away mid-run can come back with nothing but the job ID, renew
// its event stream from the shard's trace log (by sequence number) and still
// collect the final report.
func TestServerReattach(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(99), aimes.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	_, hs := testDaemon(t, env, map[string]server.Tenant{"tok": {Name: "roamer"}})
	c := client.New(hs.URL, "tok")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(64, aimes.UniformDuration()), 5)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Submit(ctx, w, client.SubmitOptions{
		Config: aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	// First connection: stream a few live events, then vanish.
	stream, err := c.Events(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for ev := range stream.C {
		if ev.Job != info.ID {
			t.Fatalf("event for job %q on job %q's stream", ev.Job, info.ID)
		}
		if seen++; seen >= 3 {
			break
		}
	}
	if seen < 3 {
		t.Fatalf("stream ended after %d events (err %v)", seen, stream.Err())
	}
	stream.Close() // the "disconnect"

	// Second connection: nothing but the ID. Wait long-polls to the report.
	report, err := c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if report == nil || report.UnitsDone != 64 {
		t.Fatalf("reattached report: %+v", report)
	}

	// Third connection: replay the whole finished stream. Sequence numbers
	// must be contiguous from 1 (the log retains the whole job), and the terminal
	// "done" event must carry the same report.
	replay, err := c.Events(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for ev := range replay.C {
		if ev.Seq != last+1 {
			t.Fatalf("replay gap: event %d follows %d", ev.Seq, last)
		}
		last = ev.Seq
	}
	if replay.Err() != nil {
		t.Fatalf("replay stream: %v", replay.Err())
	}
	if last < 3 {
		t.Fatalf("replay delivered only %d events", last)
	}
	if replay.Dropped() != 0 {
		t.Fatalf("replay claims %d dropped events", replay.Dropped())
	}
	final := replay.Final()
	if final == nil || !final.Final || final.State != "done" {
		t.Fatalf("replay final snapshot: %+v", final)
	}
	if !reflect.DeepEqual(final.Report, report) {
		t.Fatalf("done-event report diverges from Wait report:\ndone: %+v\nwait: %+v", final.Report, report)
	}

	// The registry retains the job: a fourth connection still reads it.
	again, err := c.Job(ctx, info.ID)
	if err != nil || !again.Final {
		t.Fatalf("retained job lookup: %+v, %v", again, err)
	}
	list, err := c.List(ctx)
	if err != nil || len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("list: %+v, %v", list, err)
	}
}

// TestServerDrain covers graceful shutdown: in-flight jobs run to
// completion during Shutdown, and new submissions are refused with 503.
func TestServerDrain(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(11), aimes.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	srv, hs := testDaemon(t, env, map[string]server.Tenant{"tok": {Name: "drainer"}})
	c := client.New(hs.URL, "tok")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	var ids []string
	for i := 0; i < 4; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(32, aimes.UniformDuration()), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		info, err := c.Submit(ctx, w, client.SubmitOptions{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}

	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Every in-flight job drained to done — reports are still served.
	for _, id := range ids {
		info, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != "done" || info.Report == nil {
			t.Fatalf("job %s after drain: %q report=%v (%s)", id, info.State, info.Report != nil, info.Error)
		}
		if info.Report.UnitsDone != 32 {
			t.Fatalf("job %s drained with %d/32 units", id, info.Report.UnitsDone)
		}
	}
	// New work is refused while/after draining.
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(8, aimes.UniformDuration()), 9)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, w, client.SubmitOptions{Config: cfg})
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != 503 {
		t.Fatalf("submit during drain: want 503, got %v", err)
	}
	if !strings.Contains(err.Error(), "draining") {
		t.Fatalf("drain rejection not descriptive: %v", err)
	}
}

// TestServerReplayWholeJob: the events of a job are stored once, in its
// shard's trace log, so a job that finished with no stream attached replays
// whole — a 2048-task job logs some twenty thousand events, twenty times what
// a per-job replay ring used to keep — and a raw reconnect resumes after the
// Last-Event-ID it sends.
func TestServerReplayWholeJob(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(2048), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	_, hs := testDaemon(t, env, map[string]server.Tenant{"tok": {Name: "late"}})
	c := client.New(hs.URL, "tok")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(2048, aimes.UniformDuration()), 3)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Submit(ctx, w, client.SubmitOptions{
		Config: aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Wait(ctx, info.ID)
	if err != nil || report.UnitsDone != 2048 {
		t.Fatalf("job: %+v, %v", report, err)
	}

	replay, err := c.Events(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for ev := range replay.C {
		if ev.Seq != last+1 {
			t.Fatalf("replay gap: event %d follows %d", ev.Seq, last)
		}
		last = ev.Seq
	}
	if replay.Err() != nil || replay.Dropped() != 0 {
		t.Fatalf("replay ended with error %v, %d dropped", replay.Err(), replay.Dropped())
	}
	if last < 4*2048 {
		t.Fatalf("replay delivered %d events; a 2048-task job logs several per task", last)
	}
	if fin := replay.Final(); fin == nil || !reflect.DeepEqual(fin.Report, report) || fin.EventsDropped != 0 {
		t.Fatalf("replay final snapshot: %+v", fin)
	}

	// A bare SSE reconnect: the header alone says where to resume.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/jobs/"+info.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer tok")
	req.Header.Set("Last-Event-ID", "40")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	first, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || first != "id: 41\n" {
		t.Fatalf("stream resumed after Last-Event-ID 40 starts with %q (%v), want \"id: 41\"", first, err)
	}
	if again, err := c.Job(ctx, info.ID); err != nil || again.EventsDropped != 0 {
		t.Fatalf("after both replays: %+v, %v", again, err)
	}
}

// TestServerEnvEvents: GET /v1/events through client.EnvEvents is
// Environment.Subscribe over HTTP — a stream opened before any job exists
// delivers, record for record, what a Recorder snapshot holds once the jobs
// are done (one shard, so arrival order is the snapshot's order), carries no
// Seq and no terminal event, and ends cleanly when the subscriber closes it.
func TestServerEnvEvents(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(31), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	_, hs := testDaemon(t, env, map[string]server.Tenant{"tok": {Name: "watcher"}})
	c := client.New(hs.URL, "tok")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := client.New(hs.URL, "wrong").EnvEvents(ctx); err == nil {
		t.Fatal("EnvEvents with an unknown token succeeded")
	}
	stream, err := c.EnvEvents(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(6, aimes.UniformDuration()), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		info, err := c.Submit(ctx, w, client.SubmitOptions{Config: parityCfgs[0]})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
	}

	want := env.Recorder().Records()
	if len(want) == 0 {
		t.Fatal("two finished jobs recorded nothing")
	}
	for i, rec := range want {
		select {
		case ev, ok := <-stream.C:
			if !ok {
				t.Fatalf("stream ended after %d of %d records: %v", i, len(want), stream.Err())
			}
			if ev.Seq != 0 || ev.Job != "" {
				t.Fatalf("environment event %d carries seq %d, job %q", i, ev.Seq, ev.Job)
			}
			if ev.Time != rec.Time.Duration() || ev.Entity != rec.Entity || ev.State != rec.State || ev.Detail != rec.Detail {
				t.Fatalf("event %d is %+v, the recorder holds %+v", i, ev, rec)
			}
		case <-ctx.Done():
			t.Fatalf("timed out after %d of %d records", i, len(want))
		}
	}
	stream.Close()
	for range stream.C {
	}
	if stream.Err() != nil || stream.Final() != nil || stream.Dropped() != 0 {
		t.Fatalf("closed stream: err %v, final %+v, dropped %d", stream.Err(), stream.Final(), stream.Dropped())
	}
}
