// Backend-seam battery: the local-vs-worker parity matrix (the same seeded,
// pinned multi-tenant scenario must produce identical reports on both
// backends), worker crash containment (a killed worker fails only its own
// shard's jobs, descriptively), the wait feedback every finished job leaves
// in its shard's bundle, and steal-aware staged placement. (The trace views
// and live subscriptions are in trace_test.go.)
package aimes_test

import (
	"context"
	"fmt"
	"net"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aimes"
	"aimes/internal/backend"
	"aimes/internal/bundle"
	"aimes/internal/site"
	"aimes/internal/skeleton"
)

// TestMain lets this test binary serve as its own worker pool: a child
// spawned with the worker environment variable set serves the framed
// protocol on stdio and exits inside WorkerMain; every other invocation
// runs the tests, with the current executable armed as the worker command.
func TestMain(m *testing.M) {
	aimes.WorkerMain()
	os.Exit(m.Run())
}

// jobOutcome is the comparable signature of one finished job.
type jobOutcome struct {
	Namespace string
	Shard     int
	Report    *aimes.Report
	Strategy  aimes.Strategy
	State     aimes.JobState
	Err       string // the terminal error's text, "" for none
}

// outcomeOf snapshots a finished job.
func outcomeOf(j *aimes.Job) jobOutcome {
	o := jobOutcome{Namespace: j.Namespace(), Shard: j.Shard(), Report: j.Report(), Strategy: j.Strategy(), State: j.State()}
	if err := j.Err(); err != nil {
		o.Err = err.Error()
	}
	return o
}

// runParityScenario runs the same seeded multi-tenant scenario — three
// shards, two pinned tenants per shard, distinct workloads, concurrent
// waiters — and returns the outcome of every job in submission order.
func runParityScenario(t *testing.T, opts ...aimes.Option) []jobOutcome {
	t.Helper()
	const nShards, perShard = 3, 2
	env, err := aimes.NewEnv(append([]aimes.Option{aimes.WithSeed(20260728)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if got := env.Shards(); got != nShards {
		t.Fatalf("got %d shards, want %d", got, nShards)
	}
	cfgs := []aimes.StrategyConfig{
		{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2},
		{Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1},
	}
	var jobs []*aimes.Job
	for k := 0; k < nShards; k++ {
		for i := 0; i < perShard; i++ {
			w, err := aimes.GenerateWorkload(
				aimes.BagOfTasks(8+4*i, aimes.UniformDuration()), int64(1000*k+i))
			if err != nil {
				t.Fatal(err)
			}
			j, err := env.Submit(context.Background(), w, aimes.JobConfig{
				StrategyConfig: cfgs[i%len(cfgs)],
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
		out = append(out, outcomeOf(j))
	}
	return out
}

// runParityEdgeCases drives the backend operations the steady-state
// scenario never sends — Cancel, Incomplete — at points that do not depend
// on pump granularity, and returns the outcomes in a fixed order: a job
// canceled while enacted (before anyone steps its shard), the stages and
// the total of a staged execution (each stage pinned to its predecessor's
// shard), and an
// early-binding job wedged by an outage that never recovers (the engine
// drains, and the diagnostic names the states it wedged in).
func runParityEdgeCases(t *testing.T, opts ...aimes.Option) []jobOutcome {
	t.Helper()
	env, err := aimes.NewEnv(append([]aimes.Option{aimes.WithSeed(20260929)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	late := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	var out []jobOutcome

	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(16, aimes.UniformDuration()), 1)
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := env.Submit(ctx, w, aimes.JobConfig{StrategyConfig: late, Placement: aimes.PlacePinned, Shard: 0})
	if err != nil {
		t.Fatal(err)
	}
	doomed.Cancel("parity: canceled while enacted")
	if _, err := doomed.Wait(ctx); err != nil {
		t.Errorf("canceled job: %v", err)
	}
	out = append(out, outcomeOf(doomed))

	staged, err := aimes.GenerateWorkload(aimes.AppSpec{Name: "staged", Stages: []aimes.StageSpec{
		{Name: "a", Tasks: 6, InputBytes: aimes.ConstantSpec(1 << 20), DurationS: aimes.ConstantSpec(120), OutputBytes: aimes.ConstantSpec(1 << 20)},
		{Name: "b", Tasks: 6, Inputs: aimes.MapOneToOne, DurationS: aimes.ConstantSpec(90), OutputBytes: aimes.ConstantSpec(1 << 10)},
	}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	total, stages, err := env.RunStaged(staged, late)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(stages, total) {
		out = append(out, jobOutcome{Report: r})
	}

	if err := env.InjectChaos(2, aimes.ChaosEvent{Action: "outage", Target: "stampede", After: 20 * time.Second}); err != nil {
		t.Fatal(err)
	}
	wedged, err := env.Submit(ctx, w, aimes.JobConfig{
		StrategyConfig: aimes.StrategyConfig{Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1,
			Selection: aimes.SelectFixed, FixedResources: []string{"stampede"}},
		Placement: aimes.PlacePinned, Shard: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wedged.Wait(ctx); err == nil {
		t.Error("the early-binding job survived an outage that never recovers")
	}
	return append(out, outcomeOf(wedged))
}

// tcpWorkerHost returns the address and secret of a TCP worker host for the
// parity tests: the external host named by $AIMES_TEST_WORKER_ADDR (the CI
// tcp-smoke job points this at a real `aimes-worker serve` process), or an
// in-process listener otherwise — the shard stacks it hosts are the same
// Local stacks either way.
func tcpWorkerHost(t *testing.T) (addr, secret string) {
	t.Helper()
	if addr := os.Getenv("AIMES_TEST_WORKER_ADDR"); addr != "" {
		return addr, os.Getenv("AIMES_TEST_WORKER_SECRET")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	secret = "parity-test-secret"
	go backend.ServeListener(ln, backend.ServeConfig{Secret: secret})
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), secret
}

// TestListenAndServeRefusesToStart: a TCP worker host needs an address and
// a shared secret. Without an address it fails before listening; without a
// secret it binds, logs where, and refuses to serve.
func TestListenAndServeRefusesToStart(t *testing.T) {
	if err := backend.ListenAndServe("", backend.ServeConfig{Secret: "s"}); err == nil || !strings.Contains(err.Error(), "empty listen address") {
		t.Fatalf("empty address: %v", err)
	}
	var logged []string
	err := backend.ListenAndServe("127.0.0.1:0", backend.ServeConfig{Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	if err == nil || !strings.Contains(err.Error(), "without a shared secret") {
		t.Fatalf("no secret: %v", err)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "listening on 127.0.0.1:") {
		t.Fatalf("logged %q, want one listening line", logged)
	}
}

// processWorkers runs n shards as self-hosted child worker processes (the
// test binary re-executed through WorkerMain).
func processWorkers(n int) []aimes.Option {
	return []aimes.Option{aimes.WithShards(n), aimes.WithWorkerPool(aimes.WorkerPool{})}
}

// tcpWorkers runs n shards on the TCP worker host at addr.
func tcpWorkers(n int, addr, secret string) []aimes.Option {
	return []aimes.Option{aimes.WithShards(n), aimes.WithWorkerPool(aimes.WorkerPool{
		Endpoints: []aimes.WorkerEndpoint{{Addr: addr}}, Secret: secret,
	})}
}

// TestDrainVerdictIgnoresWhoWaits wedges three jobs on one shard and waits
// on the last first, then, on a fresh environment, on the first first. Which
// waiter saw the drain does not matter: all three jobs fail at that one
// verdict with the same diagnostics and traces that end in final states, and
// a job submitted after it reports and traces bit-identically. On a stdio
// worker shard the verdict crosses the wire as incomplete plus cancel.
func TestDrainVerdictIgnoresWhoWaits(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []aimes.Option
	}{
		{"local", nil},
		{"stdio worker", processWorkers(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.opts != nil && testing.Short() {
				t.Skip("spawns a worker process")
			}
			type outcome struct {
				Diagnostics []string
				Later       jobOutcome
				Events      []aimes.Event
			}
			drain := func(first int) outcome {
				env, err := aimes.NewEnv(append([]aimes.Option{aimes.WithSeed(41)}, tc.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer env.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				w, err := aimes.GenerateWorkload(aimes.BagOfTasks(8, aimes.UniformDuration()), 1)
				if err != nil {
					t.Fatal(err)
				}
				wedged := submitWedged(t, env, w, 3)
				if _, err := wedged[first].Wait(ctx); err == nil {
					t.Fatalf("job %d survived an outage that never recovers", wedged[first].ID())
				}
				var o outcome
				for _, j := range wedged {
					if j.State() != aimes.JobFailed {
						t.Fatalf("job %d is %v after job %d's waiter saw the drain; want failed at the same verdict",
							j.ID(), j.State(), wedged[first].ID())
					}
					o.Diagnostics = append(o.Diagnostics, j.Err().Error())
					tracedToFinalStates(t, j)
				}
				later, err := env.Submit(ctx, w, aimes.JobConfig{
					StrategyConfig: aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2},
					Placement:      aimes.PlacePinned, Shard: 0,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := later.Wait(ctx); err != nil {
					t.Fatalf("the later job: %v", err)
				}
				o.Later = outcomeOf(later)
				o.Events = slices.Collect(later.Events())
				return o
			}
			last, first := drain(2), drain(0)
			if !reflect.DeepEqual(last.Diagnostics, first.Diagnostics) {
				t.Fatalf("diagnostics differ with who waits:\n%q\n%q", last.Diagnostics, first.Diagnostics)
			}
			if !reflect.DeepEqual(last.Later, first.Later) {
				t.Fatalf("the later job differs with who waited:\n%+v\n%+v", last.Later, first.Later)
			}
			if len(last.Events) == 0 || !slices.Equal(last.Events, first.Events) {
				t.Fatalf("the later job's trace differs with who waited: %d and %d events", len(last.Events), len(first.Events))
			}
		})
	}
}

// TestBackendParity is the acceptance matrix for the backend seam: the same
// seeded, pinned workload mix must produce identical per-job outcomes —
// strategies, TTC decompositions, pilot waits, allocation accounting, final
// states and diagnostics — on the in-process backend and on worker shards
// over each transport, for the steady-state scenario and for the edge cases
// that send the remaining wire operations.
func TestBackendParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	local := append(runParityScenario(t, aimes.WithShards(3)), runParityEdgeCases(t, aimes.WithShards(3))...)
	if n := len(local); local[0].Strategy.Pilots != 2 || local[n-1].State != aimes.JobFailed || !strings.Contains(local[n-1].Err, "incomplete") ||
		local[n-5].State != aimes.JobCanceled || local[n-5].Report.UnitsCanceled != 16 {
		t.Fatalf("edge cases on the local backend: canceled %+v, wedged %+v", local[n-5], local[n-1])
	}
	addr, secret := tcpWorkerHost(t)
	combos := []struct {
		name string
		opts []aimes.Option
	}{
		{"stdio", processWorkers(3)},
		{"tcp", tcpWorkers(3, addr, secret)},
	}
	for _, combo := range combos {
		t.Run(combo.name, func(t *testing.T) {
			worker := append(runParityScenario(t, combo.opts...), runParityEdgeCases(t, combo.opts...)...)
			if len(local) != len(worker) {
				t.Fatalf("local ran %d jobs, worker %d", len(local), len(worker))
			}
			for i := range local {
				if local[i].Namespace != worker[i].Namespace {
					t.Errorf("job %d: namespace %q (local) vs %q (worker)", i+1, local[i].Namespace, worker[i].Namespace)
				}
				if local[i].Shard != worker[i].Shard {
					t.Errorf("job %d: shard %d (local) vs %d (worker)", i+1, local[i].Shard, worker[i].Shard)
				}
				if !reflect.DeepEqual(local[i].Strategy, worker[i].Strategy) {
					t.Errorf("job %d: strategy %+v (local) vs %+v (worker)", i+1, local[i].Strategy, worker[i].Strategy)
				}
				if local[i].State != worker[i].State || local[i].Err != worker[i].Err {
					t.Errorf("job %d: ended %v %q (local) vs %v %q (worker)", i+1,
						local[i].State, local[i].Err, worker[i].State, worker[i].Err)
				}
				if !reflect.DeepEqual(local[i].Report, worker[i].Report) {
					t.Errorf("job %d: reports diverge across backends:\nlocal:  %+v\nworker: %+v",
						i+1, local[i].Report, worker[i].Report)
				}
			}
		})
	}
}

// runParityEmergent runs one seeded job on a one-shard emergent testbed (its
// batch systems run EASY backfilling under background load) and returns its
// outcome and the shard's whole trace.
func runParityEmergent(t *testing.T, opts ...aimes.Option) (jobOutcome, []aimes.TraceRecord) {
	t.Helper()
	sites := site.EmergentTestbed(aimes.DefaultTestbed()[2:5], 0.85)
	env, err := aimes.NewEnv(append([]aimes.Option{aimes.WithSeed(20261003), aimes.WithSites(sites...)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(32, aimes.UniformDuration()), 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	j, err := env.Submit(ctx, w, aimes.JobConfig{
		StrategyConfig: aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	return outcomeOf(j), env.Recorder().Records()
}

// TestBackendParityEmergentTestbed is the parity row for testbeds no
// default configuration sends: emergent sites, whose queue waits come from
// the batch system's simulation (warm-up, background load, EASY backfilling)
// rather than a sampled model. The testbed crosses the wire as site.Config,
// so a worker's batch systems run as the local ones do — same report, same
// trace, on stdio and TCP.
func TestBackendParityEmergentTestbed(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	local, localTrace := runParityEmergent(t, aimes.WithShards(1))
	if local.Report == nil || local.Report.UnitsDone != 32 {
		t.Fatalf("local run: %+v", local)
	}
	addr, secret := tcpWorkerHost(t)
	for name, opts := range map[string][]aimes.Option{
		"stdio": processWorkers(1),
		"tcp":   tcpWorkers(1, addr, secret),
	} {
		t.Run(name, func(t *testing.T) {
			worker, workerTrace := runParityEmergent(t, opts...)
			if !reflect.DeepEqual(local, worker) {
				t.Errorf("outcomes diverge across backends:\nlocal:  %+v %+v\nworker: %+v %+v", local, local.Report, worker, worker.Report)
			} else if !reflect.DeepEqual(localTrace, workerTrace) {
				t.Errorf("traces diverge across backends: %d records (local) vs %d (worker)", len(localTrace), len(workerTrace))
			}
		})
	}
}

// runPredictiveSequence runs fourteen 8-task jobs one after another, pinned to
// shard 1 of two, each selecting its resources by predicted wait, calls
// check after each, and returns their outcomes.
func runPredictiveSequence(t *testing.T, check func(*aimes.Environment, []jobOutcome), opts ...aimes.Option) []jobOutcome {
	t.Helper()
	env, err := aimes.NewEnv(append([]aimes.Option{aimes.WithSeed(31), aimes.WithShards(2)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
		Selection: aimes.SelectByPredictedWait}
	var out []jobOutcome
	for i := 0; i < 14; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(8, aimes.UniformDuration()), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(ctx, w, aimes.JobConfig{StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		out = append(out, outcomeOf(j))
		check(env, out)
	}
	return out
}

// TestEveryJobFeedsItsShardBundle: every finished job feeds its activated
// pilots' queue waits into its own shard's bundle, so predictive selection
// sees a history outside RunStaged too. After each job, shard 1's bundle
// holds exactly the waits of the jobs that finished there, resource by
// resource, and shard 0's holds none; the selection moves once the first
// resources have a history; and worker shards, whose bundles are fed the
// same way in their own processes, run the same sequence.
func TestEveryJobFeedsItsShardBundle(t *testing.T) {
	local := runPredictiveSequence(t, func(env *aimes.Environment, done []jobOutcome) {
		t.Helper()
		waits := make(map[string][]float64)
		for _, o := range done {
			for id, wait := range o.Report.PilotWaits {
				res := strings.Split(id, ".")[1] // pilot.<resource>.<namespace>-<n>
				waits[res] = append(waits[res], wait.Seconds())
			}
		}
		for _, res := range env.ShardBundle(0).Resources() {
			if n := res.HistoryLen(); n != 0 {
				t.Fatalf("after %d jobs on shard 1, shard 0's %s holds %d waits", len(done), res.Name(), n)
			}
		}
		for _, res := range env.ShardBundle(1).Resources() {
			want := waits[res.Name()]
			if n := res.HistoryLen(); n != len(want) {
				t.Fatalf("after %d jobs, %s holds %d waits, want the %d its activated pilots observed", len(done), res.Name(), n, len(want))
			}
			slices.Sort(want)
			got, ok := res.Predict(0.5, 0.95)
			bound, wantOK := bundle.QuantileBound(want, 0.5, 0.95)
			if ok != wantOK || got != time.Duration(bound*float64(time.Second)) {
				t.Fatalf("after %d jobs, %s predicts %v (%v), want %gs (%v) from its pilots' waits", len(done), res.Name(), got, ok, bound, wantOK)
			}
		}
	})
	first := local[0].Strategy.Resources
	if moved := slices.ContainsFunc(local, func(o jobOutcome) bool { return !slices.Equal(o.Strategy.Resources, first) }); !moved {
		t.Fatalf("every job selected %v: predictive selection never saw a history", first)
	}
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	worker := runPredictiveSequence(t, func(*aimes.Environment, []jobOutcome) {}, processWorkers(2)...)
	for i := range local {
		if !reflect.DeepEqual(local[i], worker[i]) {
			t.Fatalf("job %d diverges across backends:\nlocal:  %+v %+v\nworker: %+v %+v",
				i, local[i], local[i].Report, worker[i], worker[i].Report)
		}
	}
}

// TestWireCodecValidation covers the refusal paths before anything spawns:
// binary is the wire's one codec, so any other name — JSON, which the wire
// once carried after its handshake, included — is rejected at NewEnv with
// an error naming both (see TestHostRejectsUnknownCodec in internal/backend
// for the host side of the handshake).
func TestWireCodecValidation(t *testing.T) {
	for _, name := range []string{"yaml", "json"} {
		if _, err := aimes.NewEnv(aimes.WithShards(1), aimes.WithWireCodec(name)); err == nil {
			t.Fatalf("wire codec %q accepted", name)
		} else if !strings.Contains(err.Error(), strconv.Quote(name)) || !strings.Contains(err.Error(), `"binary"`) {
			t.Fatalf("codec %q: the error does not name it and binary: %v", name, err)
		}
	}
	// Secretless TCP config must fail fast and say what to set.
	t.Setenv("AIMES_WORKER_SECRET", "")
	if _, err := aimes.NewEnv(tcpWorkers(1, "127.0.0.1:1", "")...); err == nil {
		t.Fatal("TCP worker config without a secret accepted")
	} else if !strings.Contains(err.Error(), "AIMES_WORKER_SECRET") {
		t.Fatalf("secretless error not actionable: %v", err)
	}
}

// TestTCPWorkerCrashFailsOnlyItsShard is the crash-containment contract on
// the TCP transport: a severed connection (no process watcher, death is
// in-band) still fails exactly the dead shard's jobs, descriptively.
func TestTCPWorkerCrashFailsOnlyItsShard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a TCP worker host")
	}
	addr, secret := tcpWorkerHost(t)
	env, err := aimes.NewEnv(append(tcpWorkers(2, addr, secret), aimes.WithSeed(99))...)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	submit := func(shard, seed int) *aimes.Job {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(16, aimes.UniformDuration()), int64(seed))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: shard,
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	doomed := submit(0, 11)
	healthy := submit(1, 22)
	if err := env.KillWorker(0); err != nil {
		t.Fatalf("KillWorker: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := doomed.Wait(ctx); err == nil {
		t.Fatal("job on the killed shard completed without error")
	} else if !strings.Contains(err.Error(), "s0") {
		t.Fatalf("crash error does not name the shard: %v", err)
	}
	r, err := healthy.Wait(ctx)
	if err != nil {
		t.Fatalf("job on the surviving shard: %v", err)
	}
	if r.UnitsDone != 16 {
		t.Fatalf("surviving job finished %d units, want 16", r.UnitsDone)
	}
}

// TestWorkerCrashFailsOnlyItsShard kills one worker process mid-flight and
// checks the containment contract: the dead shard's job fails with a
// descriptive error (no hang), the other shard's job completes untouched.
func TestWorkerCrashFailsOnlyItsShard(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	env, err := aimes.NewEnv(append(processWorkers(2), aimes.WithSeed(99))...)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	submit := func(shard, seed int) *aimes.Job {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(16, aimes.UniformDuration()), int64(seed))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: shard,
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	doomed := submit(0, 11)
	healthy := submit(1, 22)

	if err := env.KillWorker(0); err != nil {
		t.Fatalf("KillWorker: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := doomed.Wait(ctx); err == nil {
		t.Fatal("job on the killed shard completed without error")
	} else if !strings.Contains(err.Error(), "s0") {
		t.Fatalf("crash error does not name the shard: %v", err)
	}
	if got := doomed.State(); got != aimes.JobFailed {
		t.Fatalf("doomed job state %v, want failed", got)
	}
	r, err := healthy.Wait(ctx)
	if err != nil {
		t.Fatalf("job on the surviving shard: %v", err)
	}
	if r.UnitsDone != 16 {
		t.Fatalf("surviving job finished %d units, want 16", r.UnitsDone)
	}
	// Killing the local side of the story must be rejected cleanly.
	lenv, err := aimes.NewEnv(aimes.WithSeed(1), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := lenv.KillWorker(0); err == nil {
		t.Fatal("KillWorker on a local shard did not error")
	}
}

// TestWorkerBackendValidation covers the option surface: worker + real time
// is rejected, and a worker environment still validates workloads without
// crossing the seam.
func TestWorkerBackendValidation(t *testing.T) {
	if _, err := aimes.NewEnv(append(processWorkers(2), aimes.WithRealTime())...); err == nil {
		t.Fatal("WithWorkerPool + WithRealTime was not rejected")
	}
	env, err := aimes.NewEnv(append(processWorkers(1), aimes.WithSeed(5))...)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if env.Backend() != aimes.BackendWorker {
		t.Fatalf("backend %q, want worker", env.Backend())
	}
	if err := env.Validate(nil, aimes.StrategyConfig{}); err == nil {
		t.Fatal("nil workload validated")
	}
	if got := len(env.Resources()); got == 0 {
		t.Fatal("worker environment reports no resources")
	}
	if env.Bundle() != nil || env.ShardBundle(0) != nil {
		t.Fatal("worker environment exposed an in-process bundle")
	}
	if env.NewMonitor(time.Minute) != nil {
		t.Fatal("worker environment started an in-process monitor")
	}
	// Derive crosses the wire to the worker's live bundle.
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := env.Derive(w, aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pilots != 2 || len(s.Resources) != 2 {
		t.Fatalf("worker Derive returned %+v", s)
	}
}

// TestWorkerBackendWithStealing routes the work-stealing machinery through
// the worker transport: a sealed worker shard admits queued jobs from
// completions observed over the wire (the path where a stale step-response
// drain verdict could fail a just-admitted job), and a migratable job's
// two-phase handoff lands on — and enacts against — a different worker
// process.
func TestWorkerBackendWithStealing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	env, err := aimes.NewEnv(append(processWorkers(2), aimes.WithSeed(515), aimes.WithWorkStealing())...)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 1}
	// Twelve pinned, non-migratable tenants on worker shard 0: the seal
	// keeps the window at 4, so eight jobs queue and must be admitted one
	// by one as completions come back over the wire.
	var jobs []*aimes.Job
	for i := 0; i < 12; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), int64(3000+i))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// A migratable straggler behind the full window: nothing is pumping
	// yet and worker shard 1 is empty, so its waiter's first iteration
	// must hand it off through the transport.
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), 3999)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := env.Submit(context.Background(), w, aimes.JobConfig{
		StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: 0, Migrate: aimes.MigrateAllow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if probe.State() != aimes.JobQueued {
		t.Fatalf("probe state %v, want queued", probe.State())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	if _, err := probe.Wait(ctx); err != nil {
		t.Fatalf("probe: %v", err)
	}
	cancel()
	if !probe.Migrated() || probe.Shard() != 1 {
		t.Fatalf("probe migrated=%v shard=%d, want a handoff to worker shard 1", probe.Migrated(), probe.Shard())
	}
	if got := env.StealStats().Migrations; got < 1 {
		t.Fatalf("migrations %d, want at least the probe's handoff", got)
	}
	for i, r := range waitAllDeadline(t, jobs, 120*time.Second) {
		if r.UnitsDone != 4 {
			t.Fatalf("job %d finished %d units, want 4", i, r.UnitsDone)
		}
	}
}

// shardOfReport recovers the shard index a stage executed on from its
// pilot-wait IDs ("pilot.<resource>.s<k>-j<m>-<i>").
func shardOfReport(t *testing.T, r *aimes.Report) int {
	t.Helper()
	for id := range r.PilotWaits {
		seg := id[strings.LastIndex(id, ".")+1:]
		if !strings.HasPrefix(seg, "s") {
			continue
		}
		rest := seg[1:]
		if cut := strings.IndexByte(rest, '-'); cut > 0 {
			k, err := strconv.Atoi(rest[:cut])
			if err == nil {
				return k
			}
		}
	}
	t.Fatalf("no shard-qualified pilot ID in report waits %v", r.PilotWaits)
	return -1
}

// TestStagedPlacementFollowsLoad forces a staged execution's first stage to
// migrate off an overloaded, sealed shard and checks the steal-aware
// placement contract: the run completes, the migration happened, later
// stages, following their predecessor, run off the overloaded shard, and
// every stage's shard holds the pilot waits of the stages that ran there.
func TestStagedPlacementFollowsLoad(t *testing.T) {
	const nShards = 3
	env, err := aimes.NewEnv(aimes.WithSeed(4242), aimes.WithShards(nShards), aimes.WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	// Overload shard 0 with pinned, non-migratable tenants (sealing it):
	// the admission window fills and a deep queue forms that nobody pumps.
	noiseCfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	for i := 0; i < 8; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(32, aimes.UniformDuration()), int64(9000+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: noiseCfg, Placement: aimes.PlacePinned, Shard: 0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	app := aimes.AppSpec{
		Name: "staged",
		Stages: []aimes.StageSpec{
			{Name: "a", Tasks: 6, InputBytes: aimes.ConstantSpec(1 << 20), DurationS: aimes.ConstantSpec(120), OutputBytes: aimes.ConstantSpec(1 << 20)},
			{Name: "b", Tasks: 6, Inputs: aimes.MapOneToOne, DurationS: aimes.ConstantSpec(90), OutputBytes: aimes.ConstantSpec(1 << 10)},
		},
	}
	w, err := aimes.GenerateWorkload(app, 77)
	if err != nil {
		t.Fatal(err)
	}
	// The first round-robin submission goes to shard 0 — straight into the
	// overload, so stage "a" starts queued and its waiter must migrate it.
	total, stages, err := env.RunStaged(w, aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 {
		t.Fatalf("got %d stage reports, want 2", len(stages))
	}
	if total.UnitsDone != 12 {
		t.Fatalf("staged run finished %d units, want 12", total.UnitsDone)
	}
	if got := env.StealStats().Migrations; got < 1 {
		t.Fatalf("first stage never migrated off the overloaded shard (migrations %d)", got)
	}
	waits := make(map[int]int)
	for i, r := range stages {
		k := shardOfReport(t, r)
		if k == 0 {
			t.Fatalf("stage %d executed on the overloaded sealed shard 0", i)
		}
		waits[k] += len(r.PilotWaits)
	}
	// Every finished stage fed its activated pilots' waits into the bundle
	// of the shard it ran on.
	for k, want := range waits {
		history := 0
		for _, res := range env.ShardBundle(k).Resources() {
			history += res.HistoryLen()
		}
		if history < want {
			t.Fatalf("shard s%d holds %d wait observations, want at least the %d of its stages", k, history, want)
		}
	}
}

// lateBackfill3 is the strategy the jobs of TestRejectedWorkloadLeavesShardUntouched derive from.
var lateBackfill3 = aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3}

// runAfterRejected submits bad with badCfg to a fresh one-shard environment
// seeded 11, requires it to be rejected, then runs a 32-task bag and returns
// that job's outcome and the shard's whole trace. A nil bad skips the
// rejected submission.
func runAfterRejected(t *testing.T, bad *aimes.Workload, badCfg aimes.StrategyConfig, opts ...aimes.Option) (jobOutcome, []aimes.TraceRecord) {
	t.Helper()
	env, err := aimes.NewEnv(append([]aimes.Option{aimes.WithSeed(11), aimes.WithShards(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if bad != nil {
		if j, err := env.Submit(ctx, bad, aimes.JobConfig{StrategyConfig: badCfg}); err == nil {
			t.Fatalf("job %d with a rejectable workload or config was accepted", j.ID())
		}
	}
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(32, aimes.UniformDuration()), 7)
	if err != nil {
		t.Fatal(err)
	}
	j, err := env.Submit(ctx, w, aimes.JobConfig{StrategyConfig: lateBackfill3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	return outcomeOf(j), env.Recorder().Records()
}

// TestRejectedWorkloadLeavesShardUntouched: a job whose tasks the unit
// checks reject — a duplicate ID, a task without cores, an output file of
// negative size beside a larger one, an unknown dependency — is refused
// before the shard derives anything for it, like a job Environment.Validate
// refuses: the next job's report and trace are those of a shard that never
// saw it, on a local shard and on a worker shard.
func TestRejectedWorkloadLeavesShardUntouched(t *testing.T) {
	bag := func(edit func(w *aimes.Workload)) *aimes.Workload {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(8, aimes.UniformDuration()), 3)
		if err != nil {
			t.Fatal(err)
		}
		edit(w)
		return w
	}
	bad := map[string]*aimes.Workload{
		"duplicate id": bag(func(w *aimes.Workload) { w.Tasks[7].ID = w.Tasks[0].ID }),
		"no cores":     bag(func(w *aimes.Workload) { w.Tasks[3].Cores = 0 }),
		"output sizes +10 and -5": bag(func(w *aimes.Workload) {
			id := w.Tasks[2].ID
			w.Tasks[2].Outputs = []skeleton.File{{Name: id + ".a", Bytes: 10, Producer: id}, {Name: id + ".b", Bytes: -5, Producer: id}}
		}),
		"unknown dependency": bag(func(w *aimes.Workload) { w.Tasks[5].Deps = []string{"ghost"} }),
		"negative pilots":    bag(func(*aimes.Workload) {}), // refused by Environment.Validate
	}
	backends := map[string][]aimes.Option{"local": nil}
	if !testing.Short() {
		backends["stdio worker"] = processWorkers(1)
	}
	for name, opts := range backends {
		t.Run(name, func(t *testing.T) {
			want, wantTrace := runAfterRejected(t, nil, lateBackfill3, opts...)
			if want.Report == nil || want.Report.UnitsDone != 32 {
				t.Fatalf("the job alone: %+v", want)
			}
			for what, w := range bad {
				badCfg := lateBackfill3
				if what == "negative pilots" {
					badCfg.Pilots = -1
				}
				got, gotTrace := runAfterRejected(t, w, badCfg, opts...)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("after a job with %s: TTC %v on %v, alone %v on %v", what,
						got.Report.TTC, got.Strategy.Resources, want.Report.TTC, want.Strategy.Resources)
				} else if !reflect.DeepEqual(gotTrace, wantTrace) {
					t.Errorf("after a job with %s: %d trace records, alone %d", what, len(gotTrace), len(wantTrace))
				}
			}
		})
	}
}
