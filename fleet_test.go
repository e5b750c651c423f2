// Fleet-lifecycle battery: live respawn determinism (a replayed descriptor
// on a same-seed respawned worker reports bit-identically to an undisturbed
// run), FIFO replay of queued descriptors, restart-budget exhaustion
// degrading to the contained pre-fleet failure, endpoint failover across a
// two-host TCP fleet, and the WithWorkerPool option surface.
package aimes_test

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"aimes"
	"aimes/internal/backend"
)

// fleetEnv builds a stealing worker environment whose single process-mode
// endpoint self-execs the test binary, with the given respawn budget.
func fleetEnv(t *testing.T, shards, maxRestarts int, seed int64) *aimes.Environment {
	t.Helper()
	env, err := aimes.NewEnv(aimes.WithSeed(seed), aimes.WithShards(shards),
		aimes.WithWorkStealing(),
		aimes.WithWorkerPool(aimes.WorkerPool{MaxRestarts: maxRestarts}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	return env
}

// sealAndFill pins four non-migratable tenants on shard k — sealing it and
// filling its constant admission window — so the next pinned submission is
// deterministically queued, never enacted.
func sealAndFill(t *testing.T, env *aimes.Environment, k int) []*aimes.Job {
	t.Helper()
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	var fillers []*aimes.Job
	for i := 0; i < 4; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(16, aimes.UniformDuration()), int64(7000+i))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		if j.State() != aimes.JobRunning {
			t.Fatalf("filler %d state %v, want running (window should be open)", i, j.State())
		}
		fillers = append(fillers, j)
	}
	return fillers
}

// probeWorkload is the shared probe workload/config of the determinism test:
// both the undisturbed and the crashed run must submit exactly this.
func probeWorkload(t *testing.T) (*aimes.Workload, aimes.JobConfig) {
	t.Helper()
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(12, aimes.UniformDuration()), 4321)
	if err != nil {
		t.Fatal(err)
	}
	return w, aimes.JobConfig{
		StrategyConfig: aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2},
		Placement:      aimes.PlacePinned, Shard: 0, Migrate: aimes.MigrateNever,
	}
}

// TestRespawnDeterminism is the fleet's core guarantee: a queued descriptor
// replayed onto a crashed-then-respawned shard produces a report
// DeepEqual to the same submission on a shard that never crashed. The
// respawned worker is dialed from the same Config — same shard seed — so
// its fresh engine stack enacts the replayed descriptor exactly as a first
// submission.
func TestRespawnDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	// Undisturbed run: the probe is shard 0's first and only job. (Two
	// shards because stealing — and with it the admission queue the replay
	// path drains — is inert on a single shard.)
	base := fleetEnv(t, 2, 1, 20260808)
	w, cfg := probeWorkload(t)
	baseJob, err := base.Submit(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	baseReport, err := baseJob.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Crashed run: seal the window with enacted fillers, queue the probe,
	// kill the worker. The fillers' engine state dies with the worker; the
	// probe is descriptor-only and must replay losslessly.
	chaos := fleetEnv(t, 2, 1, 20260808)
	fillers := sealAndFill(t, chaos, 0)
	w2, cfg2 := probeWorkload(t)
	probe, err := chaos.Submit(context.Background(), w2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if probe.State() != aimes.JobQueued {
		t.Fatalf("probe state %v, want queued behind the sealed window", probe.State())
	}
	if err := chaos.KillWorker(0); err != nil {
		t.Fatal(err)
	}
	for i, f := range fillers {
		if _, err := f.Wait(ctx); err == nil {
			t.Fatalf("enacted filler %d survived the worker kill", i)
		} else if !strings.Contains(err.Error(), "s0") {
			t.Fatalf("filler %d failure does not name the shard: %v", i, err)
		}
	}
	chaosReport, err := probe.Wait(ctx)
	if err != nil {
		t.Fatalf("queued probe did not replay onto the respawned worker: %v", err)
	}
	if probe.Namespace() != baseJob.Namespace() {
		t.Fatalf("replayed probe namespace %q, undisturbed %q (respawn did not reset the shard stack)",
			probe.Namespace(), baseJob.Namespace())
	}
	if !reflect.DeepEqual(chaosReport, baseReport) {
		t.Fatalf("replayed report diverges from the undisturbed run:\nreplayed:    %+v\nundisturbed: %+v",
			*chaosReport, *baseReport)
	}

	fleet := chaos.Fleet()
	if fleet.Restarts != 1 {
		t.Fatalf("fleet restarts %d, want 1", fleet.Restarts)
	}
	if fleet.Replayed != 1 {
		t.Fatalf("fleet replayed %d, want the probe alone", fleet.Replayed)
	}
	if got := chaos.Loads()[0].Restarts; got != 1 {
		t.Fatalf("shard 0 restart count %d, want 1", got)
	}
	if base.Fleet().Restarts != 0 {
		t.Fatalf("undisturbed fleet reports %d restarts", base.Fleet().Restarts)
	}
}

// TestReplayPreservesQueueOrder queues three non-migratable descriptors
// behind a sealed window, kills the worker, and checks they replay FIFO:
// the respawned shard's namespaces must assign in the original submission
// order.
func TestReplayPreservesQueueOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	env := fleetEnv(t, 2, 1, 606)
	fillers := sealAndFill(t, env, 0)
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 1}
	var queued []*aimes.Job
	for i := 0; i < 3; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), int64(8100+i))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: 0, Migrate: aimes.MigrateNever,
		})
		if err != nil {
			t.Fatal(err)
		}
		if j.State() != aimes.JobQueued {
			t.Fatalf("job %d state %v, want queued", i, j.State())
		}
		queued = append(queued, j)
	}
	if err := env.KillWorker(0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, f := range fillers {
		if _, err := f.Wait(ctx); err == nil {
			t.Fatal("enacted filler survived the worker kill")
		}
	}
	for i, j := range queued {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("queued job %d failed instead of replaying: %v", i, err)
		}
	}
	// The respawned stack assigns namespaces at enactment: FIFO replay
	// means submission order, starting over from j1.
	for i, j := range queued {
		want := "s0-j" + string(rune('1'+i))
		if j.Namespace() != want {
			t.Fatalf("replayed job %d namespace %q, want %q (replay order broken)", i, j.Namespace(), want)
		}
	}
	if got := env.Fleet().Replayed; got != 3 {
		t.Fatalf("fleet replayed %d, want 3", got)
	}
}

// TestMaxRestartsExhaustion spends the budget and checks the degradation
// contract: within budget a kill respawns (later submissions succeed);
// past it a kill is the old terminal containment — that shard's jobs fail,
// other shards never notice.
func TestMaxRestartsExhaustion(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	env := fleetEnv(t, 2, 1, 909)
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	submit := func(shard, seed int) *aimes.Job {
		t.Helper()
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(8, aimes.UniformDuration()), int64(seed))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: shard, Migrate: aimes.MigrateNever,
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Kill 1: within budget. The enacted job fails (its engine state died
	// with the worker), but the shard respawns and keeps serving.
	doomed := submit(0, 11)
	if err := env.KillWorker(0); err != nil {
		t.Fatal(err)
	}
	if _, err := doomed.Wait(ctx); err == nil {
		t.Fatal("enacted job survived its worker's death")
	}
	revived := submit(0, 12)
	if r, err := revived.Wait(ctx); err != nil {
		t.Fatalf("submission after an in-budget kill failed: %v", err)
	} else if r.UnitsDone != 8 {
		t.Fatalf("revived job finished %d units, want 8", r.UnitsDone)
	}
	if got := env.Fleet().Restarts; got != 1 {
		t.Fatalf("fleet restarts %d after one kill, want 1", got)
	}

	// Kill 2: budget spent. Terminal, contained.
	doomed2 := submit(0, 13)
	healthy := submit(1, 14)
	if err := env.KillWorker(0); err != nil {
		t.Fatal(err)
	}
	if _, err := doomed2.Wait(ctx); err == nil {
		t.Fatal("job on the exhausted shard completed")
	} else if !strings.Contains(err.Error(), "s0") {
		t.Fatalf("terminal failure does not name the shard: %v", err)
	}
	if r, err := healthy.Wait(ctx); err != nil {
		t.Fatalf("job on the untouched shard: %v", err)
	} else if r.UnitsDone != 8 {
		t.Fatalf("healthy job finished %d units, want 8", r.UnitsDone)
	}
	if got := env.Fleet().Restarts; got != 1 {
		t.Fatalf("fleet restarts %d after the exhausted kill, want still 1", got)
	}
}

// fleetHost starts an in-process TCP worker host for fleet tests.
func fleetHost(t *testing.T, secret string) (string, net.Listener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go backend.ServeListener(ln, backend.ServeConfig{Secret: secret})
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), ln
}

// TestFleetFailoverAcrossEndpoints runs a two-host TCP fleet, takes one
// host away entirely, and checks the severed shard respawns on the
// surviving host — with the endpoint bookkeeping (unhealthy mark, shard
// counts) visible through Fleet.
func TestFleetFailoverAcrossEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs TCP worker hosts")
	}
	const secret = "fleet-failover-secret"
	addr0, ln0 := fleetHost(t, secret)
	addr1, _ := fleetHost(t, secret)
	env, err := aimes.NewEnv(aimes.WithSeed(777), aimes.WithShards(2), aimes.WithWorkStealing(),
		aimes.WithWorkerPool(aimes.WorkerPool{
			Endpoints: []aimes.WorkerEndpoint{
				{Name: "h0", Addr: addr0},
				{Name: "h1", Addr: addr1},
			},
			Secret:      secret,
			MaxRestarts: 2,
			// TCP death is in-band only: with no jobs in flight, the
			// periodic probe is what notices the severed session.
			HealthInterval: 20 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	// Host 0 disappears (listener closed, shard 0's session severed): the
	// respawn must fail over to host 1.
	ln0.Close()
	if err := env.KillWorker(0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for env.Fleet().Restarts < 1 {
		if time.Now().After(deadline) {
			t.Fatal("severed shard never respawned")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The respawned shard serves jobs from its new home.
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(6, aimes.UniformDuration()), 55)
	if err != nil {
		t.Fatal(err)
	}
	j, err := env.Submit(context.Background(), w, aimes.JobConfig{
		StrategyConfig: aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 1},
		Placement:      aimes.PlacePinned, Shard: 0, Migrate: aimes.MigrateNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if r, err := j.Wait(ctx); err != nil {
		t.Fatalf("job on the failed-over shard: %v", err)
	} else if r.UnitsDone != 6 {
		t.Fatalf("failed-over job finished %d units, want 6", r.UnitsDone)
	}

	var h0, h1 aimes.EndpointStatus
	for _, ep := range env.Fleet().Endpoints {
		switch ep.Name {
		case "h0":
			h0 = ep
		case "h1":
			h1 = ep
		}
	}
	if !h0.Unhealthy {
		t.Fatal("dead host h0 not marked unhealthy")
	}
	if h0.Shards != 0 || h1.Shards != 2 {
		t.Fatalf("shard placement h0=%d h1=%d after failover, want 0/2", h0.Shards, h1.Shards)
	}

	// Cordon/drain surface: unknown names error, draining h1 within the
	// remaining budget respawns both shards — but h0 is gone and h1 is
	// cordoned, so there is nowhere to go; that must be a contained
	// failure, not a hang (exercised enough here by the error-free calls).
	if err := env.CordonEndpoint("nope"); err == nil {
		t.Fatal("cordon of an unknown endpoint succeeded")
	}
	if err := env.CordonEndpoint("h0"); err != nil {
		t.Fatal(err)
	}
	if err := env.UncordonEndpoint("h0"); err != nil {
		t.Fatal(err)
	}
}

// TestDrainEndpointMovesItsShards drains one of two process-mode endpoints:
// the endpoint is cordoned and its worker severed, and the shard recovers as
// from a crash — enacted jobs fail naming the shard, the queued descriptor
// replays on a respawn placed on the other endpoint — while the shard that
// was never on the drained endpoint does not notice.
func TestDrainEndpointMovesItsShards(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	env, err := aimes.NewEnv(aimes.WithSeed(1212), aimes.WithShards(2), aimes.WithWorkStealing(),
		aimes.WithWorkerPool(aimes.WorkerPool{
			Endpoints:   []aimes.WorkerEndpoint{{Name: "a"}, {Name: "b"}},
			MaxRestarts: 1,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	fillers := sealAndFill(t, env, 0)
	w, cfg := probeWorkload(t)
	probe, err := env.Submit(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shard = 1
	bystander, err := env.Submit(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if probe.State() != aimes.JobQueued || bystander.State() != aimes.JobRunning {
		t.Fatalf("probe %v, bystander %v; want queued behind shard 0's window, running on shard 1", probe.State(), bystander.State())
	}

	if err := env.DrainEndpoint("nope"); err == nil {
		t.Fatal("drain of an unknown endpoint succeeded")
	}
	if err := env.DrainEndpoint("a"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i, f := range fillers {
		if _, err := f.Wait(ctx); err == nil || !strings.Contains(err.Error(), "s0") {
			t.Fatalf("enacted filler %d on the drained endpoint ended with %v, want a failure naming s0", i, err)
		}
	}
	for name, j := range map[string]*aimes.Job{"replayed probe": probe, "bystander": bystander} {
		if r, err := j.Wait(ctx); err != nil || r.UnitsDone != 12 {
			t.Fatalf("%s: %+v, %v", name, r, err)
		}
	}
	fleet := env.Fleet()
	if fleet.Restarts != 1 || fleet.Replayed != 1 {
		t.Fatalf("fleet after the drain: %d restarts, %d replayed; want 1 and 1", fleet.Restarts, fleet.Replayed)
	}
	for _, ep := range fleet.Endpoints {
		if want := map[string]aimes.EndpointStatus{
			"a": {Name: "a", Cordoned: true},
			"b": {Name: "b", Shards: 2, Restarts: 1},
		}[ep.Name]; ep != want {
			t.Fatalf("endpoint %s is %+v, want %+v", ep.Name, ep, want)
		}
	}
}

// TestWorkerPoolValidation covers the worker-pool option's refusal paths
// and the fleet accessors on the local backend.
func TestWorkerPoolValidation(t *testing.T) {
	// A negative budget is nonsense.
	if _, err := aimes.NewEnv(aimes.WithWorkerPool(aimes.WorkerPool{MaxRestarts: -1})); err == nil {
		t.Fatal("negative MaxRestarts accepted")
	}
	// A TCP endpoint with no secret anywhere must fail actionably.
	t.Setenv("AIMES_WORKER_SECRET", "")
	t.Setenv("AIMES_WORKER_SECRET_FILE", "")
	if _, err := aimes.NewEnv(aimes.WithWorkerPool(aimes.WorkerPool{
		Endpoints: []aimes.WorkerEndpoint{{Addr: "127.0.0.1:1"}},
	})); err == nil || !strings.Contains(err.Error(), "Secret") {
		t.Fatalf("secretless TCP pool: %v", err)
	}
	// Fleet lifecycle calls are worker-backend-only.
	env, err := aimes.NewEnv(aimes.WithSeed(1), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if !reflect.DeepEqual(env.Fleet(), aimes.FleetStats{}) {
		t.Fatalf("local backend fleet stats %+v, want zero", env.Fleet())
	}
	if err := env.CordonEndpoint("x"); err == nil {
		t.Fatal("cordon on the local backend succeeded")
	}
	if err := env.DrainEndpoint("x"); err == nil {
		t.Fatal("drain on the local backend succeeded")
	}
	var exhausted error = backend.ErrRestartsExhausted
	if !errors.Is(exhausted, backend.ErrRestartsExhausted) {
		t.Fatal("sentinel identity broken")
	}
}
