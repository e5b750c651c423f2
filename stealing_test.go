// Concurrency battery for cross-shard work stealing: adversarial-placement
// stress under the race detector, the determinism regression matrix for the
// per-shard contract with stealing on and off, migration-handoff semantics
// (namespace re-derivation, MIGRATED trace events, sealing), queued-job
// cancellation, and the atomic pick-plus-reserve placement fix.
package aimes_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aimes"
	"aimes/internal/trace"
)

// stealCfg is the strategy used by the stealing tests.
var stealCfg = aimes.StrategyConfig{
	Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
}

// skewedJob pins a migratable job to shard 0 — the adversarial placement
// every stealing test starts from.
func skewedJob() aimes.JobConfig {
	return aimes.JobConfig{
		StrategyConfig: stealCfg,
		Placement:      aimes.PlacePinned, Shard: 0,
		Migrate: aimes.MigrateAllow,
	}
}

// waitAllDeadline waits for every job with a watchdog, failing the test
// instead of letting a stealing deadlock hang the suite forever.
func waitAllDeadline(t *testing.T, jobs []*aimes.Job, d time.Duration) []*aimes.Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	reports := make([]*aimes.Report, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j *aimes.Job) {
			defer wg.Done()
			r, err := j.Wait(ctx)
			if err != nil {
				t.Errorf("job %d (state %v): %v", i, j.State(), err)
				return
			}
			reports[i] = r
		}(i, j)
	}
	wg.Wait()
	return reports
}

// TestWorkStealingStressRace is the adversarial stress point: 200 jobs all
// pinned to shard 0 of a 4-shard environment (but migratable), with
// mid-flight cancels racing the waiters and the stealing machinery. Every
// job must reach a terminal state with no deadlock, and the steal counter
// must show that migration actually carried the load.
func TestWorkStealingStressRace(t *testing.T) {
	const nShards, nJobs, nTasks = 4, 200, 8
	env, err := aimes.NewEnv(aimes.WithSeed(9001), aimes.WithShards(nShards), aimes.WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*aimes.Job, nJobs)
	for i := range jobs {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(nTasks, aimes.UniformDuration()), int64(13000+i))
		if err != nil {
			t.Fatal(err)
		}
		if jobs[i], err = env.Submit(context.Background(), w, skewedJob()); err != nil {
			t.Fatal(err)
		}
	}

	// Cancel every 7th job from a racing goroutine while waiters pump,
	// migrate and help-pump: cancels land on queued, in-handoff and enacted
	// jobs alike.
	canceled := map[int]bool{}
	var cwg sync.WaitGroup
	for i := 0; i < nJobs; i += 7 {
		canceled[i] = true
		cwg.Add(1)
		go func(j *aimes.Job) {
			defer cwg.Done()
			j.Cancel("mid-flight cancel")
		}(jobs[i])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var wwg sync.WaitGroup
	errs := make([]error, nJobs)
	reports := make([]*aimes.Report, nJobs)
	for i, j := range jobs {
		wwg.Add(1)
		go func(i int, j *aimes.Job) {
			defer wwg.Done()
			reports[i], errs[i] = j.Wait(ctx)
		}(i, j)
	}
	cwg.Wait()
	wwg.Wait()

	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d (state %v): %v", i, j.State(), errs[i])
		}
		if !j.State().Final() {
			t.Fatalf("job %d not terminal: %v", i, j.State())
		}
		if reports[i] == nil {
			t.Fatalf("job %d: no report", i)
		}
		if !canceled[i] {
			if j.State() != aimes.JobDone {
				t.Fatalf("job %d state %v, want done", i, j.State())
			}
			if reports[i].UnitsDone != nTasks {
				t.Fatalf("job %d: %d units done, want %d", i, reports[i].UnitsDone, nTasks)
			}
		} else if j.State() != aimes.JobCanceled && reports[i].UnitsDone != nTasks {
			// A cancel may lose the race with completion; anything else must
			// be a fully canceled or fully done job.
			t.Fatalf("canceled job %d: state %v, %d done %d canceled",
				i, j.State(), reports[i].UnitsDone, reports[i].UnitsCanceled)
		}
	}
	stats := env.StealStats()
	if stats.Migrations == 0 {
		t.Fatal("adversarial placement completed without a single migration")
	}
	t.Logf("steal stats: %d migrations, %d foreign pumps", stats.Migrations, stats.ForeignPumps)

	// The skew must actually have been spread: some job ran off shard 0.
	moved := 0
	for _, j := range jobs {
		if j.Shard() != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("every job still reports shard 0")
	}
}

// TestDeterminismMatrix is the determinism regression matrix: a pinned
// tenant on its own shard must produce byte-identical outcomes across runs —
// with stealing off and on, with varying amounts of migratable background
// traffic, and in particular while other shards' jobs migrate. The pinned
// tenant seals its shard, so no migrant can ever perturb it.
func TestDeterminismMatrix(t *testing.T) {
	const nShards, tenantShard = 4, 2
	type cell struct {
		steal       bool
		noise       int
		tenantJobs  int
		wantMigrate bool
	}
	cells := []cell{
		{steal: false, noise: 0, tenantJobs: 3},
		{steal: false, noise: 8, tenantJobs: 3},
		{steal: true, noise: 0, tenantJobs: 3},
		{steal: true, noise: 8, tenantJobs: 3, wantMigrate: true},
		{steal: true, noise: 0, tenantJobs: 6},
		{steal: true, noise: 12, tenantJobs: 6, wantMigrate: true},
	}
	type outcome struct {
		sig []string
	}
	run := func(t *testing.T, c cell) outcome {
		opts := []aimes.Option{aimes.WithSeed(4242), aimes.WithShards(nShards)}
		if c.steal {
			opts = append(opts, aimes.WithWorkStealing())
		}
		env, err := aimes.NewEnv(opts...)
		if err != nil {
			t.Fatal(err)
		}
		// The pinned tenant submits first: its shard is sealed from the
		// start, so nothing that happens later can reach it.
		var tenant []*aimes.Job
		for i := 0; i < c.tenantJobs; i++ {
			w, err := aimes.GenerateWorkload(aimes.BagOfTasks(6, aimes.UniformDuration()), int64(600+i))
			if err != nil {
				t.Fatal(err)
			}
			j, err := env.Submit(context.Background(), w, aimes.JobConfig{
				StrategyConfig: stealCfg,
				Placement:      aimes.PlacePinned, Shard: tenantShard,
			})
			if err != nil {
				t.Fatal(err)
			}
			tenant = append(tenant, j)
		}
		// Background traffic: migratable jobs stacked adversarially on
		// shard 0, free to migrate anywhere but the sealed tenant shard.
		// Heavy enough (16 tasks each) that the queue behind the admission
		// window cannot drain before the queued waiters' first migrate
		// check runs, so cells expecting migration see it reliably.
		var noise []*aimes.Job
		for i := 0; i < c.noise; i++ {
			w, err := aimes.GenerateWorkload(aimes.BagOfTasks(16, aimes.UniformDuration()), int64(9100+17*i))
			if err != nil {
				t.Fatal(err)
			}
			j, err := env.Submit(context.Background(), w, skewedJob())
			if err != nil {
				t.Fatal(err)
			}
			noise = append(noise, j)
		}
		if c.wantMigrate {
			// Drive one migration deterministically before the waiter storm:
			// the last noise job is necessarily queued (the window filled
			// long before it), nothing is pumping yet, and the unsealed
			// shards are empty — so its waiter's first iteration must hand
			// it off.
			probe := noise[len(noise)-1]
			if probe.State() != aimes.JobQueued {
				t.Fatalf("probe job state %v, want queued", probe.State())
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			if _, err := probe.Wait(ctx); err != nil {
				t.Fatalf("probe wait: %v", err)
			}
			cancel()
		}
		waitAllDeadline(t, append(append([]*aimes.Job{}, noise...), tenant...), 120*time.Second)
		for _, j := range tenant {
			if got := j.Shard(); got != tenantShard {
				t.Fatalf("pinned tenant job ended on shard %d", got)
			}
		}
		if c.wantMigrate && env.StealStats().Migrations == 0 {
			t.Fatal("matrix cell expected background migrations, saw none")
		}
		var o outcome
		for _, j := range tenant {
			r := j.Report()
			o.sig = append(o.sig, fmt.Sprintf("%s|%v|%v|%v|%v|%d|%v",
				j.Namespace(), r.TTC, r.Tw, r.Tx, r.Ts, r.UnitsDone, sortedWaits(r)))
		}
		return o
	}
	baseline := map[int][]string{} // tenantJobs -> signature with steal off, noise 0
	for _, c := range cells {
		name := fmt.Sprintf("steal=%v/noise=%d/tenant=%d", c.steal, c.noise, c.tenantJobs)
		t.Run(name, func(t *testing.T) {
			a := run(t, c)
			b := run(t, c)
			for i := range a.sig {
				if a.sig[i] != b.sig[i] {
					t.Fatalf("pinned tenant job %d diverged across identical runs:\n  %s\n  %s", i, a.sig[i], b.sig[i])
				}
			}
			// Across cells with the same tenant size and a window-sized
			// tenant, the sealed shard must not even notice the mode or the
			// noise: compare to the quietest cell.
			if c.tenantJobs == 3 {
				if prev, ok := baseline[c.tenantJobs]; ok {
					for i := range a.sig {
						if a.sig[i] != prev[i] {
							t.Fatalf("pinned tenant job %d differs from the no-noise baseline:\n  %s\n  %s", i, a.sig[i], prev[i])
						}
					}
				} else {
					baseline[c.tenantJobs] = a.sig
				}
			}
		})
	}
}

// sortedWaits renders PilotWaits deterministically for signature comparison.
func sortedWaits(r *aimes.Report) string {
	keys := make([]string, 0, len(r.PilotWaits))
	for k := range r.PilotWaits {
		keys = append(keys, k)
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v;", k, r.PilotWaits[k])
	}
	return b.String()
}

// TestMigrationHandoffSemantics pins more migratable jobs to shard 0 than
// the admission window holds and checks the handoff contract end to end:
// migrated jobs re-derive their namespace on the destination shard, record
// an "em" MIGRATED trace event naming the origin, show up in the
// destination's recorder, and still complete correctly.
func TestMigrationHandoffSemantics(t *testing.T) {
	const nShards, nJobs, nTasks = 2, 12, 6
	env, err := aimes.NewEnv(aimes.WithSeed(321), aimes.WithShards(nShards), aimes.WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*aimes.Job, nJobs)
	for i := range jobs {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(nTasks, aimes.UniformDuration()), int64(500+i))
		if err != nil {
			t.Fatal(err)
		}
		if jobs[i], err = env.Submit(context.Background(), w, skewedJob()); err != nil {
			t.Fatal(err)
		}
	}
	// Wait on the (necessarily queued) last job first: with nothing pumping
	// yet and shard 1 empty, its waiter's first iteration must migrate it —
	// so the handoff assertions below are deterministic, not scheduling luck.
	if jobs[nJobs-1].State() != aimes.JobQueued {
		t.Fatalf("tail job state %v, want queued", jobs[nJobs-1].State())
	}
	if _, err := jobs[nJobs-1].Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if jobs[nJobs-1].Shard() == 0 {
		t.Fatal("probe job did not migrate off the skewed shard")
	}
	reports := waitAllDeadline(t, jobs, 60*time.Second)

	migrated := 0
	for i, j := range jobs {
		if reports[i] == nil {
			t.Fatalf("job %d: no report", i)
		}
		if reports[i].UnitsDone != nTasks {
			t.Fatalf("job %d: %d units done", i, reports[i].UnitsDone)
		}
		ns := j.Namespace()
		wantPrefix := fmt.Sprintf("s%d-", j.Shard())
		if !strings.HasPrefix(ns, wantPrefix) {
			t.Fatalf("job %d namespace %q does not match its shard %d", i, ns, j.Shard())
		}
		for id := range reports[i].PilotWaits {
			if !strings.Contains(id, "."+ns+"-") {
				t.Fatalf("job %d pilot %q lacks namespace %q", i, id, ns)
			}
		}
		if j.Shard() != 0 {
			migrated++
			// The migration must be visible in the destination shard's trace
			// as an em MIGRATED record naming the origin.
			r, found := env.ShardRecorder(j.Shard()).First("em."+ns, trace.StateMigrated)
			if !found {
				t.Fatalf("job %d migrated to shard %d without an em MIGRATED record", i, j.Shard())
			}
			if r.Detail != "from s0" {
				t.Fatalf("job %d MIGRATED detail %q, want \"from s0\"", i, r.Detail)
			}
		}
	}
	if migrated == 0 {
		t.Fatal("no job migrated off the skewed shard")
	}
	if got := env.StealStats().Migrations; got < int64(migrated) {
		t.Fatalf("steal counter %d below observed migrations %d", got, migrated)
	}
	// Aggregate trace carries the MIGRATED records too.
	if len(env.Recorder().ByState(trace.StateMigrated)) == 0 {
		t.Fatal("aggregate trace has no MIGRATED records")
	}
}

// TestPinnedSealingBlocksMigrants checks both halves of the pinning
// contract: pinned non-migratable jobs never move even under extreme skew,
// and the shards they pin become sealed — with every other shard sealed,
// migratable jobs have nowhere to go and run where they were placed.
func TestPinnedSealingBlocksMigrants(t *testing.T) {
	const nShards = 2
	env, err := aimes.NewEnv(aimes.WithSeed(77), aimes.WithShards(nShards), aimes.WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	// Seal shard 1 with a pinned non-migratable job.
	sealW, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), 1)
	if err != nil {
		t.Fatal(err)
	}
	sealJob, err := env.Submit(context.Background(), sealW, aimes.JobConfig{
		StrategyConfig: stealCfg, Placement: aimes.PlacePinned, Shard: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stack shard 0 well past the admission window with pinned
	// non-migratable jobs plus migratable ones; the only other shard is
	// sealed, so nothing may move.
	var jobs []*aimes.Job
	for i := 0; i < 8; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := aimes.JobConfig{
			StrategyConfig: stealCfg, Placement: aimes.PlacePinned, Shard: 0,
		}
		if i%2 == 1 {
			cfg.Migrate = aimes.MigrateAllow
		}
		j, err := env.Submit(context.Background(), w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	waitAllDeadline(t, append(jobs, sealJob), 60*time.Second)
	for i, j := range jobs {
		if j.Shard() != 0 {
			t.Fatalf("job %d ended on shard %d despite sealing", i, j.Shard())
		}
	}
	if sealJob.Shard() != 1 {
		t.Fatalf("sealing job moved to shard %d", sealJob.Shard())
	}
	if got := env.StealStats().Migrations; got != 0 {
		t.Fatalf("%d migrations despite every destination sealed", got)
	}
}

// TestStalledJobWithNoOpenShardFails wedges a sealed shard's whole admission
// window — four early-binding tenants whose only pilot sits in a queue an
// outage took offline for good — and queues a migratable job behind it while
// the only other shard is sealed too. The engine drains with the job still a
// descriptor: nothing can ever admit it and no shard can take it, so its
// waiter must fail it with that diagnosis rather than spin; the wedged
// tenants then fail with the backend's own.
func TestStalledJobWithNoOpenShardFails(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(808), aimes.WithShards(2), aimes.WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sealer, err := env.Submit(ctx, w, aimes.JobConfig{StrategyConfig: stealCfg, Placement: aimes.PlacePinned, Shard: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.InjectChaos(0, aimes.ChaosEvent{Action: "outage", Target: "stampede", After: 20 * time.Second}); err != nil {
		t.Fatal(err)
	}
	var wedged []*aimes.Job
	for i := 0; i < 4; i++ {
		j, err := env.Submit(ctx, w, aimes.JobConfig{
			StrategyConfig: aimes.StrategyConfig{Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1,
				Selection: aimes.SelectFixed, FixedResources: []string{"stampede"}},
			Placement: aimes.PlacePinned, Shard: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		wedged = append(wedged, j)
	}
	stalled, err := env.Submit(ctx, w, skewedJob())
	if err != nil {
		t.Fatal(err)
	}
	if stalled.State() != aimes.JobQueued {
		t.Fatalf("fifth job on the sealed shard is %v, want queued behind its window of 4", stalled.State())
	}

	_, err = stalled.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "behind 4 wedged jobs and no open shard") {
		t.Fatalf("stalled job ended with %v, want the no-open-shard diagnosis", err)
	}
	if stalled.State() != aimes.JobFailed || stalled.Migrated() || stalled.Namespace() != "" {
		t.Fatalf("stalled job: state %v, migrated %v, namespace %q; want failed where it queued, never enacted",
			stalled.State(), stalled.Migrated(), stalled.Namespace())
	}
	if l := env.Loads()[0]; l.Queued != 0 || l.Running != 4 {
		t.Fatalf("shard 0 after the failure: %d queued, %d running; want 0 and the 4 wedged tenants", l.Queued, l.Running)
	}
	for i, j := range wedged {
		if _, err := j.Wait(ctx); err == nil || !strings.Contains(err.Error(), "incomplete") {
			t.Fatalf("wedged tenant %d ended with %v, want the backend's drained-but-incomplete diagnostic", i, err)
		}
	}
	if r, err := sealer.Wait(ctx); err != nil || r.UnitsDone != 4 {
		t.Fatalf("the other shard's tenant: %+v, %v", r, err)
	}
}

// TestQueuedJobCancel cancels jobs that are still queued behind the
// admission window: they must complete immediately in JobCanceled with every
// unit accounted as canceled and without ever enacting (empty namespace, no
// strategy), while the rest of the queue drains normally.
func TestQueuedJobCancel(t *testing.T) {
	const nShards = 2
	env, err := aimes.NewEnv(aimes.WithSeed(55), aimes.WithShards(nShards), aimes.WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	// Seal shard 1 so nothing migrates and the queue on shard 0 stays put.
	sealW, err := aimes.GenerateWorkload(aimes.BagOfTasks(2, aimes.UniformDuration()), 3)
	if err != nil {
		t.Fatal(err)
	}
	sealJob, err := env.Submit(context.Background(), sealW, aimes.JobConfig{
		StrategyConfig: stealCfg, Placement: aimes.PlacePinned, Shard: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const nJobs, nTasks = 10, 5
	jobs := make([]*aimes.Job, nJobs)
	for i := range jobs {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(nTasks, aimes.UniformDuration()), int64(800+i))
		if err != nil {
			t.Fatal(err)
		}
		if jobs[i], err = env.Submit(context.Background(), w, skewedJob()); err != nil {
			t.Fatal(err)
		}
	}
	// The tail of the queue is still un-enacted.
	victim := jobs[nJobs-1]
	if victim.State() != aimes.JobQueued {
		t.Fatalf("tail job state %v, want queued", victim.State())
	}
	if victim.Namespace() != "" {
		t.Fatalf("queued job already has namespace %q", victim.Namespace())
	}
	victim.Cancel("changed my mind")
	r, err := victim.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if victim.State() != aimes.JobCanceled {
		t.Fatalf("canceled queued job state %v", victim.State())
	}
	if r.UnitsCanceled != nTasks || r.UnitsDone != 0 || r.TTC != 0 {
		t.Fatalf("queued-cancel report: %d canceled, %d done, TTC %v", r.UnitsCanceled, r.UnitsDone, r.TTC)
	}
	if victim.Namespace() != "" {
		t.Fatal("canceled queued job acquired a namespace")
	}
	waitAllDeadline(t, append(jobs[:nJobs-1], sealJob), 60*time.Second)
	for i, j := range jobs[:nJobs-1] {
		if j.State() != aimes.JobDone {
			t.Fatalf("job %d state %v", i, j.State())
		}
	}
}

// TestStealForwardDrainsWaiterlessQueues submits queued jobs nobody is
// waiting on; a waiter of another shard's job must, on its way out, hand one
// of them to an idle shard so the queue keeps moving without its own waiters.
func TestStealForwardDrainsWaiterlessQueues(t *testing.T) {
	const nShards = 2
	env, err := aimes.NewEnv(aimes.WithSeed(66), aimes.WithShards(nShards), aimes.WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	// Fill shard 0's window and queue without waiting on any of it.
	var skewed []*aimes.Job
	for i := 0; i < 7; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), int64(300+i))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, skewedJob())
		if err != nil {
			t.Fatal(err)
		}
		skewed = append(skewed, j)
	}
	// A tenant on shard 1 runs and completes; its departing waiter steals
	// forward from shard 0's queue.
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), 9)
	if err != nil {
		t.Fatal(err)
	}
	j, err := env.Submit(context.Background(), w, aimes.JobConfig{
		StrategyConfig: stealCfg, Placement: aimes.PlacePinned, Shard: 1, Migrate: aimes.MigrateAllow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := env.StealStats().Migrations; got == 0 {
		t.Fatal("departing waiter did not steal forward from the waiterless queue")
	}
	waitAllDeadline(t, skewed, 60*time.Second)
}

// TestWorkStealingValidation covers the option's rejection and inert paths.
func TestWorkStealingValidation(t *testing.T) {
	if _, err := aimes.NewEnv(aimes.WithRealTime(), aimes.WithWorkStealing()); err == nil {
		t.Fatal("WithRealTime + WithWorkStealing accepted")
	}
	env, err := aimes.NewEnv(aimes.WithSeed(1), aimes.WithShards(1), aimes.WithWorkStealing())
	if err != nil {
		t.Fatalf("single-shard WithWorkStealing rejected: %v", err)
	}
	// Inert: a single shard has no peers, so jobs enact synchronously.
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), 2)
	if err != nil {
		t.Fatal(err)
	}
	j, err := env.Submit(context.Background(), w, aimes.JobConfig{StrategyConfig: stealCfg})
	if err != nil {
		t.Fatal(err)
	}
	if j.State() != aimes.JobRunning {
		t.Fatalf("single-shard stealing env queued a job: %v", j.State())
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := env.StealStats(); s.Migrations != 0 || s.ForeignPumps != 0 {
		t.Fatalf("inert environment recorded steal activity: %+v", s)
	}
	// Unknown migrate policy is rejected before placement.
	env2, err := aimes.NewEnv(aimes.WithSeed(2), aimes.WithShards(2), aimes.WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env2.Submit(context.Background(), w, aimes.JobConfig{
		StrategyConfig: stealCfg, Migrate: aimes.MigratePolicy(9),
	}); err == nil || !strings.Contains(err.Error(), "migrate policy") {
		t.Fatalf("unknown migrate policy error = %v", err)
	}
}

// TestConcurrentLeastLoadedReservation is the regression test for the
// stale-load window: placement reserves the job's expected cost under the
// submission lock, so racing Submits can no longer all observe the same
// "least loaded" shard. Equal-cost jobs submitted from many goroutines must
// spread exactly evenly before anything is pumped.
func TestConcurrentLeastLoadedReservation(t *testing.T) {
	const nShards, nJobs = 4, 40
	env, err := aimes.NewEnv(aimes.WithSeed(88), aimes.WithShards(nShards))
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*aimes.Job, nJobs)
	var wg sync.WaitGroup
	for i := 0; i < nJobs; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(8, aimes.UniformDuration()), int64(2000+i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, w *aimes.Workload) {
			defer wg.Done()
			j, err := env.Submit(context.Background(), w, aimes.JobConfig{
				StrategyConfig: stealCfg, Placement: aimes.PlaceLeastLoaded,
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i, w)
	}
	wg.Wait()
	perShard := make([]int, nShards)
	for i, j := range jobs {
		if j == nil {
			t.Fatalf("job %d missing", i)
		}
		perShard[j.Shard()]++
	}
	for k, n := range perShard {
		if n != nJobs/nShards {
			t.Fatalf("shard %d got %d concurrent least-loaded jobs, want %d (distribution %v)",
				k, n, nJobs/nShards, perShard)
		}
	}
	waitAllDeadline(t, jobs, 60*time.Second)
}
