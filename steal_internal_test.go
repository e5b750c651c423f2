package aimes

import (
	"context"
	"testing"
	"time"

	"aimes/internal/model"
)

// TestStealVetoIsCounted: a queued job has a destination where moving pays,
// but the destination the handoff picks — the one predicted to finish the job
// soonest — is slow enough that the benefit gate refuses it. The job stays,
// and StealStats counts one veto and no migration.
func TestStealVetoIsCounted(t *testing.T) {
	e, err := NewEnv(WithSeed(5), WithShards(3), WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	w, err := GenerateWorkload(BagOfTasks(4, UniformDuration()), 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := JobConfig{
		StrategyConfig: StrategyConfig{Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 1},
		Placement:      PlacePinned, Shard: 0, Migrate: MigrateAllow,
	}
	for i := 0; i < 8; i++ {
		if _, err := e.Submit(ctx, w, cfg); err != nil {
			t.Fatal(err)
		}
	}
	origin := e.shards[0]
	origin.mu.Lock()
	if len(origin.adm.queue) == 0 {
		origin.mu.Unlock()
		t.Fatal("shard 0 queues no job")
	}
	j := origin.adm.queue[0]
	origin.mu.Unlock()

	// Fit the shards (virtual seconds, for a job of j's demand c): staying
	// on shard 0 takes 600; shard 1 finishes the job soonest (no wait, 360
	// of service) but would itself need 720 to pay; shard 2 finishes it at
	// 400 (300 wait, 100 service) and pays at 500.
	c := float64(j.cost) / 1000
	pending := float64(origin.pendingCost.Load()) / 1000
	for i := 0; i < 200; i++ {
		e.model.Observe(model.Observation{Shard: 0, Cost: pending, Wait: 0, TTC: 600})
		e.model.Observe(model.Observation{Shard: 1, Cost: c, Wait: 0, TTC: 360})
		e.model.Observe(model.Observation{Shard: 2, Cost: c, Wait: 300, TTC: 400})
	}
	if !e.migrationCandidate(origin, j.cost) {
		t.Fatal("no shard where moving pays: the fits do not set up a veto")
	}
	if e.migrateJob(j, false) {
		t.Fatalf("job migrated to shard %d", j.Shard())
	}
	if s := e.StealStats(); s.Vetoed != 1 || s.Migrations != 0 || j.Shard() != 0 {
		t.Fatalf("stats %+v, job on shard %d; want one veto, no migration, the job on shard 0", s, j.Shard())
	}
}
