package aimes

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPendingCostMigrationRule pins the migration gate at its boundary: a
// queued job moves only when the destination, having received it, holds no
// more pending cost than the origin without it (dest + cost ≤ origin −
// cost), and a cost below one milli-core-second counts as one. The
// lock-free pre-check waiters poll must agree with the rule.
func TestPendingCostMigrationRule(t *testing.T) {
	e, err := NewEnv(WithSeed(5), WithShards(2), WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	origin, dest := e.shards[0], e.shards[1]
	for _, c := range []struct {
		name               string
		origin, dest, cost int64
		want               bool
	}{
		{"equal", 10000, 8200, 900, true}, // 8200+900 == 10000-900
		{"one unit over", 10000, 8201, 900, false},
		{"one unit under", 10000, 8199, 900, true},
		{"empty destination at the boundary", 1800, 0, 900, true},
		{"cost below the floor, equal shards", 5000, 5000, 0, false},
		{"cost below the floor, one unit apart", 5000, 4999, 0, false},
		{"cost below the floor, two units apart", 5000, 4998, 0, true},
	} {
		if got := pays(c.origin, c.dest, c.cost); got != c.want {
			t.Errorf("%s: pays(origin %d, dest %d, cost %d) = %v, want %v", c.name, c.origin, c.dest, c.cost, got, c.want)
		}
		origin.pendingCost.Store(c.origin)
		dest.pendingCost.Store(c.dest)
		if got := e.migrationCandidate(origin, c.cost); got != c.want {
			t.Errorf("%s: the pre-check says %v, the rule %v", c.name, got, c.want)
		}
	}
	origin.pendingCost.Store(0)
	dest.pendingCost.Store(0)
}

// TestPendingCostDrainsToZero: a shard's pendingCost is reserved on
// Submit, moved with each migration and released once at each job's end, so
// however tenants place, migrate and cancel, a drained environment holds
// none and owns no job. Four concurrent tenants — least-loaded, predictive
// and two pinned to shard 0 but migratable — submit to three stealing
// shards; one job in three is cancelled, the tenants wait on half of their
// jobs, and Drain finishes the rest.
func TestPendingCostDrainsToZero(t *testing.T) {
	const perTenant = 32
	e, err := NewEnv(WithSeed(41), WithShards(3), WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	tenants := []JobConfig{
		{Placement: PlaceLeastLoaded},
		{Placement: PlacePredictive},
		{Placement: PlacePinned, Shard: 0, Migrate: MigrateAllow},
		{Placement: PlacePinned, Shard: 0, Migrate: MigrateAllow},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(tenants))
	for ti, cfg := range tenants {
		cfg.StrategyConfig = StrategyConfig{Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var jobs []*Job
			for i := 0; i < perTenant; i++ {
				w, err := GenerateWorkload(BagOfTasks(4+4*(i%3), UniformDuration()), int64(100*ti+i))
				if err != nil {
					errs <- err
					return
				}
				j, err := e.Submit(ctx, w, cfg)
				if err != nil {
					errs <- err
					return
				}
				if i%3 == 2 {
					j.Cancel("tenant cancel")
				}
				jobs = append(jobs, j)
			}
			for i := 0; i < len(jobs); i += 2 {
				if _, err := jobs[i].Wait(ctx); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for k, sh := range e.shards {
		var live int
		sh.sync(func() { live = len(sh.jobs) })
		if p := sh.pendingCost.Load(); p != 0 || live != 0 {
			t.Errorf("shard %d after Drain: pendingCost %d, %d jobs; want 0 and none", k, p, live)
		}
	}
	s := e.StealStats()
	if s.Migrations == 0 {
		t.Fatal("no job migrated: the test did not exercise the handoff")
	}
	t.Logf("%d migrations", s.Migrations)
}

// TestStealVetoIsCounted: a queued job's waiter finds a
// destination the rule allows, but before it takes the submission lock a
// concurrent submission reserves enough cost there to take the margin. The
// locked re-check refuses the move: the job stays, and StealStats counts
// one veto and no migration.
func TestStealVetoIsCounted(t *testing.T) {
	e, err := NewEnv(WithSeed(5), WithShards(2), WithWorkStealing())
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
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := e.Submit(ctx, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	origin, dest := e.shards[0], e.shards[1]
	j := jobs[len(jobs)-1]
	if j.State() != JobQueued || !e.migrationCandidate(origin, j.cost) {
		t.Fatalf("job %v, pre-check %v: want a queued job the rule lets move", j.State(), e.migrationCandidate(origin, j.cost))
	}

	// Hold the submission lock as a submission in progress would, and let
	// the migration run until it waits for that lock, past its pre-check.
	e.jobMu.Lock()
	moved := make(chan bool)
	go func() { moved <- e.migrateJob(j) }()
	for !blockedIn("aimes.(*Environment).migrateJob", "[sync.Mutex.Lock") {
		runtime.Gosched()
	}
	reserved := origin.pendingCost.Load()
	dest.pendingCost.Add(reserved) // the submission's reservation
	e.jobMu.Unlock()
	if <-moved {
		t.Fatalf("job migrated to shard %d", j.Shard())
	}
	dest.pendingCost.Add(-reserved)
	if s := e.StealStats(); s.Vetoed != 1 || s.Migrations != 0 || j.Shard() != 0 {
		t.Fatalf("stats %+v, job on shard %d; want one veto, no migration, the job on shard 0", s, j.Shard())
	}
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// blockedIn reports whether some goroutine whose stack passes through fn is
// parked with the given wait reason.
func blockedIn(fn, reason string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, reason) && strings.Contains(g, fn) {
			return true
		}
	}
	return false
}
