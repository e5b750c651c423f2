package aimes

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"aimes/internal/backend"
)

// checkAdmission asserts, for every shard, what the admission gate exists to
// keep true: the queue and the stealer's count of stealable jobs agree (queue
// length = stealable + queued non-migratable), only never-enacted jobs in
// state JobQueued are queued, and the enacted count matches the live
// registry.
func checkAdmission(t *testing.T, e *Environment, step string) {
	t.Helper()
	for _, sh := range e.shards {
		sh.mu.Lock()
		fixed := 0
		for _, j := range sh.adm.queue {
			if !j.migratable {
				fixed++
			}
			if j.State() != JobQueued || j.Namespace() != "" || sh.jobs[j.id] != j {
				t.Errorf("%s: shard %d queues job %d in state %v, namespace %q", step, sh.id, j.id, j.State(), j.Namespace())
			}
		}
		if stealable := int(e.stealer.Queued(sh.id)); len(sh.adm.queue) != stealable+fixed {
			t.Errorf("%s: shard %d queues %d jobs, but %d stealable + %d non-migratable", step, sh.id, len(sh.adm.queue), stealable, fixed)
		}
		if live := len(sh.jobs) - len(sh.adm.queue); sh.adm.running != live {
			t.Errorf("%s: shard %d counts %d running, its registry holds %d enacted", step, sh.id, sh.adm.running, live)
		}
		sh.mu.Unlock()
	}
}

// TestAdmissionKeepsQueueAndStealableCountInStep drives two shards' gates
// through every way a job moves into, out of or past an admission queue —
// submissions that enact and that queue, a respawn's hold / fail / release
// replay, a migrant landing on a full window, cancels of queued and of
// enacted jobs, completions — checking the invariant after each.
func TestAdmissionKeepsQueueAndStealableCountInStep(t *testing.T) {
	e, err := NewEnv(WithSeed(5), WithShards(2), WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	w, err := GenerateWorkload(BagOfTasks(4, UniformDuration()), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StrategyConfig{Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Round-robin over two shards, alternating migrate policy every two
	// submissions: each shard gets 8 jobs — a window of 4 enacted, then two
	// stealable and two non-migratable queued. (Round-robin seals nothing.)
	var jobs []*Job
	queued := func(k int, migratable bool) *Job {
		for _, j := range e.shards[k].adm.queue {
			if j.migratable == migratable {
				return j
			}
		}
		t.Fatalf("shard %d queues no job with migratable=%v", k, migratable)
		return nil
	}
	steps := []struct {
		name string
		do   func()
		want [2][2]int // per shard: running, queued — after the step
	}{
		{"submit 16", func() {
			for i := 0; i < 16; i++ {
				jc := JobConfig{StrategyConfig: cfg}
				if i/2%2 == 1 {
					jc.Migrate = MigrateNever
				}
				j, err := e.Submit(ctx, w, jc)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
				checkAdmission(t, e, fmt.Sprintf("submission %d", i))
			}
		}, [2][2]int{{4, 4}, {4, 4}}},
		{"cancel a queued job", func() { queued(1, false).Cancel("test") }, [2][2]int{{4, 4}, {4, 3}}},
		{"hold, fail the enacted, release: the queue replays", func() {
			sh := e.shards[0]
			sh.sync(func() {
				sh.adm.hold()
				for _, j := range sh.liveJobs(nil) {
					if j.State() == JobRunning {
						j.complete(nil, fmt.Errorf("test: worker died"))
					}
				}
				if sh.adm.running != 0 || sh.adm.depth() != 4 {
					t.Errorf("a held gate admitted: %d running, %d queued", sh.adm.running, sh.adm.depth())
				}
			})
			checkAdmission(t, e, "while held")
			sh.sync(sh.adm.release)
		}, [2][2]int{{4, 0}, {4, 3}}},
		{"land a migrant on a full window", func() {
			// Shard 1 now holds 7 jobs to shard 0's 4: the pending-cost rule
			// lets a queued job move, and shard 0's window is full.
			j := queued(1, true)
			if !e.migrateJob(j) || j.Shard() != 0 || j.State() != JobQueued {
				t.Fatalf("migration: job %d on shard %d in state %v", j.id, j.Shard(), j.State())
			}
		}, [2][2]int{{4, 1}, {4, 2}}},
		{"cancel an enacted job: its slot admits the next", func() {
			sh := e.shards[1]
			for _, j := range sh.liveJobs(nil) {
				if j.State() == JobRunning {
					j.Cancel("test")
					return
				}
			}
		}, [2][2]int{{4, 1}, {4, 1}}},
		{"complete everything", func() {
			for _, j := range jobs {
				j.Wait(ctx)
			}
		}, [2][2]int{{0, 0}, {0, 0}}},
	}
	for _, s := range steps {
		s.do()
		checkAdmission(t, e, s.name)
		for k, l := range e.Loads() {
			if got := [2]int{l.Running, l.Queued}; got != s.want[k] {
				t.Fatalf("%s: shard %d has %d running, %d queued; want %v", s.name, k, l.Running, l.Queued, s.want[k])
			}
		}
	}
	if e.stealer.Queued(0) != 0 || e.stealer.Queued(1) != 0 {
		t.Fatalf("stealable counts %d, %d after every job ended", e.stealer.Queued(0), e.stealer.Queued(1))
	}
}

// admitProbe wraps a shard's backend to see every admission: the gate calls
// Enact under the shard's engine serialization, once per job it lets
// through, before counting it running — so running+1 is what the shard
// holds enacted if the call succeeds.
type admitProbe struct {
	backend.Backend
	sh         *shardEnv
	admissions int
	peak       int
	over       []int // running+1 at each admission past the window
}

func (p *admitProbe) Enact(d *backend.Descriptor) (*backend.Enacted, error) {
	p.admissions++
	n := p.sh.adm.running + 1
	p.peak = max(p.peak, n)
	if n > admitWindow {
		p.over = append(p.over, n)
	}
	return p.Backend.Enact(d)
}

// TestRunningNeverExceedsAdmitWindow floods two stealing shards with 60
// one-task jobs, every other one free to migrate, and checks at every
// admission that no shard holds more than admitWindow jobs enacted.
func TestRunningNeverExceedsAdmitWindow(t *testing.T) {
	floodAdmitWindow(t, func(i int) JobConfig {
		// Round-robin; every other job may migrate.
		if i%2 == 0 {
			return JobConfig{Migrate: MigrateNever}
		}
		return JobConfig{}
	})
}

// TestSealedShardKeepsConstantWindow runs the same flood with every other
// job pinned to shard 0 without migration, which seals it, interleaved with
// least-loaded jobs that may migrate: the sealed shard, too, never holds
// more than admitWindow jobs enacted, and fills exactly that window.
func TestSealedShardKeepsConstantWindow(t *testing.T) {
	e := floodAdmitWindow(t, func(i int) JobConfig {
		if i%2 == 0 {
			return JobConfig{Placement: PlacePinned, Shard: 0}
		}
		return JobConfig{Placement: PlaceLeastLoaded}
	})
	if !e.stealer.Sealed(0) {
		t.Error("the pinned tenant did not seal shard 0")
	}
}

// floodAdmitWindow submits 60 one-task jobs to two stealing shards, job i
// configured by cfg(i), before anyone waits (nothing pumps until a waiter
// does), so every shard fills its window; then it waits on every job at
// once and checks, through a probe on each shard's backend, that no
// admission took a shard past admitWindow and that each shard peaked at it.
func floodAdmitWindow(t *testing.T, cfg func(i int) JobConfig) *Environment {
	t.Helper()
	e, err := NewEnv(WithSeed(314), WithShards(2), WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	probes := make([]*admitProbe, len(e.shards))
	for k, sh := range e.shards {
		probes[k] = &admitProbe{Backend: sh.be, sh: sh}
		sh.be = probes[k]
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var jobs []*Job
	for i := 0; i < 60; i++ {
		w, err := GenerateWorkload(BagOfTasks(1, ConstantSpec(1)), int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		jc := cfg(i)
		jc.StrategyConfig = StrategyConfig{Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 1}
		j, err := e.Submit(ctx, w, jc)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := j.Wait(ctx); err != nil || r.UnitsDone != 1 {
				t.Errorf("job %d: %v, report %+v", j.id, err, r)
			}
		}()
	}
	wg.Wait()
	admissions := 0
	for k, p := range probes {
		admissions += p.admissions
		if len(p.over) > 0 {
			t.Errorf("shard %d enacted past the window of %d: %v", k, admitWindow, p.over)
		}
		if p.peak != admitWindow {
			t.Errorf("shard %d peaked at %d enacted; the flood should fill its window of %d", k, p.peak, admitWindow)
		}
	}
	if admissions != 60 {
		t.Errorf("%d admissions for 60 jobs", admissions)
	}
	return e
}
