package aimes

import (
	"context"
	"fmt"
	"testing"
	"time"
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
// submissions that enact and that queue, a migrant landing on a full window,
// a respawn's hold / fail / release replay, cancels of queued and of enacted
// jobs, a stall-style withdrawal, completions — checking the invariant after
// each.
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
		{"land a migrant on a full window", func() {
			j := queued(0, true)
			if !e.migrateJob(j, true) || j.Shard() != 1 || j.State() != JobQueued {
				t.Fatalf("forced migration: job %d on shard %d in state %v", j.id, j.Shard(), j.State())
			}
		}, [2][2]int{{4, 3}, {4, 5}}},
		{"cancel a queued job", func() { queued(1, false).Cancel("test") }, [2][2]int{{4, 3}, {4, 4}}},
		{"withdraw a stalled job", func() {
			j, sh := queued(0, false), e.shards[0]
			j.failStalled(sh)
			if j.State() != JobFailed {
				t.Fatalf("stalled job is %v", j.State())
			}
		}, [2][2]int{{4, 2}, {4, 4}}},
		{"hold, fail the enacted, release: the queue replays", func() {
			sh := e.shards[0]
			sh.sync(func() {
				sh.adm.hold()
				for _, j := range sh.liveJobs(nil) {
					if j.State() == JobRunning {
						j.complete(nil, fmt.Errorf("test: worker died"))
					}
				}
				if sh.adm.running != 0 || sh.adm.depth() != 2 {
					t.Errorf("a held gate admitted: %d running, %d queued", sh.adm.running, sh.adm.depth())
				}
			})
			checkAdmission(t, e, "while held")
			sh.sync(sh.adm.release)
		}, [2][2]int{{2, 0}, {4, 4}}},
		{"cancel an enacted job: its slot admits the next", func() {
			sh := e.shards[1]
			for _, j := range sh.liveJobs(nil) {
				if j.State() == JobRunning {
					j.Cancel("test")
					return
				}
			}
		}, [2][2]int{{2, 0}, {4, 3}}},
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
