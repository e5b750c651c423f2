package aimes

import (
	"context"
	"testing"
	"time"

	"aimes/internal/sim"
	"aimes/internal/site"
)

// pacerRunning reads the flag under the lock that guards it.
func pacerRunning(sh *shardEnv) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.pace.running
}

// pacerStops polls for up to five seconds for the pacer's goroutine to be gone.
func pacerStops(sh *shardEnv) bool {
	for deadline := time.Now().Add(5 * time.Second); pacerRunning(sh); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestRealTimePacerKick: an event armed for earlier than the one the pacer is
// sleeping toward fires when it is due, not when the sleep ends — never
// early, and no later than half a second after (the slack is for a loaded CI
// machine; unloaded it is well under a millisecond). The pacer's goroutine
// exists exactly while events are pending.
func TestRealTimePacerKick(t *testing.T) {
	env, err := NewEnv(WithRealTime())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	sh := env.shards[0]
	eng := sh.local.Engine()
	if pacerRunning(sh) {
		t.Fatal("a pacer runs on an empty queue")
	}

	var distant *sim.Event
	sh.sync(func() { distant = eng.Schedule(time.Hour, func() { t.Error("the event an hour away fired") }) })
	if !pacerRunning(sh) {
		t.Fatal("no pacer although an event is pending")
	}
	time.Sleep(20 * time.Millisecond) // by now it sleeps toward the hour

	const delay, slack = 30 * time.Millisecond, 500 * time.Millisecond
	fired := make(chan time.Time, 1)
	armed := time.Now()
	sh.sync(func() { eng.Schedule(delay, func() { fired <- time.Now() }) })
	select {
	case at := <-fired:
		if took := at.Sub(armed); took < delay || took > delay+slack {
			t.Fatalf("an event armed for %v fired after %v", delay, took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the pacer slept through an event armed for earlier than its wake-up")
	}

	sh.sync(func() { eng.Cancel(distant) })
	if !pacerStops(sh) {
		t.Fatal("the queue drained and the pacer's goroutine is still there")
	}
}

// TestRealTimeEmergentWarmup: a wall-clock environment with an emergent site
// runs the 72 h background warm-up in virtual time, inside NewEnv, and paces
// from there — so NewEnv takes seconds, not days, a job's records are stamped
// after the warm-up, and the background load keeps a pacer alive until Close.
func TestRealTimeEmergentWarmup(t *testing.T) {
	cfg := site.DefaultTestbed()[0]
	cfg.Nodes = 64
	began := time.Now()
	env, err := NewEnv(WithRealTime(), WithSeed(3), WithSites(site.EmergentTestbed([]SiteConfig{cfg}, 0.7, "")...))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if took := time.Since(began); took > 30*time.Second {
		t.Fatalf("NewEnv took %v", took)
	}

	w, err := GenerateWorkload(BagOfTasks(2, UniformDuration()), 3)
	if err != nil {
		t.Fatal(err)
	}
	j, err := env.Submit(context.Background(), w, JobConfig{StrategyConfig: StrategyConfig{Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for ev := range j.Events() {
		// The warm-up leaves the clock at its last event, minutes short of 72 h.
		if ev.Time < 71*time.Hour || ev.Time > 72*time.Hour+time.Since(began) {
			t.Fatalf("the job's first record is stamped %v, want the 72 h warm-up plus the wall time since", ev.Time)
		}
		break
	}
	sh := env.shards[0]
	if !pacerRunning(sh) {
		t.Fatal("no pacer although the background load has events pending")
	}
	j.Cancel("seen enough") // its tasks would take a quarter of an hour each
	if _, err := j.Wait(context.Background()); err != nil || j.State() != JobCanceled {
		t.Fatalf("canceled job: state %v, %v", j.State(), err)
	}
	env.Close()
	if !pacerStops(sh) {
		t.Fatal("a closed wall-clock environment keeps its pacer's goroutine")
	}
}
