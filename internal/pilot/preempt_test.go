package pilot

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"aimes/internal/sim"
	"aimes/internal/skeleton"
)

// TestPreemptReschedulesUnits kills the fastest pilot mid-run and checks the
// invariants the scenario engine relies on: every unit completes on a
// surviving pilot, none are lost or double-counted, and the preempted pilot
// ends PilotFailed with its reason preserved.
func TestPreemptReschedulesUnits(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 3)
	um := new(UnitManager).Init(h.sys, Backfill{})

	// Two pilots: alpha activates at ~61s, beta at ~121s (deterministic
	// sigma-0 waits). 16 one-core units of 10m keep alpha busy well past
	// beta's activation.
	var pilots []*Pilot
	for _, r := range []string{"alpha", "beta"} {
		p, err := h.pm.Submit(PilotDescription{Resource: r, Cores: 8, Walltime: 4 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		um.AddPilot(p)
		pilots = append(pilots, p)
	}
	if err := um.Submit(indexed(t, unitTasks(16, 10*time.Minute))); err != nil {
		t.Fatal(err)
	}

	// Preempt alpha at t=5m: its first wave is executing, the rest of its
	// share is agent-queued or staged.
	h.eng.Schedule(5*time.Minute, func() {
		h.pm.Preempt(pilots[0], "spot reclaim")
	})
	h.eng.Run()

	if got := pilots[0].State(); got != PilotFailed {
		t.Fatalf("preempted pilot state = %v, want FAILED", got)
	}
	done, failed, onBeta := 0, 0, 0
	for _, u := range um.units {
		switch u.State() {
		case UnitDone:
			done++
			if u.Pilot() == pilots[1] {
				onBeta++
			}
		case UnitFailed:
			failed++
		default:
			t.Fatalf("unit %s left in state %v", u.task.ID, u.State())
		}
	}
	if done != 16 || failed != 0 {
		t.Fatalf("done = %d, failed = %d, want 16/0", done, failed)
	}
	if onBeta != 16 {
		t.Fatalf("units completed on surviving pilot = %d, want 16", onBeta)
	}
	// Preemption reason must be recoverable from the trace.
	if rec, ok := h.rec.First(pilots[0].ID(), "FAILED"); !ok || rec.Detail != "preempted: spot reclaim" {
		t.Fatalf("preemption reason missing from trace: %+v", rec)
	}
}

// TestPreemptBeforeActivation preempts a pilot still queued; units bound to
// it (early binding) must be reclaimed and rescheduled rather than stranded.
func TestPreemptBeforeActivation(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 4)
	um := new(UnitManager).Init(h.sys, RoundRobin{})

	var pilots []*Pilot
	for _, r := range []string{"alpha", "beta"} {
		p, err := h.pm.Submit(PilotDescription{Resource: r, Cores: 8, Walltime: 2 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		um.AddPilot(p)
		pilots = append(pilots, p)
	}
	// Round-robin binds half the units to each pilot at submission.
	if err := um.Submit(indexed(t, unitTasks(8, time.Minute))); err != nil {
		t.Fatal(err)
	}
	// Beta activates at ~121s; preempt it at 30s, long before activation,
	// while its units are staging or agent-queued.
	h.eng.Schedule(30*time.Second, func() {
		h.pm.Preempt(pilots[1], "maintenance")
	})
	h.eng.Run()

	done := 0
	for _, u := range um.units {
		if u.State() == UnitDone {
			done++
		} else {
			t.Fatalf("unit %s stranded in %v", u.task.ID, u.State())
		}
	}
	if done != 8 {
		t.Fatalf("done = %d, want 8", done)
	}
}

// TestPreemptFinalPilotNoop checks Preempt on an already-final pilot does
// nothing.
func TestPreemptFinalPilotNoop(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 5)
	p, err := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	h.pm.Cancel(p)
	if p.State() != PilotCanceled {
		t.Fatalf("state = %v", p.State())
	}
	h.pm.Preempt(p, "too late")
	if p.State() != PilotCanceled {
		t.Fatalf("Preempt overrode final state: %v", p.State())
	}
	h.eng.Run()
}

// TestOnStateCallback checks the exported pilot state hook fires for every
// subsequent transition — the mechanism core uses for lost-pilot replanning.
func TestOnStateCallback(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 6)
	p, err := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var states []PilotState
	p.OnState(func(p *Pilot) { states = append(states, p.State()) })
	h.eng.RunUntil(sim.Time(5 * time.Minute))
	h.pm.Preempt(p, "test")
	want := []PilotState{PilotPending, PilotActive, PilotFailed}
	if len(states) < 3 {
		t.Fatalf("observed states %v, want at least %v", states, want)
	}
	last := states[len(states)-1]
	if last != PilotFailed {
		t.Fatalf("last observed state = %v, want FAILED", last)
	}
}

// TestPreemptSweepSharedTimer preempts one of two late-binding pilots at
// seeded virtual times across a job with dependencies and failure injection,
// so the preemption finds the pilot's units staging input, agent-queued,
// executing (restarts included) and staging output. A unit's run ends on its
// staging transfer's timer; whichever of the two the timer carries when the
// pilot dies, every unit ends exactly once with no record after its end, the
// job completes once, and once the job and its pilots are done nothing the
// pilot layer armed for a later time is left queued.
func TestPreemptSweepSharedTimer(t *testing.T) {
	const units, sweeps = 24, 160
	tasks := make([]skeleton.Task, units)
	for i := range tasks {
		tasks[i] = skeleton.Task{
			ID:       nameOf(i),
			Cores:    1 + i%2,
			Duration: time.Duration(2+i%5) * time.Minute,
			Inputs:   []skeleton.File{{Bytes: 20 << 20}},
			Outputs:  []skeleton.File{{Bytes: 30 << 20}},
		}
		if i >= 8 { // a second and a third wave, each fed by the one before
			tasks[i].Inputs = append(tasks[i].Inputs, skeleton.File{Bytes: 4 << 20, Producer: nameOf(i - 8)})
		}
		if i >= 16 {
			tasks[i].Deps = []string{nameOf(i - 15)}
		}
	}
	caught := make(map[string]int) // what the preemption found, over the sweep
	rng := rand.New(rand.NewSource(20260928))
	for sweep := 0; sweep < sweeps; sweep++ {
		cfg := DefaultConfig()
		cfg.UnitFailureProb = 0.3
		cfg.AgentDispatchOverhead = 15 * time.Second // so units wait in the agent's queue
		h := newHarness(t, cfg, int64(1000+sweep))
		um := new(UnitManager).Init(h.sys, Backfill{})
		var pilots []*Pilot
		for _, r := range []string{"alpha", "beta"} {
			p, err := h.pm.Submit(PilotDescription{Resource: r, Cores: 8, Walltime: 6 * time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			um.AddPilot(p)
			pilots = append(pilots, p)
		}
		victim := pilots[sweep%2]
		at := time.Duration(rng.Int63n(int64(40 * time.Minute)))
		preempt := h.eng.Schedule(at, func() {
			for _, u := range um.units {
				if u.pilot != victim {
					continue
				}
				switch {
				case u.state == UnitExecuting && u.attempts > 0:
					caught["restarted and executing"]++
				case u.state == UnitAgentQueued && u.attempts > 0:
					caught["restarted and queued"]++
				case !u.state.Final():
					caught[u.state.String()]++
				}
			}
			h.pm.Preempt(victim, "sweep")
		})
		completions, doneAt := 0, sim.Time(-1)
		um.OnCompletion(sim.Func(func() {
			completions++
			h.pm.CancelAll()
			h.eng.Cancel(preempt)
			doneAt = h.eng.Now()
		}))
		if err := um.Submit(indexed(t, tasks)); err != nil {
			t.Fatal(err)
		}
		h.eng.Run()

		if completions != 1 {
			t.Fatalf("sweep %d (preempt %s at %v): OnCompletion fired %d times", sweep, victim.ID(), at, completions)
		}
		// Only what was due at the teardown's instant may still have fired:
		// a timer left armed for a later time would have moved the clock.
		if h.eng.Pending() != 0 || h.eng.Now() != doneAt {
			t.Fatalf("sweep %d (preempt %s at %v): %d events queued after Run, clock at %v, job torn down at %v",
				sweep, victim.ID(), at, h.eng.Pending(), h.eng.Now(), doneAt)
		}
		ended := make(map[string]string)
		for _, r := range h.rec.Records() {
			if !strings.HasPrefix(r.Entity, "unit.") {
				continue
			}
			if end, ok := ended[r.Entity]; ok {
				t.Fatalf("sweep %d (preempt %s at %v): %s recorded %s after it ended %s",
					sweep, victim.ID(), at, r.Entity, r.State, end)
			}
			switch r.State {
			case UnitDone.String(), UnitFailed.String(), UnitCanceled.String():
				ended[r.Entity] = r.State
			}
		}
		if len(ended) != units {
			t.Fatalf("sweep %d (preempt %s at %v): %d units ended, want %d", sweep, victim.ID(), at, len(ended), units)
		}
	}
	for _, state := range []string{"STAGING_INPUT", "AGENT_QUEUED", "EXECUTING", "STAGING_OUTPUT", "restarted and executing"} {
		if caught[state] == 0 {
			t.Errorf("no preemption caught a unit %s; caught %v", state, caught)
		}
	}
	t.Logf("units the preemptions caught: %v", caught)
}
