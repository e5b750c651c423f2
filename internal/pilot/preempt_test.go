package pilot

import (
	"testing"
	"time"

	"aimes/internal/sim"
)

// TestPreemptReschedulesUnits kills the fastest pilot mid-run and checks the
// invariants the scenario engine relies on: every unit completes on a
// surviving pilot, none are lost or double-counted, and the preempted pilot
// ends PilotFailed with its reason preserved.
func TestPreemptReschedulesUnits(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 3)
	um := NewUnitManager(h.sys, Backfill{})

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
	if err := um.Submit(unitDescs(16, 10*time.Minute)); err != nil {
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
	for _, u := range um.Units() {
		switch u.State() {
		case UnitDone:
			done++
			if u.Pilot() == pilots[1] {
				onBeta++
			}
		case UnitFailed:
			failed++
		default:
			t.Fatalf("unit %s left in state %v", u.Name(), u.State())
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
	um := NewUnitManager(h.sys, RoundRobin{})

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
	if err := um.Submit(unitDescs(8, time.Minute)); err != nil {
		t.Fatal(err)
	}
	// Beta activates at ~121s; preempt it at 30s, long before activation,
	// while its units are staging or agent-queued.
	h.eng.Schedule(30*time.Second, func() {
		h.pm.Preempt(pilots[1], "maintenance")
	})
	h.eng.Run()

	done := 0
	for _, u := range um.Units() {
		if u.State() == UnitDone {
			done++
		} else {
			t.Fatalf("unit %s stranded in %v", u.Name(), u.State())
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
