package pilot

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"aimes/internal/sim"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// pickNextScan is the scan agent.pickNext replaced, on a plain slice: the
// first queued unit that fits is cut out with a memmove, and an entry that
// left UnitAgentQueued is cut out the same way before the scan starts over.
func pickNextScan(backlog *[]*Unit, free int) *Unit {
	for i, u := range *backlog {
		if u.state != UnitAgentQueued {
			*backlog = append((*backlog)[:i], (*backlog)[i+1:]...)
			return pickNextScan(backlog, free)
		}
		if u.task.Cores <= free {
			*backlog = append((*backlog)[:i], (*backlog)[i+1:]...)
			return u
		}
	}
	return nil
}

// TestPickNextMatchesScan holds the O(1) pop to the scan it replaced on
// seeded backlogs of mixed core counts: units arrive, some are canceled while
// queued, the free cores move, and after every pick both agree on the unit
// and on what is still queued. It also checks what the rewrite is for: no
// slot outside the queue holds a unit, and the array stays within twice the
// queue rather than growing with every unit ever enqueued.
func TestPickNextMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := &agent{cores: 8, next: &Unit{}} // a busy dispatcher: enqueue only queues
		var old []*Unit
		var all []*Unit
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(10); {
			case r < 4:
				u := &Unit{state: UnitAgentQueued, task: &skeleton.Task{Cores: []int{1, 1, 1, 2, 4, 8}[rng.Intn(6)]}}
				all = append(all, u)
				a.enqueue(u)
				old = append(old, u)
				if a.head > len(a.backlog)/2 {
					t.Fatalf("seed %d step %d: %d vacated slots kept under a queue of %d",
						seed, step, a.head, len(a.backlog)-a.head)
				}
			case r < 5 && len(all) > 0:
				all[rng.Intn(len(all))].state = UnitCanceled // perhaps while queued
			case r < 6:
				a.used = rng.Intn(a.cores + 1)
			default:
				got, want := a.pickNext(), pickNextScan(&old, a.freeCores())
				if got != want {
					t.Fatalf("seed %d step %d: picked %p, the scan picked %p", seed, step, got, want)
				}
				if !slices.Equal(a.backlog[a.head:], old) {
					t.Fatalf("seed %d step %d: %d units left queued, the scan left %d (or in another order)",
						seed, step, len(a.backlog)-a.head, len(old))
				}
				if got != nil {
					got.state = UnitExecuting
				}
			}
			full := a.backlog[:cap(a.backlog)]
			for i, u := range full {
				if inQueue := i >= a.head && i < len(a.backlog); u != nil && !inQueue {
					t.Fatalf("seed %d step %d: slot %d outside the queue [%d,%d) still holds a unit",
						seed, step, i, a.head, len(a.backlog))
				}
			}
		}
	}
}

// TestPlaceRoundTripAllocatesNothing: a coalesced place is the manager's own
// event on the engine's same-instant lane.
func TestPlaceRoundTripAllocatesNothing(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	um := new(UnitManager).Init(h.sys, Backfill{})
	round := func() {
		um.schedulePlace()
		um.schedulePlace() // coalesced
		h.eng.Step()
	}
	round()
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("schedulePlace + Step allocates %.0f objects, want 0", a)
	}
	if h.eng.Pending() != 0 || um.placeQueued {
		t.Fatalf("place still queued: %d pending events", h.eng.Pending())
	}
}

// TestUnitTripAllocatesItsStateOnly pins what one unit costs the engine. A
// 512-unit bag goes through submit, place, input staging, dispatch,
// execution and output staging on one 64-core pilot. Per unit that allocates
// nothing: the place its freed core triggers (the bag is eight times the
// pilot) appends to the manager's one assignment list. Everything is per
// Submit — the slab of units with their transfers (and so the timers their
// runs end on) inside, the string their trace ids are cut from, the
// manager's pre-sized slices and map — or the amortized growth of the
// recorder: no event, no transfer, no closure, no detail. (0.1 objects per
// unit measured; a list per place is 1.)
func TestUnitTripAllocatesItsStateOnly(t *testing.T) {
	const units, ceiling = 512, 0.5
	h := newHarness(t, DefaultConfig(), 1)
	tasks := unitTasks(units, time.Minute)
	for i := range tasks {
		tasks[i].ID = "bag-" + nameOf(i)
	}
	done := 0
	perRun := testing.AllocsPerRun(5, func() {
		um := new(UnitManager).Init(h.sys, Backfill{})
		p, err := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 64, Walltime: 24 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		um.AddPilot(p)
		um.OnCompletion(sim.Func(func() { h.pm.Cancel(p) }))
		if err := um.Submit(indexed(t, tasks)); err != nil {
			t.Fatal(err)
		}
		h.eng.Run()
		for _, u := range um.units {
			if u.state == UnitDone {
				done++
			}
		}
	})
	if done != 6*units {
		t.Fatalf("%d units done over 6 runs, want %d", done, 6*units)
	}
	if perUnit := perRun / units; perUnit > ceiling {
		t.Errorf("one unit's trip allocates %.1f objects, want at most %.1f", perUnit, ceiling)
	} else {
		t.Logf("%.1f allocations per unit", perUnit)
	}
}

// TestCancelExecutingUnit: canceling a unit while it runs ends its run — its
// trace ends at CANCELED, it is counted once, and its cores go back to the
// agent, which launches the unit queued behind it then and there, not when
// the canceled run would have ended.
func TestCancelExecutingUnit(t *testing.T) {
	for _, queued := range []int{0, 1} {
		h := newHarness(t, DefaultConfig(), 4)
		um := new(UnitManager).Init(h.sys, Direct{})
		p, err := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 2, Walltime: 2 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		um.AddPilot(p)
		um.OnCompletion(sim.Func(h.pm.CancelAll))
		if err := um.Submit(indexed(t, unitTasks(2+queued, 10*time.Minute))); err != nil {
			t.Fatal(err)
		}
		victim := um.unit(nameOf(0))
		h.eng.Schedule(5*time.Minute, func() {
			if victim.State() != UnitExecuting {
				t.Fatalf("the unit is %v at 5 min, want EXECUTING", victim.State())
			}
			um.Cancel(victim)
			if a := &p.agent; a.used != 1 || len(a.running) != 1 {
				t.Errorf("after the cancel the agent uses %d cores and runs %d units, want 1 and 1", a.used, len(a.running))
			}
		})
		h.eng.Run()
		var last trace.Record
		for _, r := range h.rec.Records() {
			if r.Entity == victim.name().String() {
				last = r
			}
		}
		if last.State != UnitCanceled.String() || last.Time != sim.Time(5*time.Minute) {
			t.Errorf("%d queued: the canceled unit's last record is %s at %v, want CANCELED at 5m0s", queued, last.State, last.Time)
		}
		if !finished(um) || um.doneCount != len(um.units) {
			t.Errorf("%d queued: %d of %d units counted final", queued, um.doneCount, len(um.units))
		}
		if queued > 0 {
			started, _ := h.rec.First(um.unit(nameOf(2)).name().String(), UnitExecuting.String())
			if started.Time > sim.Time(6*time.Minute) {
				t.Errorf("the queued unit started at %v, want right after the cancel at 5m0s", started.Time)
			}
		}
		if p.agent.used != 0 {
			t.Fatalf("%d queued: the agent still uses %d cores", queued, p.agent.used)
		}
	}
}
