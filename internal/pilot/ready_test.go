package pilot

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aimes/internal/skeleton"
)

// eligibleScan is the scan the incremental ready list replaced: every unit
// awaiting placement whose dependencies are all done, in submission order.
func eligibleScan(um *UnitManager) []*Unit {
	var out []*Unit
	for _, u := range um.units {
		if u.state != UnitScheduling {
			continue
		}
		ok := true
		for _, dep := range u.task.Deps {
			ok = ok && um.unit(dep).state == UnitDone
		}
		for _, f := range u.task.Inputs {
			ok = ok && (f.Producer == "" || um.unit(f.Producer).state == UnitDone)
		}
		if ok {
			out = append(out, u)
		}
	}
	return out
}

// randomDAG draws n units named prefix+index whose dependencies — explicit,
// through produced inputs, or both, sometimes repeated — point at earlier
// units of the same batch or at names in earlier.
func randomDAG(rng *rand.Rand, prefix string, n int, earlier []string) []skeleton.Task {
	names := append([]string(nil), earlier...)
	tasks := make([]skeleton.Task, n)
	for i := range tasks {
		d := skeleton.Task{
			ID:       fmt.Sprintf("%s%03d", prefix, i),
			Cores:    []int{1, 1, 1, 2, 4}[rng.Intn(5)],
			Duration: time.Duration(1+rng.Intn(600)) * time.Second,
			Outputs:  []skeleton.File{{Bytes: int64(rng.Intn(2)) << 20}},
		}
		if rng.Intn(2) == 0 {
			d.Inputs = append(d.Inputs, skeleton.File{Bytes: int64(rng.Intn(4)) << 20})
		}
		if len(names) > 0 && rng.Intn(3) == 0 {
			for k := rng.Intn(3); k >= 0; k-- {
				dep := names[rng.Intn(len(names))]
				switch rng.Intn(3) {
				case 0:
					d.Deps = append(d.Deps, dep)
				case 1:
					d.Inputs = append(d.Inputs, skeleton.File{Bytes: 1 << 18, Producer: dep})
				default:
					d.Deps = append(d.Deps, dep)
					d.Inputs = append(d.Inputs, skeleton.File{Bytes: 1 << 18, Producer: dep})
				}
			}
		}
		tasks[i] = d
		names = append(names, d.ID)
	}
	return tasks
}

// TestReadyListMatchesScan drives seeded random DAGs through restarts,
// preemption, walltime retirement, cancellation, a late second submission
// and a pilot registered after it went active, and at every place() compares
// the incrementally maintained ready list with the scan it replaced: the
// same units in the same order.
func TestReadyListMatchesScan(t *testing.T) {
	schedulers := []struct {
		name  string
		sched Scheduler
	}{{"direct", Direct{}}, {"round-robin", RoundRobin{}}, {"backfill", Backfill{}}}
	for _, s := range schedulers {
		sched := s.sched
		for seed := int64(1); seed <= 25; seed++ {
			t.Run(fmt.Sprintf("%s/%d", s.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := DefaultConfig()
				cfg.UnitFailureProb = 0.15
				h := newHarness(t, cfg, seed)
				um := new(UnitManager).Init(h.sys, sched)

				places, offered := 0, 0
				um.onPlace = func(ready []*Unit) {
					places++
					offered += len(ready)
					if want := eligibleScan(um); !sameUnits(ready, want) {
						t.Fatalf("at %v place() offers %v, the scan finds %v", h.eng.Now(), unitNames(ready), unitNames(want))
					}
				}

				submit := func(resource string, cores int, walltime time.Duration) *Pilot {
					p, err := h.pm.Submit(PilotDescription{Resource: resource, Cores: cores, Walltime: walltime})
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				// alpha is active at 61 s, beta at 121 s, gamma at 181 s. beta's
				// walltime runs out mid-workload; gamma is registered only
				// after it is already active.
				pilots := []*Pilot{
					submit("alpha", 8, 6*time.Hour),
					submit("beta", 4+rng.Intn(8), time.Duration(10+rng.Intn(30))*time.Minute),
				}
				for _, p := range pilots {
					um.AddPilot(p)
				}
				late := submit("gamma", 8, 6*time.Hour)
				h.eng.Schedule(time.Duration(200+rng.Intn(1200))*time.Second, func() { um.AddPilot(late) })

				first := randomDAG(rng, "a", 40+rng.Intn(60), nil)
				_, x := indexed(t, first)
				if err := um.Submit(first, x); err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, d := range first {
					names = append(names, d.ID)
				}
				second := randomDAG(rng, "b", 20+rng.Intn(20), names)
				h.eng.Schedule(time.Duration(rng.Intn(1800))*time.Second, func() {
					if err := x.Add(second); err != nil {
						t.Fatal(err)
					}
					if err := um.Submit(second, x); err != nil {
						t.Error(err)
					}
				})
				h.eng.Schedule(time.Duration(70+rng.Intn(1500))*time.Second, func() {
					h.pm.Preempt(pilots[0], "reclaimed")
				})
				for k := rng.Intn(8); k > 0; k-- {
					victim := first[rng.Intn(len(first))].ID
					h.eng.Schedule(time.Duration(rng.Intn(2400))*time.Second, func() {
						um.Cancel(um.unit(victim))
					})
				}
				h.eng.Run()

				if places == 0 || offered == 0 {
					t.Fatalf("hook saw %d place() calls offering %d units", places, offered)
				}
				for _, u := range um.units {
					if !u.State().Final() {
						t.Fatalf("unit %s left in %v", u.task.ID, u.State())
					}
				}
			})
		}
	}
}

func sameUnits(a, b []*Unit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func unitNames(us []*Unit) []string {
	out := make([]string, len(us))
	for i, u := range us {
		out[i] = u.task.ID
	}
	return out
}

// dependentsOf reads a unit's list of dependents out of its manager's edges.
func dependentsOf(um *UnitManager, u *Unit) []*Unit {
	var out []*Unit
	for e := u.dependents; e != 0; e = um.edges[e-1].next {
		out = append(out, um.units[um.edges[e-1].unit])
	}
	return out
}

// TestSubmitDependencyOrder pins how Submit resolves a unit's dependencies:
// explicit Deps, then input producers, each once — counted in the unit and
// listed once with each producer — without writing the caller's tasks.
func TestSubmitDependencyOrder(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	um := new(UnitManager).Init(h.sys, Backfill{})
	tasks := []skeleton.Task{
		{ID: "p", Cores: 1}, {ID: "q", Cores: 1}, {ID: "r", Cores: 1},
		{ID: "u", Cores: 1, Deps: []string{"r", "p", "r"},
			Inputs: []skeleton.File{{Bytes: 1}, {Bytes: 1, Producer: "q"}, {Bytes: 1, Producer: "p"}}},
	}
	if err := um.Submit(indexed(t, tasks)); err != nil {
		t.Fatal(err)
	}
	u := um.unit("u")
	if u.openDeps != 3 {
		t.Fatalf("u waits for %d dependencies, want 3", u.openDeps)
	}
	for _, id := range []string{"p", "q", "r"} {
		if got := dependentsOf(um, um.unit(id)); len(got) != 1 || got[0] != u {
			t.Fatalf("%s's dependents = %v, want [u]", id, unitNames(got))
		}
	}
	if got, want := tasks[3].Deps, []string{"r", "p", "r"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Submit rewrote the caller's deps to %v", got)
	}
}

// backfillFullScan is Backfill.Place as it was before it stopped at the
// first moment no active pilot had a free core: the pilot it would bind each
// unit of ready to, nil for none.
func backfillFullScan(ready []*Unit, pilots []*Pilot) []*Pilot {
	out := make([]*Pilot, len(ready))
	free := make(map[*Pilot]int, len(pilots))
	for _, p := range pilots {
		if p.State() == PilotActive {
			free[p] = p.desc.Cores - p.committed
		}
	}
	for i, u := range ready {
		for _, p := range pilots {
			if p.State() != PilotActive {
				continue
			}
			if free[p] >= u.task.Cores {
				free[p] -= u.task.Cores
				out[i] = p
				break
			}
		}
	}
	return out
}

// TestBackfillEarlyExitMatchesFullScan compares the two on random inputs,
// including over-committed pilots, pilots in every state, more active pilots
// than the stack buffer holds and units wider than any pilot. Place binds as
// it decides, so each unit's pilot afterwards is what it decided.
func TestBackfillEarlyExitMatchesFullScan(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	rng := rand.New(rand.NewSource(20260928))
	states := []PilotState{PilotNew, PilotPending, PilotActive, PilotActive, PilotActive, PilotDone, PilotFailed}
	for round := 0; round < 2000; round++ {
		um := new(UnitManager).Init(h.sys, Backfill{})
		um.ids = "unit." // every unit's, its task has no ID
		um.pilots = make([]*Pilot, rng.Intn(12))
		um.inDetails = make([]stageDetail, len(um.pilots))
		for i := range um.pilots {
			p := &Pilot{state: states[rng.Intn(len(states))], desc: PilotDescription{Resource: "alpha", Cores: 1 + rng.Intn(16)}}
			um.pilots[i] = p
			if rng.Intn(2) == 0 {
				p.committed = rng.Intn(p.desc.Cores + 3)
			}
		}
		ready := make([]*Unit, rng.Intn(40))
		for i := range ready {
			task := &skeleton.Task{Cores: 1 + rng.Intn(1+rng.Intn(20)), Inputs: []skeleton.File{{Bytes: 1}}}
			ready[i] = &Unit{task: task, um: um, state: UnitScheduling}
		}
		want := backfillFullScan(ready, um.pilots)
		bound := Backfill{}.Place(um, ready)
		got := make([]*Pilot, len(ready))
		n, m := 0, 0
		for i, u := range ready {
			if got[i] = u.Pilot(); got[i] != nil {
				n++
			}
			if want[i] != nil {
				m++
			}
		}
		if !reflect.DeepEqual(got, want) || bound != n {
			t.Fatalf("round %d: early exit binds %d units (reports %d), full scan %d", round, n, bound, m)
		}
	}
}
