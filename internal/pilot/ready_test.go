package pilot

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
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
		for _, dep := range u.desc.Deps {
			if d := um.byName[dep]; d == nil || d.state != UnitDone {
				ok = false
				break
			}
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
func randomDAG(rng *rand.Rand, prefix string, n int, earlier []string) []UnitDescription {
	names := append([]string(nil), earlier...)
	descs := make([]UnitDescription, n)
	for i := range descs {
		d := UnitDescription{
			Name:        fmt.Sprintf("%s%03d", prefix, i),
			Cores:       []int{1, 1, 1, 2, 4}[rng.Intn(5)],
			Duration:    time.Duration(1+rng.Intn(600)) * time.Second,
			OutputBytes: int64(rng.Intn(2)) << 20,
		}
		if rng.Intn(2) == 0 {
			d.Inputs = append(d.Inputs, InputFile{Bytes: int64(rng.Intn(4)) << 20})
		}
		if len(names) > 0 && rng.Intn(3) == 0 {
			for k := rng.Intn(3); k >= 0; k-- {
				dep := names[rng.Intn(len(names))]
				switch rng.Intn(3) {
				case 0:
					d.Deps = append(d.Deps, dep)
				case 1:
					d.Inputs = append(d.Inputs, InputFile{Bytes: 1 << 18, Producer: dep})
				default:
					d.Deps = append(d.Deps, dep)
					d.Inputs = append(d.Inputs, InputFile{Bytes: 1 << 18, Producer: dep})
				}
			}
		}
		descs[i] = d
		names = append(names, d.Name)
	}
	return descs
}

// TestReadyListMatchesScan drives seeded random DAGs through restarts,
// preemption, walltime retirement, cancellation, a late second submission
// and a pilot registered after it went active, and at every place() compares
// the incrementally maintained ready list with the scan it replaced: the
// same units in the same order.
func TestReadyListMatchesScan(t *testing.T) {
	schedulers := []Scheduler{Direct{}, RoundRobin{}, Backfill{}}
	for _, sched := range schedulers {
		for seed := int64(1); seed <= 25; seed++ {
			t.Run(fmt.Sprintf("%s/%d", sched.Name(), seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := DefaultConfig()
				cfg.UnitFailureProb = 0.15
				cfg.DefaultMaxRestarts = 2
				h := newHarness(t, cfg, seed)
				um := NewUnitManager(h.sys, sched)

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
				if err := um.Submit(first); err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, d := range first {
					names = append(names, d.Name)
				}
				second := randomDAG(rng, "b", 20+rng.Intn(20), names)
				h.eng.Schedule(time.Duration(rng.Intn(1800))*time.Second, func() {
					if err := um.Submit(second); err != nil {
						t.Error(err)
					}
				})
				h.eng.Schedule(time.Duration(70+rng.Intn(1500))*time.Second, func() {
					h.pm.Preempt(pilots[0], "reclaimed")
				})
				for k := rng.Intn(8); k > 0; k-- {
					victim := first[rng.Intn(len(first))].Name
					h.eng.Schedule(time.Duration(rng.Intn(2400))*time.Second, func() {
						um.Cancel(um.Unit(victim))
					})
				}
				h.eng.Run()

				if places == 0 || offered == 0 {
					t.Fatalf("hook saw %d place() calls offering %d units", places, offered)
				}
				for _, u := range um.Units() {
					if !u.State().Final() {
						t.Fatalf("unit %s left in %v", u.Name(), u.State())
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
		out[i] = u.Name()
	}
	return out
}

// TestSubmitDependencyOrder pins the order Submit gives a unit's
// dependencies: explicit Deps first, then input producers, each once.
func TestSubmitDependencyOrder(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	um := NewUnitManager(h.sys, Backfill{})
	descs := []UnitDescription{
		{Name: "p", Cores: 1}, {Name: "q", Cores: 1}, {Name: "r", Cores: 1},
		{Name: "u", Cores: 1, Deps: []string{"r", "p", "r"},
			Inputs: []InputFile{{Bytes: 1}, {Bytes: 1, Producer: "q"}, {Bytes: 1, Producer: "p"}}},
	}
	if err := um.Submit(descs); err != nil {
		t.Fatal(err)
	}
	if got, want := um.Unit("u").Description().Deps, []string{"r", "p", "q"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("deps = %v, want %v", got, want)
	}
	if got := um.Unit("p").Description().Deps; len(got) != 0 {
		t.Fatalf("independent unit has deps %v", got)
	}
}

// backfillFullScan is Backfill.Place as it was before it stopped at the
// first moment no active pilot had a free core.
func backfillFullScan(ready []*Unit, pilots []*Pilot, committed map[*Pilot]int) []Assignment {
	var out []Assignment
	free := make(map[*Pilot]int, len(pilots))
	for _, p := range pilots {
		if p.State() == PilotActive {
			free[p] = p.desc.Cores - committed[p]
		}
	}
	for _, u := range ready {
		for _, p := range pilots {
			if p.State() != PilotActive {
				continue
			}
			if free[p] >= u.desc.Cores {
				free[p] -= u.desc.Cores
				out = append(out, Assignment{Unit: u, Pilot: p})
				break
			}
		}
	}
	return out
}

// TestBackfillEarlyExitMatchesFullScan compares the two on random inputs,
// including over-committed pilots, pilots in every state, more active pilots
// than the stack buffer holds and units wider than any pilot.
func TestBackfillEarlyExitMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	states := []PilotState{PilotNew, PilotPending, PilotActive, PilotActive, PilotActive, PilotDone, PilotFailed}
	for round := 0; round < 2000; round++ {
		pilots := make([]*Pilot, rng.Intn(12))
		committed := make(map[*Pilot]int)
		for i := range pilots {
			p := &Pilot{state: states[rng.Intn(len(states))], desc: PilotDescription{Cores: 1 + rng.Intn(16)}}
			pilots[i] = p
			if rng.Intn(2) == 0 {
				committed[p] = rng.Intn(p.desc.Cores + 3)
			}
		}
		ready := make([]*Unit, rng.Intn(40))
		for i := range ready {
			ready[i] = &Unit{desc: UnitDescription{Cores: 1 + rng.Intn(1+rng.Intn(20))}}
		}
		got, want := Backfill{}.Place(nil, ready, pilots, committed), backfillFullScan(ready, pilots, committed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: early exit assigns %d units, full scan %d", round, len(got), len(want))
		}
	}
}
