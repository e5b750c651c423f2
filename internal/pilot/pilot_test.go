package pilot

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"aimes/internal/batch"
	"aimes/internal/netsim"
	"aimes/internal/saga"
	"aimes/internal/sim"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// harness wires a minimal simulated testbed for pilot tests.
type harness struct {
	eng  *sim.Sim
	tb   *site.Testbed
	sess *saga.Session
	sys  *System
	rec  *trace.Recorder // what sys records into
	pm   *PilotManager
}

// fastSites returns three deterministic sites with sigma-0 wait models so
// tests can reason about exact activation times: waits are exactly the
// medians (60s, 120s, 180s) plus submit latency (1s).
func fastSites() []site.Config {
	mk := func(name string, median time.Duration) site.Config {
		return site.Config{
			Name: name, Nodes: 256, CoresPerNode: 8, Architecture: "beowulf",
			WaitModel:     batch.WaitModel{MedianWait: median, Sigma: 0},
			SubmitLatency: time.Second,
			BandwidthMBps: 10, NetLatency: 100 * time.Millisecond,
		}
	}
	return []site.Config{
		mk("alpha", time.Minute),
		mk("beta", 2*time.Minute),
		mk("gamma", 3*time.Minute),
	}
}

func newHarness(t *testing.T, cfg Config, seed int64) *harness {
	t.Helper()
	eng := sim.NewSim()
	tb, err := site.NewTestbed(eng, fastSites(), sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	sess := saga.NewSession()
	for _, s := range tb.Sites() {
		sess.Register(saga.NewBatchAdaptor(eng, s))
	}
	links := func(resource string) *netsim.Link { return tb.Site(resource).Link() }
	rec := trace.NewRecorder()
	sys := new(System).Init(eng, sess, links, rec, cfg, rand.New(rand.NewSource(seed)))
	return &harness{eng: eng, tb: tb, sess: sess, sys: sys, rec: rec, pm: new(PilotManager).Init(sys)}
}

func unitTasks(n int, dur time.Duration) []skeleton.Task {
	out := make([]skeleton.Task, n)
	for i := range out {
		out[i] = skeleton.Task{
			ID:       nameOf(i),
			Cores:    1,
			Duration: dur,
			Inputs:   []skeleton.File{{Bytes: 1 << 20}},
			Outputs:  []skeleton.File{{Bytes: 2 << 10}},
		}
	}
	return out
}

// indexed checks and indexes tasks for a unit manager with no units yet, as
// the execution manager does before it submits a workload's tasks.
func indexed(t testing.TB, tasks []skeleton.Task) ([]skeleton.Task, *skeleton.Index) {
	t.Helper()
	x := new(skeleton.Index)
	if err := x.Add(tasks); err != nil {
		t.Fatal(err)
	}
	return tasks, x
}

func nameOf(i int) string {
	return string([]byte{'u', byte('0' + i/100), byte('0' + (i/10)%10), byte('0' + i%10)})
}

func TestPilotLifecycle(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1)
	p, err := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if p.State() != PilotLaunching {
		t.Fatalf("state after submit = %v", p.State())
	}
	h.eng.Run()
	// Walltime retirement: the pilot should end Done, not Failed.
	if p.State() != PilotDone {
		t.Fatalf("final state = %v, want DONE", p.State())
	}
	// Activation: 1s submit latency + 60s modeled wait.
	if p.Wait() != 61*time.Second {
		t.Fatalf("wait = %v, want 61s", p.Wait())
	}
	// Trace contains the full state sequence.
	rec := h.rec
	for _, st := range []string{"NEW", "LAUNCHING", "PENDING", "ACTIVE", "DONE"} {
		if _, ok := rec.First(p.ID(), st); !ok {
			t.Fatalf("trace missing pilot state %s", st)
		}
	}
}

func TestPilotCancel(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 2)
	p, err := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	h.eng.Schedule(10*time.Minute, func() { h.pm.Cancel(p) })
	h.eng.Run()
	if p.State() != PilotCanceled {
		t.Fatalf("state = %v, want CANCELED", p.State())
	}
	if p.EndedAt() != sim.Time(10*time.Minute) {
		t.Fatalf("ended at %v", p.EndedAt())
	}
}

func TestPilotValidation(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 3)
	bad := []PilotDescription{
		{Resource: "", Cores: 8, Walltime: time.Hour},
		{Resource: "alpha", Cores: 0, Walltime: time.Hour},
		{Resource: "alpha", Cores: 8, Walltime: 0},
		{Resource: "unknown", Cores: 8, Walltime: time.Hour},
		{Resource: "alpha", Cores: 1 << 20, Walltime: time.Hour},
	}
	for i, d := range bad {
		if _, err := h.pm.Submit(d); err == nil {
			t.Fatalf("description %d accepted", i)
		}
	}
}

func TestEarlyBindingExecutesWorkload(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 4)
	um := new(UnitManager).Init(h.sys, Direct{})
	p, err := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 16, Walltime: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	um.AddPilot(p)
	completed := sim.Time(0)
	um.OnCompletion(sim.Func(func() {
		completed = h.eng.Now()
		h.pm.CancelAll()
	}))
	if err := um.Submit(indexed(t, unitTasks(16, 10*time.Minute))); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if !finished(um) {
		t.Fatal("workload not done")
	}
	for _, u := range um.units {
		if u.State() != UnitDone {
			t.Fatalf("unit %s state %v", u.task.ID, u.State())
		}
		if u.Pilot() != p {
			t.Fatal("unit not bound to the single pilot")
		}
	}
	// All 16 units fit at once: completion ≈ activation (61s) + dispatch
	// stagger + 600s execution + output staging.
	min := sim.Time(61*time.Second + 600*time.Second)
	max := min + sim.Time(30*time.Second)
	if completed < min || completed > max {
		t.Fatalf("completed at %v, want within [%v, %v]", completed, min, max)
	}
	if p.State() != PilotCanceled {
		t.Fatalf("pilot state after CancelAll = %v", p.State())
	}
}

func TestEarlyBindingStagingOverlapsQueueWait(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 5)
	um := new(UnitManager).Init(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 2 * time.Hour})
	um.AddPilot(p)
	if err := um.Submit(indexed(t, unitTasks(8, time.Minute))); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	rec := h.rec
	// Input staging must begin before the pilot becomes active (61s):
	// early binding stages during the queue wait, which is why Ts overlaps
	// Tw in the paper's Figure 3.
	stagings := rec.ByState(UnitStagingInput.String())
	if len(stagings) == 0 {
		t.Fatal("no staging records")
	}
	activeAt, _ := rec.First(p.ID(), "ACTIVE")
	for _, s := range stagings {
		if s.Time >= activeAt.Time {
			t.Fatalf("staging at %v after activation %v", s.Time, activeAt.Time)
		}
	}
}

func TestLateBindingBackfillUsesFirstActivePilot(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 6)
	um := new(UnitManager).Init(h.sys, Backfill{})
	// Three pilots on sites with waits 60s, 120s, 180s.
	for _, r := range []string{"alpha", "beta", "gamma"} {
		p, err := h.pm.Submit(PilotDescription{Resource: r, Cores: 8, Walltime: 2 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		um.AddPilot(p)
	}
	um.OnCompletion(sim.Func(h.pm.CancelAll))
	// 8 units of 30s: all fit on the first pilot (alpha) and finish before
	// beta (121s) activates.
	if err := um.Submit(indexed(t, unitTasks(8, 30*time.Second))); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	for _, u := range um.units {
		if u.State() != UnitDone {
			t.Fatalf("unit %s state %v", u.task.ID, u.State())
		}
		if u.Pilot().Resource() != "alpha" {
			t.Fatalf("unit ran on %s, want alpha (first active)", u.Pilot().Resource())
		}
	}
}

func TestLateBindingSpillsToLaterPilots(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 7)
	um := new(UnitManager).Init(h.sys, Backfill{})
	for _, r := range []string{"alpha", "beta"} {
		p, _ := h.pm.Submit(PilotDescription{Resource: r, Cores: 4, Walltime: 3 * time.Hour})
		um.AddPilot(p)
	}
	um.OnCompletion(sim.Func(h.pm.CancelAll))
	// 8 long units on 4-core pilots: alpha takes 4; when beta activates it
	// takes the rest.
	if err := um.Submit(indexed(t, unitTasks(8, time.Hour))); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	byResource := map[string]int{}
	for _, u := range um.units {
		if u.State() != UnitDone {
			t.Fatalf("unit %s state %v", u.task.ID, u.State())
		}
		byResource[u.Pilot().Resource()]++
	}
	if byResource["alpha"] != 4 || byResource["beta"] != 4 {
		t.Fatalf("distribution %v, want 4/4", byResource)
	}
}

func TestRoundRobinDistributesEvenly(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 8)
	um := new(UnitManager).Init(h.sys, RoundRobin{})
	for _, r := range []string{"alpha", "beta", "gamma"} {
		p, _ := h.pm.Submit(PilotDescription{Resource: r, Cores: 8, Walltime: 2 * time.Hour})
		um.AddPilot(p)
	}
	um.OnCompletion(sim.Func(h.pm.CancelAll))
	if err := um.Submit(indexed(t, unitTasks(9, time.Minute))); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	byResource := map[string]int{}
	for _, u := range um.units {
		byResource[u.Pilot().Resource()]++
	}
	for r, n := range byResource {
		if n != 3 {
			t.Fatalf("resource %s got %d units, want 3", r, n)
		}
	}
}

// stagingSink keeps the detail of every STAGING_INPUT record as the unit
// manager gave it.
type stagingSink struct{ details map[string]string }

func (s *stagingSink) Record(_ sim.Time, entity, state, detail string) {
	if state == UnitStagingInput.String() {
		s.details[entity] = detail
	}
}

// TestStagingDetailsPerPilot binds units in turn to three pilots, the first
// half of them with one input size and the rest with another: every unit's
// STAGING_INPUT record names its pilot and its bytes as it always did, and
// each (pilot, bytes) pair's text is built once, however the binds of the
// pilots interleave.
func TestStagingDetailsPerPilot(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 8)
	sink := &stagingSink{details: map[string]string{}}
	h.sys.rec = sink
	um := new(UnitManager).Init(h.sys, RoundRobin{})
	for _, r := range []string{"alpha", "beta", "gamma"} {
		p, _ := h.pm.Submit(PilotDescription{Resource: r, Cores: 8, Walltime: 2 * time.Hour})
		um.AddPilot(p)
	}
	um.OnCompletion(sim.Func(h.pm.CancelAll))
	const n = 30
	tasks := unitTasks(n, time.Minute)
	for i := n / 2; i < n; i++ {
		tasks[i].Inputs[0].Bytes = 3 << 20
	}
	if err := um.Submit(indexed(t, tasks)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	texts := map[string]map[*byte]bool{} // each detail text's distinct copies
	for _, u := range um.units {
		if u.State() != UnitDone {
			t.Fatalf("unit %s state %v", u.task.ID, u.State())
		}
		d, ok := sink.details[u.id]
		if want := fmt.Sprintf("%s, %d bytes", u.Pilot().ID(), u.task.Inputs[0].Bytes); !ok || d != want {
			t.Fatalf("%s's staging detail %q, want %q", u.id, d, want)
		}
		if texts[d] == nil {
			texts[d] = map[*byte]bool{}
		}
		texts[d][unsafe.StringData(d)] = true
	}
	if len(texts) != 6 {
		t.Fatalf("%d distinct details, want one per pilot and input size, 6", len(texts))
	}
	for d, copies := range texts {
		if len(copies) != 1 {
			t.Errorf("detail %q was built %d times, want once", d, len(copies))
		}
	}
}

func TestAgentDispatchOverheadSerializes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AgentDispatchOverhead = time.Second
	h := newHarness(t, cfg, 9)
	um := new(UnitManager).Init(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 64, Walltime: 2 * time.Hour})
	um.AddPilot(p)
	um.OnCompletion(sim.Func(h.pm.CancelAll))
	if err := um.Submit(indexed(t, unitTasks(10, time.Minute))); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	// Execution starts must be staggered by ≥1s despite 64 free cores.
	recs := h.rec.ByState(UnitExecuting.String())
	if len(recs) != 10 {
		t.Fatalf("%d executions, want 10", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		gap := recs[i].Time.Sub(recs[i-1].Time)
		if gap < time.Second {
			t.Fatalf("dispatch gap %v < overhead 1s", gap)
		}
	}
}

func TestUnitFailureRestarts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UnitFailureProb = 0.4
	h := newHarness(t, cfg, 10)
	um := new(UnitManager).Init(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 32, Walltime: 12 * time.Hour})
	um.AddPilot(p)
	um.OnCompletion(sim.Func(h.pm.CancelAll))
	if err := um.Submit(indexed(t, unitTasks(32, 10*time.Minute))); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	restarts := 0
	for _, u := range um.units {
		if u.State() != UnitDone {
			t.Fatalf("unit %s state %v (restarts should recover p=0.4)", u.task.ID, u.State())
		}
		restarts += u.Attempts()
	}
	if restarts == 0 {
		t.Fatal("no restarts at 40% failure probability")
	}
}

func TestUnitFailureBudgetExhausted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UnitFailureProb = 1.0 // every attempt fails
	h := newHarness(t, cfg, 11)
	um := new(UnitManager).Init(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 12 * time.Hour})
	um.AddPilot(p)
	um.OnCompletion(sim.Func(h.pm.CancelAll))
	if err := um.Submit(indexed(t, unitTasks(4, time.Minute))); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	for _, u := range um.units {
		if u.State() != UnitFailed {
			t.Fatalf("unit %s state %v, want FAILED", u.task.ID, u.State())
		}
		if u.Attempts() != 1+maxRestarts {
			t.Fatalf("attempts %d, want %d (1 + %d restarts)", u.Attempts(), 1+maxRestarts, maxRestarts)
		}
	}
}

func TestPilotWalltimeReschedulesUnits(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 12)
	um := new(UnitManager).Init(h.sys, Backfill{})
	// alpha activates first with a walltime too short for the units; beta
	// must pick them up after alpha retires.
	pa, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 10 * time.Minute})
	pb, _ := h.pm.Submit(PilotDescription{Resource: "beta", Cores: 8, Walltime: 3 * time.Hour})
	um.AddPilot(pa)
	um.AddPilot(pb)
	um.OnCompletion(sim.Func(h.pm.CancelAll))
	if err := um.Submit(indexed(t, unitTasks(8, time.Hour))); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if pa.State() != PilotDone {
		t.Fatalf("alpha state %v, want DONE (walltime retirement)", pa.State())
	}
	for _, u := range um.units {
		if u.State() != UnitDone {
			t.Fatalf("unit %s state %v", u.task.ID, u.State())
		}
		if u.Pilot() != pb {
			t.Fatal("unit did not migrate to beta after alpha retired")
		}
	}
}

func TestAllPilotsGoneFailsUnits(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 13)
	um := new(UnitManager).Init(h.sys, Backfill{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 10 * time.Minute})
	um.AddPilot(p)
	if err := um.Submit(indexed(t, unitTasks(8, 2*time.Hour))); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	for _, u := range um.units {
		if u.State() != UnitFailed {
			t.Fatalf("unit %s state %v, want FAILED when no pilots remain", u.task.ID, u.State())
		}
	}
	if !finished(um) {
		t.Fatal("manager not done after all units failed")
	}
}

// TestFinishedManagerArmsNoPlace: once every unit is final the unit manager
// has nothing to place, so nothing of it stays armed on the engine to keep
// the manager reachable — not the place its last unit's end would trigger,
// not one its pilots' cancellation would, and not one queued before its
// units were canceled.
func TestFinishedManagerArmsNoPlace(t *testing.T) {
	// armed reports whether um's place event is pending, disarming it.
	armed := func(h *harness, um *UnitManager) bool { return h.eng.Cancel(&um.placeEv) }

	t.Run("done", func(t *testing.T) {
		h := newHarness(t, DefaultConfig(), 6)
		um := new(UnitManager).Init(h.sys, Backfill{})
		for _, r := range []string{"alpha", "beta"} {
			p, err := h.pm.Submit(PilotDescription{Resource: r, Cores: 8, Walltime: 2 * time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			um.AddPilot(p)
		}
		done := false
		um.OnCompletion(sim.Func(func() {
			done = true
			h.pm.CancelAll()
		}))
		if err := um.Submit(indexed(t, unitTasks(16, 30*time.Second))); err != nil {
			t.Fatal(err)
		}
		for h.eng.Step() {
			if done && armed(h, um) {
				t.Fatalf("at %v, with every unit final, the place event is armed", h.eng.Now())
			}
		}
		if !done {
			t.Fatal("the units never completed")
		}
	})

	t.Run("canceled", func(t *testing.T) {
		h := newHarness(t, DefaultConfig(), 17)
		um := new(UnitManager).Init(h.sys, Direct{})
		p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 2 * time.Hour})
		um.AddPilot(p)
		if err := um.Submit(indexed(t, unitTasks(4, time.Hour))); err != nil {
			t.Fatal(err)
		}
		um.CancelAll() // Submit queued a place
		if armed(h, um) {
			t.Fatal("every unit was canceled with a place queued, and the place is still armed")
		}
	})
}

func TestUnitDependencies(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 14)
	um := new(UnitManager).Init(h.sys, Backfill{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 2 * time.Hour})
	um.AddPilot(p)
	um.OnCompletion(sim.Func(h.pm.CancelAll))
	tasks := []skeleton.Task{
		{ID: "producer", Cores: 1, Duration: 10 * time.Minute,
			Inputs: []skeleton.File{{Bytes: 1 << 20}}, Outputs: []skeleton.File{{Bytes: 1 << 20}}},
		{ID: "consumer", Cores: 1, Duration: time.Minute,
			Inputs: []skeleton.File{{Bytes: 1 << 20, Producer: "producer"}}, Outputs: []skeleton.File{{Bytes: 1 << 10}}},
	}
	if err := um.Submit(indexed(t, tasks)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	rec := h.rec
	prodDone, _ := rec.First("unit.producer", UnitDone.String())
	consExec, _ := rec.First("unit.consumer", UnitExecuting.String())
	if consExec.Time <= prodDone.Time {
		t.Fatalf("consumer executed at %v before producer done at %v", consExec.Time, prodDone.Time)
	}
	if um.unit("consumer").State() != UnitDone {
		t.Fatal("consumer did not finish")
	}
}

func TestSamePilotDependencySkipsStaging(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 15)
	um := new(UnitManager).Init(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 2 * time.Hour})
	um.AddPilot(p)
	um.OnCompletion(sim.Func(h.pm.CancelAll))
	tasks := []skeleton.Task{
		{ID: "producer", Cores: 1, Duration: time.Minute,
			Inputs: []skeleton.File{{Bytes: 1 << 20}}, Outputs: []skeleton.File{{Bytes: 1 << 30}}}, // 1 GB output
		{ID: "consumer", Cores: 1, Duration: time.Minute,
			Inputs: []skeleton.File{{Bytes: 1 << 30, Producer: "producer"}}},
	}
	if err := um.Submit(indexed(t, tasks)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	// Producer and consumer share the pilot: the 1 GB intermediate must NOT
	// cross the WAN as consumer input. Staging detail records 0 bytes.
	rec, ok := h.rec.First("unit.consumer", UnitStagingInput.String())
	if !ok {
		t.Fatal("consumer staging record missing")
	}
	if rec.Detail != p.ID()+", 0 bytes" {
		t.Fatalf("staging detail %q, want 0 bytes on same pilot", rec.Detail)
	}
}

// TestUnitManagerValidation: Submit takes the index of the manager's units
// so far plus the submitted tasks, and no other; what makes a task
// executable is skeleton.Index.Add's to check (skeleton's TestIndexAdd).
func TestUnitManagerValidation(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 16)
	um := new(UnitManager).Init(h.sys, Direct{})
	a, b := []skeleton.Task{{ID: "a", Cores: 1}}, []skeleton.Task{{ID: "b", Cores: 1}}
	if err := um.Submit(a, &skeleton.Index{}); err == nil {
		t.Fatal("an index without the submitted task accepted")
	}
	if _, az := indexed(t, []skeleton.Task{a[0], {ID: "z", Cores: 1}}); um.Submit(a, az) == nil {
		t.Fatal("an index of another task too accepted")
	}
	x := &skeleton.Index{}
	if err := x.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := um.Submit(a, x); err != nil {
		t.Fatal(err)
	}
	if _, bx := indexed(t, b); um.Submit(b, bx) == nil {
		t.Fatal("an index without the manager's units accepted")
	}
	if err := x.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := um.Submit(b, x); err != nil {
		t.Fatal(err)
	}
	if um.unit("a").Task() != &a[0] || um.unit("b").Task() != &b[0] {
		t.Fatal("a unit does not point at its task")
	}
}

// TestSubmitIsAllOrNothing: a batch handed an index that does not hold
// exactly its tasks — one short, one over, or none — leaves no unit, no ready
// entry, no name and no record behind, and a valid batch after it, reusing
// its names, runs exactly its own units.
func TestSubmitIsAllOrNothing(t *testing.T) {
	for _, size := range []int{2, 4, -1} {
		h := newHarness(t, DefaultConfig(), 18)
		um := new(UnitManager).Init(h.sys, Backfill{})
		index := new(skeleton.Index) // none for size -1
		if size >= 0 {
			_, index = indexed(t, unitTasks(size, time.Minute))
		}
		if err := um.Submit(unitTasks(3, time.Minute), index); err == nil {
			t.Fatalf("batch of 3 tasks accepted with an index of %d", index.Len())
		}
		if len(um.units) != 0 || len(um.ready) != 0 || um.names != nil || h.rec.Len() != 0 {
			t.Fatalf("rejected batch left %d units, %d ready, an index (%v) and %d records",
				len(um.units), len(um.ready), um.names != nil, h.rec.Len())
		}
		p, err := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		um.AddPilot(p)
		um.OnCompletion(sim.Func(func() { h.pm.Cancel(p) }))
		if err := um.Submit(indexed(t, unitTasks(3, time.Minute))); err != nil {
			t.Fatal(err)
		}
		h.eng.Run()
		if units := um.units; len(units) != 3 || !finished(um) {
			t.Fatalf("%d units after the valid batch, done %v; want its 3", len(units), finished(um))
		}
		for _, u := range um.units {
			if u.State() != UnitDone {
				t.Fatalf("unit %s ended %v", u.task.ID, u.State())
			}
		}
		if got := len(h.rec.ByState(UnitNew.String())); got != 3+1 { // the units and the pilot
			t.Fatalf("%d NEW records, want 4", got)
		}
	}
}

func TestUnitCancel(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 17)
	um := new(UnitManager).Init(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 2 * time.Hour})
	um.AddPilot(p)
	if err := um.Submit(indexed(t, unitTasks(4, time.Hour))); err != nil {
		t.Fatal(err)
	}
	h.eng.Schedule(30*time.Second, func() { um.CancelAll() })
	h.eng.Schedule(2*time.Minute, func() { h.pm.CancelAll() })
	h.eng.Run()
	for _, u := range um.units {
		if u.State() != UnitCanceled {
			t.Fatalf("unit %s state %v, want CANCELED", u.task.ID, u.State())
		}
	}
}

func TestStateStringsAndFinality(t *testing.T) {
	if PilotActive.String() != "ACTIVE" || UnitDone.String() != "DONE" {
		t.Fatal("state names wrong")
	}
	if !PilotFailed.Final() || PilotActive.Final() {
		t.Fatal("pilot finality wrong")
	}
	if !UnitCanceled.Final() || UnitExecuting.Final() {
		t.Fatal("unit finality wrong")
	}
	if PilotState(99).String() == "" || UnitState(99).String() == "" {
		t.Fatal("unknown state formatting broken")
	}
}

// Property: for random workloads, strategies and capacities, the pilot layer
// conserves units — every unit reaches exactly one terminal state — and
// agents never overcommit cores.
func TestWorkloadConservationProperty(t *testing.T) {
	schedulers := []Scheduler{Direct{}, RoundRobin{}, Backfill{}}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		if rng.Intn(2) == 0 {
			cfg.UnitFailureProb = 0.2
		}
		h := newHarness(t, cfg, 100+seed)
		um := new(UnitManager).Init(h.sys, schedulers[int(seed)%len(schedulers)])
		pilots := 1 + rng.Intn(3)
		resources := []string{"alpha", "beta", "gamma"}
		for i := 0; i < pilots; i++ {
			p, err := h.pm.Submit(PilotDescription{
				Resource: resources[i],
				Cores:    4 + rng.Intn(12),
				Walltime: time.Duration(30+rng.Intn(120)) * time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			um.AddPilot(p)
		}
		n := 1 + rng.Intn(40)
		tasks := make([]skeleton.Task, n)
		for i := range tasks {
			tasks[i] = skeleton.Task{
				ID:       nameOf(i),
				Cores:    1 + rng.Intn(3),
				Duration: time.Duration(1+rng.Intn(20)) * time.Minute,
				Inputs:   []skeleton.File{{Bytes: int64(rng.Intn(1 << 20))}},
				Outputs:  []skeleton.File{{Bytes: int64(rng.Intn(4096))}},
			}
		}
		um.OnCompletion(sim.Func(h.pm.CancelAll))
		if err := um.Submit(indexed(t, tasks)); err != nil {
			t.Fatal(err)
		}
		h.eng.Run()
		if !finished(um) {
			t.Fatalf("seed %d: workload incomplete", seed)
		}
		terminal := 0
		for _, u := range um.units {
			if !u.State().Final() {
				t.Fatalf("seed %d: unit %s in state %v", seed, u.task.ID, u.State())
			}
			terminal++
		}
		if terminal != n {
			t.Fatalf("seed %d: %d terminal units, want %d", seed, terminal, n)
		}
		for _, p := range h.pm.Pilots() {
			if !p.State().Final() {
				t.Fatalf("seed %d: pilot %s not final after CancelAll", seed, p.ID())
			}
		}
	}
}

// Property: execution-span accounting in the trace is consistent — every
// EXECUTING record is followed by another record for the same unit.
func TestTraceSpanConsistencyProperty(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 999)
	um := new(UnitManager).Init(h.sys, Backfill{})
	for _, r := range []string{"alpha", "beta"} {
		p, _ := h.pm.Submit(PilotDescription{Resource: r, Cores: 8, Walltime: 2 * time.Hour})
		um.AddPilot(p)
	}
	um.OnCompletion(sim.Func(h.pm.CancelAll))
	if err := um.Submit(indexed(t, unitTasks(24, 5*time.Minute))); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	rec := h.rec
	perUnit := map[string][]trace.Record{}
	for _, r := range rec.Records() {
		if len(r.Entity) > 5 && r.Entity[:5] == "unit." {
			perUnit[r.Entity] = append(perUnit[r.Entity], r)
		}
	}
	if len(perUnit) != 24 {
		t.Fatalf("trace covers %d units, want 24", len(perUnit))
	}
	for entity, records := range perUnit {
		for i, r := range records {
			if r.State == "EXECUTING" && i == len(records)-1 {
				t.Fatalf("%s: dangling EXECUTING record", entity)
			}
		}
		last := records[len(records)-1]
		if last.State != "DONE" && last.State != "FAILED" && last.State != "CANCELED" {
			t.Fatalf("%s: last state %s not terminal", entity, last.State)
		}
	}
}

func TestPilotTinyWalltimeMarginClamped(t *testing.T) {
	// Walltimes at or below the retirement margin must not schedule a
	// retirement in the past.
	h := newHarness(t, DefaultConfig(), 200)
	p, err := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if !p.State().Final() {
		t.Fatalf("pilot state %v not final", p.State())
	}
	// Retired cleanly (walltime) rather than killed by the resource.
	if p.State() != PilotDone {
		t.Fatalf("state %v, want DONE", p.State())
	}
}

func TestMulticoreUnitsAgentBackfill(t *testing.T) {
	// A 3-core unit at the head must not starve 1-core units that fit
	// alongside already-running work (in-agent backfill).
	h := newHarness(t, DefaultConfig(), 201)
	um := new(UnitManager).Init(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 4, Walltime: 2 * time.Hour})
	um.AddPilot(p)
	um.OnCompletion(sim.Func(h.pm.CancelAll))
	tasks := []skeleton.Task{
		{ID: "wide-a", Cores: 2, Duration: 30 * time.Minute},
		{ID: "wide-b", Cores: 3, Duration: 10 * time.Minute}, // cannot fit with wide-a
		{ID: "narrow", Cores: 1, Duration: 5 * time.Minute},  // fits alongside wide-a
	}
	if err := um.Submit(indexed(t, tasks)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	rec := h.rec
	narrowExec, _ := rec.First("unit.narrow", UnitExecuting.String())
	wideBExec, _ := rec.First("unit.wide-b", UnitExecuting.String())
	if narrowExec.Time >= wideBExec.Time {
		t.Fatalf("narrow (%v) did not backfill ahead of wide-b (%v)", narrowExec.Time, wideBExec.Time)
	}
	for _, u := range um.units {
		if u.State() != UnitDone {
			t.Fatalf("unit %s state %v", u.task.ID, u.State())
		}
	}
}

// finished reports whether every unit of um is terminal.
func finished(um *UnitManager) bool { return len(um.units) > 0 && um.doneCount == len(um.units) }

// TestLaunchMatchesSubmits: Launch submits its pilots as Submit would one
// after another — the same records, pilot IDs, NEW details and SAGA job IDs,
// a resource named twice included — and stops where Submit would, at a
// resource the session lacks or a size no machine holds; the pilots' names
// are cut from one string.
func TestLaunchMatchesSubmits(t *testing.T) {
	for _, c := range []struct {
		resources []string
		cores     int
	}{
		{[]string{"beta", "alpha", "beta", "gamma"}, 8},
		{[]string{"alpha", "nope", "beta"}, 8},
		{[]string{"alpha"}, 1 << 20},
		{[]string{"alpha"}, 0},
	} {
		launched, submitted := newHarness(t, DefaultConfig(), 3), newHarness(t, DefaultConfig(), 3)
		for _, h := range []*harness{launched, submitted} {
			h.sys.SetNamespace("s0-j7")
			if _, err := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 2, Walltime: time.Hour}); err != nil {
				t.Fatal(err)
			}
		}
		launchErr := launched.pm.Launch(c.resources, c.cores, time.Hour)
		var submitErr error
		for _, r := range c.resources {
			if _, submitErr = submitted.pm.Submit(PilotDescription{Resource: r, Cores: c.cores, Walltime: time.Hour}); submitErr != nil {
				break
			}
		}
		if fmt.Sprint(launchErr) != fmt.Sprint(submitErr) {
			t.Fatalf("%v: Launch fails with %v, Submit with %v", c.resources, launchErr, submitErr)
		}
		if got, want := launched.rec.Records(), submitted.rec.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: Launch records\n%v\nSubmit records\n%v", c.resources, got, want)
		}
		// After the first pilot, Submit's own, each pilot follows the one
		// before it in memory, and its ID the job ID before it.
		follows := func(a, b string) bool {
			return unsafe.Pointer(unsafe.StringData(b)) == unsafe.Add(unsafe.Pointer(unsafe.StringData(a)), len(a))
		}
		pilots := launched.pm.Pilots()[1:]
		for i, p := range pilots {
			if !follows(p.ID(), p.job.ID()) {
				t.Fatalf("%v: pilot %s's job ID is not cut from its string", c.resources, p.ID())
			}
			if i == 0 {
				continue
			}
			prev := pilots[i-1]
			if !follows(prev.job.ID(), p.ID()) || unsafe.Add(unsafe.Pointer(prev), unsafe.Sizeof(*p)) != unsafe.Pointer(p) {
				t.Fatalf("%v: pilot %s is not in its predecessor's slab and string", c.resources, p.ID())
			}
		}
	}
}
