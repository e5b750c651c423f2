package pilot

import (
	"math/rand"
	"testing"
	"time"

	"aimes/internal/batch"
	"aimes/internal/netsim"
	"aimes/internal/saga"
	"aimes/internal/sim"
	"aimes/internal/site"
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
	sys := NewSystem(eng, sess, links, rec, cfg, rand.New(rand.NewSource(seed)))
	return &harness{eng: eng, tb: tb, sess: sess, sys: sys, rec: rec, pm: NewPilotManager(sys)}
}

func unitDescs(n int, dur time.Duration) []UnitDescription {
	out := make([]UnitDescription, n)
	for i := range out {
		out[i] = UnitDescription{
			Name:        nameOf(i),
			Cores:       1,
			Duration:    dur,
			Inputs:      []InputFile{{Bytes: 1 << 20}},
			OutputBytes: 2 << 10,
		}
	}
	return out
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
	um := NewUnitManager(h.sys, Direct{})
	p, err := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 16, Walltime: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	um.AddPilot(p)
	completed := sim.Time(0)
	um.OnCompletion(func() {
		completed = h.eng.Now()
		h.pm.CancelAll()
	})
	if err := um.Submit(unitDescs(16, 10*time.Minute)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if !um.Done() {
		t.Fatal("workload not done")
	}
	for _, u := range um.Units() {
		if u.State() != UnitDone {
			t.Fatalf("unit %s state %v", u.Name(), u.State())
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
	um := NewUnitManager(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 2 * time.Hour})
	um.AddPilot(p)
	if err := um.Submit(unitDescs(8, time.Minute)); err != nil {
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
	um := NewUnitManager(h.sys, Backfill{})
	// Three pilots on sites with waits 60s, 120s, 180s.
	for _, r := range []string{"alpha", "beta", "gamma"} {
		p, err := h.pm.Submit(PilotDescription{Resource: r, Cores: 8, Walltime: 2 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		um.AddPilot(p)
	}
	um.OnCompletion(func() { h.pm.CancelAll() })
	// 8 units of 30s: all fit on the first pilot (alpha) and finish before
	// beta (121s) activates.
	if err := um.Submit(unitDescs(8, 30*time.Second)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	for _, u := range um.Units() {
		if u.State() != UnitDone {
			t.Fatalf("unit %s state %v", u.Name(), u.State())
		}
		if u.Pilot().Resource() != "alpha" {
			t.Fatalf("unit ran on %s, want alpha (first active)", u.Pilot().Resource())
		}
	}
}

func TestLateBindingSpillsToLaterPilots(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 7)
	um := NewUnitManager(h.sys, Backfill{})
	for _, r := range []string{"alpha", "beta"} {
		p, _ := h.pm.Submit(PilotDescription{Resource: r, Cores: 4, Walltime: 3 * time.Hour})
		um.AddPilot(p)
	}
	um.OnCompletion(func() { h.pm.CancelAll() })
	// 8 long units on 4-core pilots: alpha takes 4; when beta activates it
	// takes the rest.
	if err := um.Submit(unitDescs(8, time.Hour)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	byResource := map[string]int{}
	for _, u := range um.Units() {
		if u.State() != UnitDone {
			t.Fatalf("unit %s state %v", u.Name(), u.State())
		}
		byResource[u.Pilot().Resource()]++
	}
	if byResource["alpha"] != 4 || byResource["beta"] != 4 {
		t.Fatalf("distribution %v, want 4/4", byResource)
	}
}

func TestRoundRobinDistributesEvenly(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 8)
	um := NewUnitManager(h.sys, RoundRobin{})
	for _, r := range []string{"alpha", "beta", "gamma"} {
		p, _ := h.pm.Submit(PilotDescription{Resource: r, Cores: 8, Walltime: 2 * time.Hour})
		um.AddPilot(p)
	}
	um.OnCompletion(func() { h.pm.CancelAll() })
	if err := um.Submit(unitDescs(9, time.Minute)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	byResource := map[string]int{}
	for _, u := range um.Units() {
		byResource[u.Pilot().Resource()]++
	}
	for r, n := range byResource {
		if n != 3 {
			t.Fatalf("resource %s got %d units, want 3", r, n)
		}
	}
}

func TestAgentDispatchOverheadSerializes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AgentDispatchOverhead = time.Second
	h := newHarness(t, cfg, 9)
	um := NewUnitManager(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 64, Walltime: 2 * time.Hour})
	um.AddPilot(p)
	um.OnCompletion(func() { h.pm.CancelAll() })
	if err := um.Submit(unitDescs(10, time.Minute)); err != nil {
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
	um := NewUnitManager(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 32, Walltime: 12 * time.Hour})
	um.AddPilot(p)
	um.OnCompletion(func() { h.pm.CancelAll() })
	if err := um.Submit(unitDescs(32, 10*time.Minute)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	restarts := 0
	for _, u := range um.Units() {
		if u.State() != UnitDone {
			t.Fatalf("unit %s state %v (restarts should recover p=0.4)", u.Name(), u.State())
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
	cfg.DefaultMaxRestarts = 2
	h := newHarness(t, cfg, 11)
	um := NewUnitManager(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 12 * time.Hour})
	um.AddPilot(p)
	um.OnCompletion(func() { h.pm.CancelAll() })
	if err := um.Submit(unitDescs(4, time.Minute)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	for _, u := range um.Units() {
		if u.State() != UnitFailed {
			t.Fatalf("unit %s state %v, want FAILED", u.Name(), u.State())
		}
		if u.Attempts() != 3 {
			t.Fatalf("attempts %d, want 3 (1 + 2 restarts)", u.Attempts())
		}
	}
}

func TestPilotWalltimeReschedulesUnits(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 12)
	um := NewUnitManager(h.sys, Backfill{})
	// alpha activates first with a walltime too short for the units; beta
	// must pick them up after alpha retires.
	pa, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 10 * time.Minute})
	pb, _ := h.pm.Submit(PilotDescription{Resource: "beta", Cores: 8, Walltime: 3 * time.Hour})
	um.AddPilot(pa)
	um.AddPilot(pb)
	um.OnCompletion(func() { h.pm.CancelAll() })
	if err := um.Submit(unitDescs(8, time.Hour)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if pa.State() != PilotDone {
		t.Fatalf("alpha state %v, want DONE (walltime retirement)", pa.State())
	}
	for _, u := range um.Units() {
		if u.State() != UnitDone {
			t.Fatalf("unit %s state %v", u.Name(), u.State())
		}
		if u.Pilot() != pb {
			t.Fatal("unit did not migrate to beta after alpha retired")
		}
	}
}

func TestAllPilotsGoneFailsUnits(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 13)
	um := NewUnitManager(h.sys, Backfill{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 10 * time.Minute})
	um.AddPilot(p)
	if err := um.Submit(unitDescs(8, 2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	for _, u := range um.Units() {
		if u.State() != UnitFailed {
			t.Fatalf("unit %s state %v, want FAILED when no pilots remain", u.Name(), u.State())
		}
	}
	if !um.Done() {
		t.Fatal("manager not done after all units failed")
	}
}

func TestUnitDependencies(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 14)
	um := NewUnitManager(h.sys, Backfill{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 2 * time.Hour})
	um.AddPilot(p)
	um.OnCompletion(func() { h.pm.CancelAll() })
	descs := []UnitDescription{
		{Name: "producer", Cores: 1, Duration: 10 * time.Minute,
			Inputs: []InputFile{{Bytes: 1 << 20}}, OutputBytes: 1 << 20},
		{Name: "consumer", Cores: 1, Duration: time.Minute,
			Inputs: []InputFile{{Bytes: 1 << 20, Producer: "producer"}}, OutputBytes: 1 << 10},
	}
	if err := um.Submit(descs); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	rec := h.rec
	prodDone, _ := rec.First("unit.producer", UnitDone.String())
	consExec, _ := rec.First("unit.consumer", UnitExecuting.String())
	if consExec.Time <= prodDone.Time {
		t.Fatalf("consumer executed at %v before producer done at %v", consExec.Time, prodDone.Time)
	}
	if um.Unit("consumer").State() != UnitDone {
		t.Fatal("consumer did not finish")
	}
}

func TestSamePilotDependencySkipsStaging(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 15)
	um := NewUnitManager(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 2 * time.Hour})
	um.AddPilot(p)
	um.OnCompletion(func() { h.pm.CancelAll() })
	descs := []UnitDescription{
		{Name: "producer", Cores: 1, Duration: time.Minute,
			Inputs: []InputFile{{Bytes: 1 << 20}}, OutputBytes: 1 << 30}, // 1 GB output
		{Name: "consumer", Cores: 1, Duration: time.Minute,
			Inputs: []InputFile{{Bytes: 1 << 30, Producer: "producer"}}},
	}
	if err := um.Submit(descs); err != nil {
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

func TestUnitManagerValidation(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 16)
	um := NewUnitManager(h.sys, Direct{})
	if err := um.Submit([]UnitDescription{{Name: "", Cores: 1}}); err == nil {
		t.Fatal("anonymous unit accepted")
	}
	if err := um.Submit([]UnitDescription{{Name: "a", Cores: 0}}); err == nil {
		t.Fatal("zero-core unit accepted")
	}
	if err := um.Submit([]UnitDescription{{Name: "a", Cores: 1, Deps: []string{"ghost"}}}); err == nil {
		t.Fatal("dangling dependency accepted")
	}
	if err := um.Submit([]UnitDescription{{Name: "a", Cores: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := um.Submit([]UnitDescription{{Name: "a", Cores: 1}}); err == nil {
		t.Fatal("duplicate unit accepted")
	}
}

func TestUnitCancel(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 17)
	um := NewUnitManager(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 8, Walltime: 2 * time.Hour})
	um.AddPilot(p)
	if err := um.Submit(unitDescs(4, time.Hour)); err != nil {
		t.Fatal(err)
	}
	h.eng.Schedule(30*time.Second, func() { um.CancelAll() })
	h.eng.Schedule(2*time.Minute, func() { h.pm.CancelAll() })
	h.eng.Run()
	for _, u := range um.Units() {
		if u.State() != UnitCanceled {
			t.Fatalf("unit %s state %v, want CANCELED", u.Name(), u.State())
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
		um := NewUnitManager(h.sys, schedulers[int(seed)%len(schedulers)])
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
		descs := make([]UnitDescription, n)
		for i := range descs {
			descs[i] = UnitDescription{
				Name:        nameOf(i),
				Cores:       1 + rng.Intn(3),
				Duration:    time.Duration(1+rng.Intn(20)) * time.Minute,
				Inputs:      []InputFile{{Bytes: int64(rng.Intn(1 << 20))}},
				OutputBytes: int64(rng.Intn(4096)),
			}
		}
		um.OnCompletion(func() { h.pm.CancelAll() })
		if err := um.Submit(descs); err != nil {
			t.Fatal(err)
		}
		h.eng.Run()
		if !um.Done() {
			t.Fatalf("seed %d: workload incomplete", seed)
		}
		terminal := 0
		for _, u := range um.Units() {
			if !u.State().Final() {
				t.Fatalf("seed %d: unit %s in state %v", seed, u.Name(), u.State())
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
	um := NewUnitManager(h.sys, Backfill{})
	for _, r := range []string{"alpha", "beta"} {
		p, _ := h.pm.Submit(PilotDescription{Resource: r, Cores: 8, Walltime: 2 * time.Hour})
		um.AddPilot(p)
	}
	um.OnCompletion(func() { h.pm.CancelAll() })
	if err := um.Submit(unitDescs(24, 5*time.Minute)); err != nil {
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
	um := NewUnitManager(h.sys, Direct{})
	p, _ := h.pm.Submit(PilotDescription{Resource: "alpha", Cores: 4, Walltime: 2 * time.Hour})
	um.AddPilot(p)
	um.OnCompletion(func() { h.pm.CancelAll() })
	descs := []UnitDescription{
		{Name: "wide-a", Cores: 2, Duration: 30 * time.Minute},
		{Name: "wide-b", Cores: 3, Duration: 10 * time.Minute}, // cannot fit with wide-a
		{Name: "narrow", Cores: 1, Duration: 5 * time.Minute},  // fits alongside wide-a
	}
	if err := um.Submit(descs); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	rec := h.rec
	narrowExec, _ := rec.First("unit.narrow", UnitExecuting.String())
	wideBExec, _ := rec.First("unit.wide-b", UnitExecuting.String())
	if narrowExec.Time >= wideBExec.Time {
		t.Fatalf("narrow (%v) did not backfill ahead of wide-b (%v)", narrowExec.Time, wideBExec.Time)
	}
	for _, u := range um.Units() {
		if u.State() != UnitDone {
			t.Fatalf("unit %s state %v", u.Name(), u.State())
		}
	}
}
