package batch

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"aimes/internal/sim"
)

func newTestSystem(t *testing.T, nodes int, policy Policy) (*sim.Sim, *System) {
	t.Helper()
	eng := sim.NewSim()
	sys := NewSystem(eng, SystemConfig{Name: "test", Nodes: nodes, Policy: policy}, nil)
	return eng, sys
}

func mkJob(id string, nodes int, runtime, walltime time.Duration) *Job {
	return &Job{ID: id, Nodes: nodes, Runtime: runtime, Walltime: walltime}
}

// wait is the time j spent queued before it started.
func wait(j *Job) time.Duration { return j.Started.Sub(j.Submitted) }

// observe adapts functions to Observer; either may be nil.
type observe struct{ started, ended func(*Job) }

func (o observe) Started(j *Job) {
	if o.started != nil {
		o.started(j)
	}
}

func (o observe) Ended(j *Job) {
	if o.ended != nil {
		o.ended(j)
	}
}

func TestSystemRunsSingleJob(t *testing.T) {
	eng, sys := newTestSystem(t, 4, FCFS{})
	j := mkJob("a", 2, 10*time.Second, 20*time.Second)
	var started, ended sim.Time
	j.Observer = observe{
		started: func(*Job) { started = eng.Now() },
		ended:   func(*Job) { ended = eng.Now() },
	}
	if err := sys.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if j.State != JobCompleted {
		t.Fatalf("state = %v, want COMPLETED", j.State)
	}
	if started != 0 {
		t.Fatalf("started at %v, want 0 (empty machine)", started)
	}
	if ended != sim.Time(10*time.Second) {
		t.Fatalf("ended at %v, want 10s", ended)
	}
	if wait(j) != 0 {
		t.Fatalf("wait = %v, want 0", wait(j))
	}
}

func TestSystemEnforcesWalltime(t *testing.T) {
	eng, sys := newTestSystem(t, 4, FCFS{})
	j := mkJob("a", 1, time.Hour, 30*time.Second)
	if err := sys.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if j.State != JobKilled {
		t.Fatalf("state = %v, want KILLED", j.State)
	}
	if j.Ended != sim.Time(30*time.Second) {
		t.Fatalf("ended at %v, want 30s", j.Ended)
	}
}

func TestSystemQueuesWhenFull(t *testing.T) {
	eng, sys := newTestSystem(t, 4, FCFS{})
	a := mkJob("a", 4, 100*time.Second, 200*time.Second)
	b := mkJob("b", 4, 50*time.Second, 100*time.Second)
	if err := sys.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := sys.Submit(b); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if b.Started != sim.Time(100*time.Second) {
		t.Fatalf("b started at %v, want 100s (after a)", b.Started)
	}
	if wait(b) != 100*time.Second {
		t.Fatalf("b wait = %v, want 100s", wait(b))
	}
}

func TestSystemRejectsOversizedJob(t *testing.T) {
	_, sys := newTestSystem(t, 4, FCFS{})
	if err := sys.Submit(mkJob("big", 8, time.Second, time.Minute)); err == nil {
		t.Fatal("oversized job accepted")
	}
}

func TestSystemRejectsInvalidJobs(t *testing.T) {
	_, sys := newTestSystem(t, 4, FCFS{})
	cases := []*Job{
		mkJob("zero-nodes", 0, time.Second, time.Minute),
		mkJob("zero-wall", 1, time.Second, 0),
		{ID: "neg-run", Nodes: 1, Runtime: -time.Second, Walltime: time.Minute},
	}
	for _, j := range cases {
		if err := sys.Submit(j); err == nil {
			t.Fatalf("invalid job %q accepted", j.ID)
		}
	}
}

func TestSystemRejectsResubmission(t *testing.T) {
	eng, sys := newTestSystem(t, 4, FCFS{})
	j := mkJob("a", 1, time.Second, time.Minute)
	if err := sys.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := sys.Submit(j); err == nil {
		t.Fatal("terminal job resubmission accepted")
	}
}

func TestSystemCancelQueued(t *testing.T) {
	eng, sys := newTestSystem(t, 2, FCFS{})
	a := mkJob("a", 2, 100*time.Second, 200*time.Second)
	b := mkJob("b", 2, 10*time.Second, 20*time.Second)
	var aEnded, bEnded int
	a.Observer = observe{ended: func(*Job) { aEnded++ }}
	b.Observer = observe{ended: func(*Job) { bEnded++ }}
	if err := sys.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := sys.Submit(b); err != nil {
		t.Fatal(err)
	}
	if !sys.Cancel(b) {
		t.Fatal("cancel of queued job failed")
	}
	if b.State != JobCanceled || bEnded != 1 {
		t.Fatalf("state = %v ended %d times, want CANCELED once", b.State, bEnded)
	}
	eng.Run()
	if a.State != JobCompleted || b.State != JobCanceled {
		t.Fatalf("a %v, b %v; want COMPLETED and CANCELED", a.State, b.State)
	}
	// Each job ends exactly once: a canceled job is not finished again.
	if aEnded != 1 || bEnded != 1 {
		t.Fatalf("a ended %d times, b %d; want once each", aEnded, bEnded)
	}
}

func TestSystemCancelRunningFreesNodes(t *testing.T) {
	eng, sys := newTestSystem(t, 2, FCFS{})
	a := mkJob("a", 2, 1000*time.Second, 2000*time.Second)
	b := mkJob("b", 2, 10*time.Second, 20*time.Second)
	if err := sys.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := sys.Submit(b); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(50*time.Second, func() {
		if !sys.Cancel(a) {
			t.Error("cancel of running job failed")
		}
	})
	eng.Run()
	if a.State != JobCanceled {
		t.Fatalf("a state = %v, want CANCELED", a.State)
	}
	if b.Started != sim.Time(50*time.Second) {
		t.Fatalf("b started at %v, want 50s (after cancel)", b.Started)
	}
	if b.State != JobCompleted {
		t.Fatalf("b state = %v, want COMPLETED", b.State)
	}
}

func TestSystemCancelTerminalIsNoop(t *testing.T) {
	eng, sys := newTestSystem(t, 2, FCFS{})
	j := mkJob("a", 1, time.Second, time.Minute)
	if err := sys.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if sys.Cancel(j) {
		t.Fatal("cancel of completed job reported success")
	}
}

func TestFCFSHeadOfLineBlocking(t *testing.T) {
	eng, sys := newTestSystem(t, 4, FCFS{})
	a := mkJob("a", 4, 100*time.Second, 100*time.Second)
	big := mkJob("big", 4, 10*time.Second, 10*time.Second)
	small := mkJob("small", 1, 10*time.Second, 10*time.Second)
	for _, j := range []*Job{a, big, small} {
		if err := sys.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	// Under strict FCFS, small must not start before big even though it fits.
	if small.Started < big.Started {
		t.Fatalf("FCFS allowed backfill: small@%v big@%v", small.Started, big.Started)
	}
}

func TestEASYBackfillsShortNarrowJob(t *testing.T) {
	eng, sys := newTestSystem(t, 4, EASY{})
	// a holds the whole machine for 100s. big (head) must wait for it.
	// small fits in zero extra nodes? No: free=0 while a runs; so nothing
	// backfills until a ends. Instead: a holds 3 nodes, big needs 4,
	// small needs 1 and is short. shadow = a's end; small ends before it.
	a := mkJob("a", 3, 100*time.Second, 100*time.Second)
	big := mkJob("big", 4, 10*time.Second, 10*time.Second)
	small := mkJob("small", 1, 20*time.Second, 30*time.Second)
	for _, j := range []*Job{a, big, small} {
		if err := sys.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if small.Started != 0 {
		t.Fatalf("EASY did not backfill small: started at %v", small.Started)
	}
	if big.Started != sim.Time(100*time.Second) {
		t.Fatalf("big started at %v, want 100s", big.Started)
	}
}

func TestEASYDoesNotDelayReservation(t *testing.T) {
	eng, sys := newTestSystem(t, 4, EASY{})
	a := mkJob("a", 3, 100*time.Second, 100*time.Second)
	big := mkJob("big", 4, 10*time.Second, 10*time.Second)
	// long would fit now (1 free node) but its walltime crosses the shadow
	// time (100s) and it needs more than the 0 extra nodes, so it must not
	// start before big.
	long := mkJob("long", 1, 500*time.Second, 500*time.Second)
	for _, j := range []*Job{a, big, long} {
		if err := sys.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if long.Started < big.Started {
		t.Fatalf("EASY delayed the reservation: long@%v big@%v", long.Started, big.Started)
	}
	if big.Started != sim.Time(100*time.Second) {
		t.Fatalf("big started at %v, want 100s", big.Started)
	}
}

func TestEASYBackfillIntoExtraNodes(t *testing.T) {
	eng, sys := newTestSystem(t, 8, EASY{})
	a := mkJob("a", 6, 100*time.Second, 100*time.Second)
	big := mkJob("big", 4, 10*time.Second, 10*time.Second)
	// shadow = 100s, at which 6+2 free ≥ 4, extra = 4. long needs 2 ≤ extra,
	// so it may run indefinitely without delaying big.
	long := mkJob("long", 2, 1000*time.Second, 1000*time.Second)
	for _, j := range []*Job{a, big, long} {
		if err := sys.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if long.Started != 0 {
		t.Fatalf("EASY did not use extra nodes: long started at %v", long.Started)
	}
	if big.Started != sim.Time(100*time.Second) {
		t.Fatalf("big started at %v, want 100s", big.Started)
	}
}

func TestConservativeBackfill(t *testing.T) {
	eng, sys := newTestSystem(t, 4, Conservative{})
	a := mkJob("a", 3, 100*time.Second, 100*time.Second)
	big := mkJob("big", 4, 10*time.Second, 10*time.Second)
	short := mkJob("short", 1, 20*time.Second, 30*time.Second)
	for _, j := range []*Job{a, big, short} {
		if err := sys.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if short.Started != 0 {
		t.Fatalf("conservative did not backfill short: started %v", short.Started)
	}
	if big.Started != sim.Time(100*time.Second) {
		t.Fatalf("big started at %v, want 100s", big.Started)
	}
}

func TestConservativeNeverDelaysAnyReservation(t *testing.T) {
	eng, sys := newTestSystem(t, 4, Conservative{})
	a := mkJob("a", 4, 50*time.Second, 50*time.Second)
	b := mkJob("b", 2, 50*time.Second, 50*time.Second)
	c := mkJob("c", 2, 200*time.Second, 200*time.Second)
	// c fits alongside b at t=50; conservative must reserve it there and all
	// three must start at their reservations.
	for _, j := range []*Job{a, b, c} {
		if err := sys.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if b.Started != sim.Time(50*time.Second) || c.Started != sim.Time(50*time.Second) {
		t.Fatalf("b@%v c@%v, want both at 50s", b.Started, c.Started)
	}
}

func TestSystemSnapshot(t *testing.T) {
	eng, sys := newTestSystem(t, 4, FCFS{})
	a := mkJob("a", 3, 100*time.Second, 100*time.Second)
	b := mkJob("b", 2, 10*time.Second, 60*time.Second)
	if err := sys.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := sys.Submit(b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	eng.Schedule(10*time.Second, func() { snap = sys.Snapshot() })
	eng.Run()
	if snap.TotalNodes != 4 || snap.FreeNodes != 1 {
		t.Fatalf("nodes %d free %d, want 4/1", snap.TotalNodes, snap.FreeNodes)
	}
	if snap.RunningJobs != 1 || snap.QueuedJobs != 1 {
		t.Fatalf("running %d queued %d, want 1/1", snap.RunningJobs, snap.QueuedJobs)
	}
	if snap.QueuedNodeSeconds != 2*60 {
		t.Fatalf("demand %g, want 120", snap.QueuedNodeSeconds)
	}
	if snap.InstantUtilization != 0.75 {
		t.Fatalf("instant util %g, want 0.75", snap.InstantUtilization)
	}
	if snap.Utilization <= 0.7 || snap.Utilization > 0.76 {
		t.Fatalf("avg util %g, want ~0.75", snap.Utilization)
	}
}

// TestSystemWaitHistory: on one node under FCFS, three 10-second jobs
// submitted together wait 0, 10 and 20 seconds.
func TestSystemWaitHistory(t *testing.T) {
	eng, sys := newTestSystem(t, 1, FCFS{})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j := mkJob("j", 1, 10*time.Second, 20*time.Second)
		if err := sys.Submit(j); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	eng.Run()
	for i, j := range jobs {
		if want := time.Duration(i) * 10 * time.Second; wait(j) != want {
			t.Fatalf("job %d waited %v, want %v", i, wait(j), want)
		}
	}
}

func TestSystemFailureInjection(t *testing.T) {
	eng := sim.NewSim()
	rng := rand.New(rand.NewSource(1))
	sys := NewSystem(eng, SystemConfig{Name: "flaky", Nodes: 64, FailureProb: 0.5}, rng)
	failed, completed := 0, 0
	for i := 0; i < 200; i++ {
		j := mkJob("j", 1, 100*time.Second, 200*time.Second)
		j.Observer = observe{ended: func(j *Job) {
			switch j.State {
			case JobFailed:
				failed++
			case JobCompleted:
				completed++
			}
		}}
		if err := sys.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if failed == 0 || completed == 0 {
		t.Fatalf("failed=%d completed=%d, want both nonzero", failed, completed)
	}
	if failed < 50 || failed > 150 {
		t.Fatalf("failed=%d out of plausible range for p=0.5", failed)
	}
}

func TestJobStateStrings(t *testing.T) {
	if JobCompleted.String() != "COMPLETED" || JobState(99).String() == "" {
		t.Fatal("state strings broken")
	}
}

// White-box tests for the conservative-backfill availability profile.
func TestProfileBreakpointInsertion(t *testing.T) {
	now := sim.Time(0)
	running := []*Job{
		{Nodes: 2, Started: 0, Walltime: 100 * time.Second},
		{Nodes: 3, Started: 0, Walltime: 200 * time.Second},
	}
	p := newProfile(now, 5, running)
	// Availability: [0,100)=5, [100,200)=7, [200,∞)=10.
	if got := p.earliest(6, 10*time.Second); got != sim.Time(100*time.Second) {
		t.Fatalf("earliest(6) = %v, want 100s", got)
	}
	if got := p.earliest(10, 10*time.Second); got != sim.Time(200*time.Second) {
		t.Fatalf("earliest(10) = %v, want 200s", got)
	}
	if got := p.earliest(5, time.Hour); got != 0 {
		t.Fatalf("earliest(5) = %v, want now", got)
	}
}

func TestProfileReserveBlocksLaterJobs(t *testing.T) {
	p := newProfile(0, 4, nil)
	p.reserve(0, 4, 50*time.Second)
	if got := p.earliest(1, 10*time.Second); got != sim.Time(50*time.Second) {
		t.Fatalf("earliest after full reservation = %v, want 50s", got)
	}
	// A reservation spanning a breakpoint splits segments correctly.
	p.reserve(sim.Time(50*time.Second), 2, 25*time.Second)
	if got := p.earliest(3, 10*time.Second); got != sim.Time(75*time.Second) {
		t.Fatalf("earliest(3) = %v, want 75s", got)
	}
	if got := p.earliest(2, 10*time.Second); got != sim.Time(50*time.Second) {
		t.Fatalf("earliest(2) = %v, want 50s", got)
	}
}

func TestProfileInfeasibleRequest(t *testing.T) {
	p := newProfile(0, 4, nil)
	if got := p.earliest(5, time.Second); got != sim.Forever {
		t.Fatalf("infeasible request = %v, want Forever", got)
	}
	// Reserving an infeasible (Forever) start is a no-op.
	p.reserve(sim.Forever, 5, time.Second)
	if got := p.earliest(4, time.Second); got != 0 {
		t.Fatalf("profile corrupted by Forever reservation: %v", got)
	}
}

// Regression: a running job whose walltime expires at the current instant
// (end event not yet fired) must not be counted as freed by the policies.
// Found by TestSystemConservationProperty with these exact inputs.
func TestConservativeNoOvercommitAtWalltimeBoundary(t *testing.T) {
	prop := systemConservationProp(t)
	if !prop(0x7942dbbeab1e2e84, 0xea, 0x71) {
		t.Fatal("conservation violated")
	}
}

// A direct construction of the same scenario: job A is killed exactly at its
// walltime; at that instant another event triggers a dispatch before A's end
// event fires. The policy must not start jobs into A's still-held nodes.
func TestPoliciesIgnoreExpiredButRunningJobs(t *testing.T) {
	for _, policy := range []Policy{FCFS{}, EASY{}, Conservative{}} {
		eng := sim.NewSim()
		sys := NewSystem(eng, SystemConfig{Name: "edge", Nodes: 4, Policy: policy}, nil)
		// A runs to exactly its walltime.
		a := mkJob("a", 4, time.Hour, 100*time.Second)
		if err := sys.Submit(a); err != nil {
			t.Fatal(err)
		}
		// B arrives exactly when A's walltime expires, via an event scheduled
		// before A started (so its seq orders it first at t=100s).
		b := mkJob("b", 4, 10*time.Second, 60*time.Second)
		eng.Schedule(100*time.Second, func() {
			if err := sys.Submit(b); err != nil {
				t.Error(err)
			}
		})
		eng.Run()
		if a.State != JobKilled {
			t.Fatalf("%s: a state %v", policy.Name(), a.State)
		}
		if b.State != JobCompleted {
			t.Fatalf("%s: b state %v", policy.Name(), b.State)
		}
		if b.Started < a.Ended {
			t.Fatalf("%s: b started %v before a freed nodes at %v", policy.Name(), b.Started, a.Ended)
		}
	}
}

// TestPolicyByName: each configuration name, and no name, resolves to the
// policy whose Name it is, and an unknown name is refused.
func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{"": "easy", "easy": "easy", "fcfs": "fcfs", "conservative": "conservative"} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("policy %q: %v", name, err)
		}
		if got := p.Name(); got != want {
			t.Errorf("policy %q resolves to %q, want %q", name, got, want)
		}
	}
	if _, err := PolicyByName("lottery"); err == nil || !strings.Contains(err.Error(), "lottery") {
		t.Fatalf("unknown policy: err = %v, want one naming it", err)
	}
}
