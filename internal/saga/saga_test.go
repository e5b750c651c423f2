package saga

import (
	"testing"
	"time"

	"aimes/internal/batch"
	"aimes/internal/sim"
	"aimes/internal/site"
)

func testSite(t *testing.T, eng *sim.Sim) *site.Site {
	t.Helper()
	cfg := site.Config{
		Name: "stampede", Nodes: 64, CoresPerNode: 16, Architecture: "beowulf",
		WaitModel: batch.WaitModel{
			MedianWait: 5 * time.Minute, Sigma: 0.8, WidthFactor: 1,
			MinWait: 10 * time.Second,
		},
		SubmitLatency: 2 * time.Second,
		BandwidthMBps: 10, NetLatency: 100 * time.Millisecond,
	}
	s, err := site.New(eng, cfg, sim.NewRNG(1).Child("site"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pilotDesc(cores int, wall time.Duration) Description {
	return Description{
		Executable: "pilot-agent",
		Cores:      cores,
		Walltime:   wall,
		Runtime:    wall + time.Hour, // runs until killed or canceled
	}
}

func TestBatchAdaptorLifecycle(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	var states []State
	job, err := a.Submit(Description{
		Executable: "task", Cores: 16, Walltime: time.Hour, Runtime: 30 * time.Minute,
	}, func(_ Job, s State) { states = append(states, s) })
	if err != nil {
		t.Fatal(err)
	}
	if job.State() != New {
		t.Fatalf("state before submission latency = %v, want NEW", job.State())
	}
	eng.Run()
	want := []State{Pending, Running, Done}
	if len(states) != len(want) {
		t.Fatalf("states %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("states %v, want %v", states, want)
		}
	}
	if job.StartedAt().Sub(job.SubmittedAt()) < 2*time.Second {
		t.Fatal("submission latency not applied")
	}
	if job.EndedAt().Sub(job.StartedAt()) != 30*time.Minute {
		t.Fatalf("runtime %v, want 30m", job.EndedAt().Sub(job.StartedAt()))
	}
}

func TestBatchAdaptorWalltimeKill(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	job, err := a.Submit(pilotDesc(16, 30*time.Minute), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if job.State() != Failed || job.Detail() != "walltime" {
		t.Fatalf("state %v detail %q, want FAILED walltime", job.State(), job.Detail())
	}
}

func TestBatchAdaptorRejects(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	if _, err := a.Submit(Description{Cores: 0, Walltime: time.Hour}, nil); err == nil {
		t.Fatal("zero cores accepted")
	}
	// 64 nodes × 16 cores = 1024 max.
	if _, err := a.Submit(pilotDesc(2048, time.Hour), nil); err == nil {
		t.Fatal("oversized request accepted")
	}
}

func TestBatchAdaptorCoreToNodeRounding(t *testing.T) {
	eng := sim.NewSim()
	s := testSite(t, eng)
	a := NewBatchAdaptor(eng, s)
	// 17 cores on 16-core nodes must round to 2 nodes: a request for
	// 1023 + 17 = 1040 cores (66 nodes) must fail on the 64-node machine.
	if _, err := a.Submit(pilotDesc(1040, time.Hour), nil); err == nil {
		t.Fatal("node rounding not applied")
	}
	if _, err := a.Submit(pilotDesc(1024, time.Hour), nil); err != nil {
		t.Fatalf("full-machine request rejected: %v", err)
	}
}

// TestBatchAdaptorSubmitFromCallback: a state callback may submit a follow-up
// job — the adaptor's entry points run inline wherever they are called from.
func TestBatchAdaptorSubmitFromCallback(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	desc := Description{Executable: "step", Cores: 1, Walltime: time.Hour, Runtime: time.Minute}
	var second Job
	_, err := a.Submit(desc, func(_ Job, s State) {
		if s != Done {
			return
		}
		var err error
		if second, err = a.Submit(desc, nil); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if second == nil || second.State() != Done {
		t.Fatalf("chained submission did not complete: %v", second)
	}
}

func TestBatchAdaptorCancelBeforeSubmissionCompletes(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	var final State
	job, err := a.Submit(pilotDesc(16, time.Hour), func(_ Job, s State) { final = s })
	if err != nil {
		t.Fatal(err)
	}
	if !a.Cancel(job) {
		t.Fatal("cancel during submission window failed")
	}
	if a.Cancel(job) {
		t.Fatal("double cancel succeeded")
	}
	eng.Run()
	if final != Canceled || job.State() != Canceled {
		t.Fatalf("final state %v, want CANCELED", final)
	}
	if job.StartedAt() != 0 {
		t.Fatal("canceled job started")
	}
}

func TestBatchAdaptorCancelQueuedJob(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	job, err := a.Submit(pilotDesc(16, time.Hour), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel after the submission latency but (almost surely) before the
	// sampled wait elapses.
	eng.Schedule(5*time.Second, func() {
		if !a.Cancel(job) {
			t.Error("cancel of pending job failed")
		}
	})
	eng.Run()
	if job.State() != Canceled {
		t.Fatalf("state %v, want CANCELED", job.State())
	}
}

func TestBatchAdaptorCancelRunning(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	job, err := a.Submit(pilotDesc(16, 10*time.Hour), func(j Job, s State) {
		if s == Running {
			// Cancel as soon as it starts.
			eng.Schedule(time.Minute, func() {
				if !a.Cancel(j) {
					t.Error("cancel of running job failed")
				}
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if job.State() != Canceled {
		t.Fatalf("state %v, want CANCELED", job.State())
	}
	if job.EndedAt().Sub(job.StartedAt()) != time.Minute {
		t.Fatalf("ran for %v, want 1m", job.EndedAt().Sub(job.StartedAt()))
	}
}

func TestSessionRegistry(t *testing.T) {
	eng := sim.NewSim()
	sess := NewSession()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	sess.Register(a)
	got, err := sess.Service("stampede")
	if err != nil || got != a {
		t.Fatalf("lookup failed: %v", err)
	}
	if _, err := sess.Service("nope"); err == nil {
		t.Fatal("unknown resource lookup succeeded")
	}
	rs := sess.Resources()
	if len(rs) != 1 || rs[0] != "stampede" {
		t.Fatalf("resources = %v", rs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	sess.Register(NewBatchAdaptor(eng, testSite(t, eng)))
}

func TestStateStrings(t *testing.T) {
	if Done.String() != "DONE" || Pending.String() != "PENDING" {
		t.Fatal("state names wrong")
	}
	if !Failed.Final() || Running.Final() || New.Final() {
		t.Fatal("Final() wrong")
	}
	if State(42).String() != "State(42)" {
		t.Fatal("unknown state formatting wrong")
	}
}
