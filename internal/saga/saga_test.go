package saga

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

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

// stateOf reads the adaptor job's current state.
func stateOf(j *Job) State { return j.state }

// observeFunc adapts a function to Observer.
type observeFunc func(*Job, State)

func (f observeFunc) JobState(j *Job, s State) { f(j, s) }

// submit submits a job into storage of its own.
func submit(a *BatchAdaptor, d Description, obs Observer) (*Job, error) {
	j := new(Job)
	if err := a.Submit(j, d, obs); err != nil {
		return nil, err
	}
	return j, nil
}

func pilotDesc(cores int, wall time.Duration) Description {
	return Description{
		Cores:    cores,
		Walltime: wall,
		Runtime:  wall + time.Hour, // runs until killed or canceled
	}
}

func TestBatchAdaptorLifecycle(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	var states []State
	job, err := submit(a, Description{
		Cores: 16, Walltime: time.Hour, Runtime: 30 * time.Minute,
	}, observeFunc(func(_ *Job, s State) { states = append(states, s) }))
	if err != nil {
		t.Fatal(err)
	}
	if stateOf(job) != New {
		t.Fatalf("state before submission latency = %v, want NEW", stateOf(job))
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
	// Submitted at 0, the job reaches the queue after the latency.
	bj := &job.inner
	if bj.Submitted < sim.Time(2*time.Second) {
		t.Fatal("submission latency not applied")
	}
	if bj.Ended.Sub(bj.Started) != 30*time.Minute {
		t.Fatalf("runtime %v, want 30m", bj.Ended.Sub(bj.Started))
	}
}

func TestBatchAdaptorWalltimeKill(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	job, err := submit(a, pilotDesc(16, 30*time.Minute), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if stateOf(job) != Failed || job.Detail() != "walltime" {
		t.Fatalf("state %v detail %q, want FAILED walltime", stateOf(job), job.Detail())
	}
}

func TestBatchAdaptorRejects(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	if _, err := submit(a, Description{Cores: 0, Walltime: time.Hour}, nil); err == nil {
		t.Fatal("zero cores accepted")
	}
	// 64 nodes × 16 cores = 1024 max.
	if _, err := submit(a, pilotDesc(2048, time.Hour), nil); err == nil {
		t.Fatal("oversized request accepted")
	}
}

func TestBatchAdaptorCoreToNodeRounding(t *testing.T) {
	eng := sim.NewSim()
	s := testSite(t, eng)
	a := NewBatchAdaptor(eng, s)
	// 17 cores on 16-core nodes must round to 2 nodes: a request for
	// 1023 + 17 = 1040 cores (66 nodes) must fail on the 64-node machine.
	if _, err := submit(a, pilotDesc(1040, time.Hour), nil); err == nil {
		t.Fatal("node rounding not applied")
	}
	if _, err := submit(a, pilotDesc(1024, time.Hour), nil); err != nil {
		t.Fatalf("full-machine request rejected: %v", err)
	}
}

// TestBatchAdaptorSubmitFromCallback: a state callback may submit a follow-up
// job — the adaptor's entry points run inline wherever they are called from.
func TestBatchAdaptorSubmitFromCallback(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	desc := Description{Cores: 1, Walltime: time.Hour, Runtime: time.Minute}
	var second *Job
	_, err := submit(a, desc, observeFunc(func(_ *Job, s State) {
		if s != Done {
			return
		}
		var err error
		if second, err = submit(a, desc, nil); err != nil {
			t.Error(err)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if second == nil || stateOf(second) != Done {
		t.Fatalf("chained submission did not complete: %v", second)
	}
}

func TestBatchAdaptorCancelBeforeSubmissionCompletes(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	var final State
	job, err := submit(a, pilotDesc(16, time.Hour), observeFunc(func(_ *Job, s State) { final = s }))
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
	if final != Canceled || stateOf(job) != Canceled {
		t.Fatalf("final state %v, want CANCELED", final)
	}
	if job.inner.State != batch.JobNew {
		t.Fatal("canceled job reached the queue")
	}
}

func TestBatchAdaptorCancelQueuedJob(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	job, err := submit(a, pilotDesc(16, time.Hour), nil)
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
	if stateOf(job) != Canceled {
		t.Fatalf("state %v, want CANCELED", stateOf(job))
	}
}

func TestBatchAdaptorCancelRunning(t *testing.T) {
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	job, err := submit(a, pilotDesc(16, 10*time.Hour), observeFunc(func(j *Job, s State) {
		if s == Running {
			// Cancel as soon as it starts.
			eng.Schedule(time.Minute, func() {
				if !a.Cancel(j) {
					t.Error("cancel of running job failed")
				}
			})
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if stateOf(job) != Canceled {
		t.Fatalf("state %v, want CANCELED", stateOf(job))
	}
	if bj := &job.inner; bj.Ended.Sub(bj.Started) != time.Minute {
		t.Fatalf("ran for %v, want 1m", bj.Ended.Sub(bj.Started))
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
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	sess.Register(NewBatchAdaptor(eng, testSite(t, eng)))
}

func TestStateFinal(t *testing.T) {
	if !Failed.Final() || !Done.Final() || !Canceled.Final() || Running.Final() || Pending.Final() || New.Final() {
		t.Fatal("Final() wrong")
	}
}

// TestSubmitNamesJobs: the service names every job "<resource>.<seq>", seq
// zero-padded to four digits; a job submitted with that name in its
// description keeps the caller's string, and one submitted with any other
// gets the service's own.
func TestSubmitNamesJobs(t *testing.T) {
	for _, seq := range []int{1, 9, 10, 999, 1000, 12345} {
		if got, want := string(AppendJobID(nil, "stampede", seq)), fmt.Sprintf("stampede.%04d", seq); got != want {
			t.Fatalf("AppendJobID = %q, Sprintf gives %q", got, want)
		}
	}
	eng := sim.NewSim()
	a := NewBatchAdaptor(eng, testSite(t, eng))
	d := pilotDesc(16, time.Hour)
	d.ID = string(AppendJobID(nil, "stampede", a.NextSeq()))
	j, err := submit(a, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "stampede.0001" || unsafe.StringData(j.ID()) != unsafe.StringData(d.ID) {
		t.Fatalf("job named %q, not the caller's %q", j.ID(), d.ID)
	}
	for _, id := range []string{"stampede.0001", ""} {
		d.ID = id
		j, err := submit(a, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("stampede.%04d", a.seq); j.ID() != want {
			t.Fatalf("submitted as %q, the job is named %q, want %q", id, j.ID(), want)
		}
	}
}
