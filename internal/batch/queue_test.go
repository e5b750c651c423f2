package batch

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"aimes/internal/sim"
)

// fixedWait is a wait model whose every sample is one minute.
func fixedWait() WaitModel {
	return WaitModel{MedianWait: time.Minute, MinWait: time.Minute, MaxWait: time.Minute}
}

// queues builds one of each Queue on a fresh engine.
func queues(nodes int) map[string]func() (*sim.Sim, Queue) {
	return map[string]func() (*sim.Sim, Queue){
		"system": func() (*sim.Sim, Queue) {
			eng := sim.NewSim()
			return eng, NewSystem(eng, SystemConfig{Name: "sys", Nodes: nodes}, nil)
		},
		"stochastic": func() (*sim.Sim, Queue) {
			eng := sim.NewSim()
			return eng, NewStochastic(eng, "model", nodes, fixedWait(), rand.New(rand.NewSource(1)))
		},
	}
}

// TestCancelFromStartCallback cancels a job from the Started callback of
// another that starts in the same dispatch: the canceled job ends once,
// CANCELED, and never runs.
func TestCancelFromStartCallback(t *testing.T) {
	for name, build := range queues(4) {
		t.Run(name, func(t *testing.T) {
			eng, q := build()
			q.SetOffline(false) // both wait, so one dispatch starts both
			a := mkJob("a", 1, time.Hour, 2*time.Hour)
			b := mkJob("b", 1, 2*time.Hour, 3*time.Hour)
			var canceled bool
			var ends []JobState
			a.Observer = observe{started: func(*Job) { canceled = q.Cancel(b) }}
			b.Observer = observe{ended: func(j *Job) { ends = append(ends, j.State) }}
			for _, j := range []*Job{a, b} {
				if err := q.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			eng.RunUntil(sim.Time(10 * time.Minute))
			q.SetOnline()
			eng.Run()
			if !canceled {
				t.Error("Cancel from a's Started callback returned false")
			}
			if len(ends) != 1 || ends[0] != JobCanceled {
				t.Errorf("b ended %v, want once, CANCELED", ends)
			}
			if b.State != JobCanceled || b.Started != 0 {
				t.Errorf("b is %v, started at %v; want CANCELED, never started", b.State, b.Started)
			}
			if a.State != JobCompleted {
				t.Errorf("a is %v, want COMPLETED", a.State)
			}
			if snap := q.Snapshot(); snap.FreeNodes != 4 || snap.RunningJobs != 0 || snap.QueuedJobs != 0 {
				t.Errorf("drained queue reports %+v", snap)
			}
		})
	}
}

// TestStochasticSnapshotSumsInSubmissionOrder pins QueuedNodeSeconds, bit for
// bit, to the sum over the queued jobs in submission order, whichever phase
// each is in: blocked on capacity or still in its sampled wait.
func TestStochasticSnapshotSumsInSubmissionOrder(t *testing.T) {
	eng := sim.NewSim()
	q := NewStochastic(eng, "model", 1, fixedWait(), rand.New(rand.NewSource(1)))
	if err := q.Submit(mkJob("blocker", 1, 10*time.Hour, 10*time.Hour)); err != nil {
		t.Fatal(err)
	}
	walltimes := []time.Duration{1100, 2300, 700, 3300, 1900, 900, 4100, 1300, 2900, 500, 3700, 1700}
	var jobs []*Job
	submit := func(ws []time.Duration) {
		for _, w := range ws {
			j := mkJob("j", 1, time.Second, w*time.Millisecond)
			jobs = append(jobs, j)
			if err := q.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(walltimes[:6])
	eng.RunUntil(sim.Time(2 * time.Minute)) // the blocker runs; the first six wait on it
	submit(walltimes[6:])                   // these six are in their sampled wait
	want := 0.0
	for _, j := range jobs {
		want += float64(j.Nodes) * j.Walltime.Seconds()
	}
	snap := q.Snapshot()
	if snap.QueuedJobs != len(jobs) || snap.RunningJobs != 1 {
		t.Fatalf("snapshot counts %d queued, %d running; want %d, 1", snap.QueuedJobs, snap.RunningJobs, len(jobs))
	}
	if math.Float64bits(snap.QueuedNodeSeconds) != math.Float64bits(want) {
		t.Fatalf("QueuedNodeSeconds = %.17g, want the submission-order sum %.17g", snap.QueuedNodeSeconds, want)
	}
}

// ends counts the jobs it observes end.
type ends int

func (*ends) Started(*Job) {}
func (n *ends) Ended(*Job) { *n++ }

// TestQueueCycleAllocatesNothing drives jobs through submit → start → end on
// each queue: once its lists have grown, a queue allocates nothing per job.
func TestQueueCycleAllocatesNothing(t *testing.T) {
	for name, build := range queues(4) {
		t.Run(name, func(t *testing.T) {
			eng, q := build()
			jobs := make([]Job, 200)
			var done ends
			next := 0
			cycle := func() {
				j := &jobs[next]
				next++
				*j = Job{ID: "j", Nodes: 2, Runtime: time.Minute, Walltime: time.Hour, Observer: &done}
				if err := q.Submit(j); err != nil {
					t.Fatal(err)
				}
				eng.Run()
			}
			for range 10 {
				cycle()
			}
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Errorf("a job allocates %.2f objects, want 0", allocs)
			}
			if int(done) != next {
				t.Errorf("%d of %d jobs ended", done, next)
			}
		})
	}
}
