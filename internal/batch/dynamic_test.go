package batch

import (
	"math/rand"
	"testing"
	"time"

	"aimes/internal/sim"
)

func submitJob(t *testing.T, q Queue, id string, nodes int, runtime time.Duration) *Job {
	t.Helper()
	j := &Job{ID: id, Nodes: nodes, Runtime: runtime, Walltime: 2 * runtime}
	if err := q.Submit(j); err != nil {
		t.Fatal(err)
	}
	return j
}

func TestSystemOutageKillsRunning(t *testing.T) {
	eng := sim.NewSim()
	s := NewSystem(eng, SystemConfig{Name: "m", Nodes: 4}, nil)

	running := submitJob(t, s, "a", 2, time.Hour)
	queued := submitJob(t, s, "b", 4, time.Hour) // blocked behind a
	eng.RunUntil(sim.Time(time.Minute))
	if running.State != JobRunning || queued.State != JobQueued {
		t.Fatalf("states = %v, %v", running.State, queued.State)
	}

	s.SetOffline(true)
	if !s.Offline() {
		t.Fatal("not offline")
	}
	if running.State != JobFailed {
		t.Fatalf("running job state = %v, want FAILED", running.State)
	}
	// The queued job is held, not killed, and must not start while offline.
	eng.RunUntil(sim.Time(30 * time.Minute))
	if queued.State != JobQueued {
		t.Fatalf("held job state = %v, want QUEUED", queued.State)
	}

	s.SetOnline()
	eng.Run()
	if queued.State != JobCompleted {
		t.Fatalf("held job after recovery = %v, want COMPLETED", queued.State)
	}
}

func TestSystemDrainOutage(t *testing.T) {
	eng := sim.NewSim()
	s := NewSystem(eng, SystemConfig{Name: "m", Nodes: 4}, nil)
	running := submitJob(t, s, "a", 2, 10*time.Minute)
	eng.RunUntil(sim.Time(time.Minute))

	s.SetOffline(false) // drain: running jobs finish
	eng.Run()
	if running.State != JobCompleted {
		t.Fatalf("drained job state = %v, want COMPLETED", running.State)
	}
}

func TestStochasticOutage(t *testing.T) {
	eng := sim.NewSim()
	rng := rand.New(rand.NewSource(1))
	model := WaitModel{MedianWait: time.Minute, Sigma: 0}
	q := NewStochastic(eng, "m", 8, model, rng)

	running := submitJob(t, q, "a", 2, time.Hour)
	eng.RunUntil(sim.Time(5 * time.Minute))
	if running.State != JobRunning {
		t.Fatalf("state = %v", running.State)
	}
	late := submitJob(t, q, "b", 2, time.Minute)

	q.SetOffline(true)
	if running.State != JobFailed {
		t.Fatalf("running job = %v, want FAILED", running.State)
	}
	// b's sampled wait elapses while offline; it must be held, not started.
	eng.RunUntil(sim.Time(30 * time.Minute))
	if late.State != JobQueued {
		t.Fatalf("held job = %v, want QUEUED", late.State)
	}
	q.SetOnline()
	eng.Run()
	if late.State != JobCompleted {
		t.Fatalf("held job after recovery = %v, want COMPLETED", late.State)
	}
}

func TestStochasticWaitScale(t *testing.T) {
	eng := sim.NewSim()
	model := WaitModel{MedianWait: time.Minute, Sigma: 0}
	q := NewStochastic(eng, "m", 8, model, rand.New(rand.NewSource(1)))

	base := submitJob(t, q, "a", 1, time.Second)
	q.SetWaitScale(10)
	surged := submitJob(t, q, "b", 1, time.Second)
	q.SetWaitScale(1)
	eng.Run()

	baseWait := wait(base)
	surgedWait := wait(surged)
	if surgedWait < 9*baseWait {
		t.Fatalf("surged wait %v not ~10× base wait %v", surgedWait, baseWait)
	}
}

func TestWaitScaleRejectsNonPositive(t *testing.T) {
	eng := sim.NewSim()
	q := NewStochastic(eng, "m", 8, WaitModel{MedianWait: time.Minute, Sigma: 0},
		rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive scale accepted")
		}
	}()
	q.SetWaitScale(0)
}

func TestOfflineIdempotent(t *testing.T) {
	eng := sim.NewSim()
	s := NewSystem(eng, SystemConfig{Name: "m", Nodes: 4}, nil)
	s.SetOffline(true)
	s.SetOffline(true) // second call is a no-op
	s.SetOnline()
	s.SetOnline()
	if s.Offline() {
		t.Fatal("still offline")
	}
}
