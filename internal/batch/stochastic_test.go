package batch

import (
	"math/rand"
	"testing"
	"time"

	"aimes/internal/sim"
	"aimes/internal/stats"
)

func testModel() WaitModel {
	return WaitModel{
		MedianWait:  20 * time.Minute,
		Sigma:       1.0,
		WidthFactor: 2.0,
		MinWait:     30 * time.Second,
		MaxWait:     24 * time.Hour,
	}
}

func newStochastic(seed int64) (*sim.Sim, *Stochastic) {
	eng := sim.NewSim()
	q := NewStochastic(eng, "model", 1024, testModel(), rand.New(rand.NewSource(seed)))
	return eng, q
}

func TestStochasticRunsJob(t *testing.T) {
	eng, q := newStochastic(1)
	j := mkJob("a", 16, 10*time.Minute, 30*time.Minute)
	if err := q.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if j.State != JobCompleted {
		t.Fatalf("state = %v, want COMPLETED", j.State)
	}
	if wait(j) < 30*time.Second {
		t.Fatalf("wait %v below model floor", wait(j))
	}
	if j.Ended.Sub(j.Started) != 10*time.Minute {
		t.Fatalf("runtime %v, want 10m", j.Ended.Sub(j.Started))
	}
}

func TestStochasticEnforcesWalltime(t *testing.T) {
	eng, q := newStochastic(2)
	j := mkJob("a", 1, 2*time.Hour, time.Hour)
	if err := q.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if j.State != JobKilled {
		t.Fatalf("state = %v, want KILLED", j.State)
	}
	if j.Ended.Sub(j.Started) != time.Hour {
		t.Fatalf("held for %v, want 1h", j.Ended.Sub(j.Started))
	}
}

func TestStochasticWaitsAreHeavyTailed(t *testing.T) {
	eng := sim.NewSim()
	rng := rand.New(rand.NewSource(3))
	q := NewStochastic(eng, "m", 100000, testModel(), rng)
	var waits []float64
	for i := 0; i < 500; i++ {
		j := mkJob("j", 1, time.Minute, 2*time.Minute)
		jj := j
		j.Observer = observe{started: func(*Job) { waits = append(waits, wait(jj).Seconds()) }}
		if err := q.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(waits) != 500 {
		t.Fatalf("observed %d waits, want 500", len(waits))
	}
	med := stats.Quantile(waits, 0.5)
	avg := mean(waits)
	if med < 600 || med > 2400 {
		t.Fatalf("median wait %gs implausible for 20m model", med)
	}
	if avg < med {
		t.Fatalf("mean %g < median %g: not right-skewed", avg, med)
	}
}

func TestStochasticWidthDependence(t *testing.T) {
	// With WidthFactor 2, a full-machine job should wait ~3x a tiny job on
	// average (same lognormal base).
	var means [2]float64
	for k, width := range []int{1, 1024} {
		eng := sim.NewSim()
		// Same seed: identical base samples isolate the width effect.
		q := NewStochastic(eng, "m", 1024, WaitModel{MedianWait: 10 * time.Minute, Sigma: 0.8, WidthFactor: 2}, rand.New(rand.NewSource(7)))
		var sum float64
		n := 200
		var submit func(i int)
		submit = func(i int) {
			if i >= n {
				return
			}
			j := mkJob("j", width, time.Second, time.Minute)
			j.Observer = observe{ended: func(jj *Job) {
				sum += wait(jj).Seconds()
				submit(i + 1)
			}}
			if err := q.Submit(j); err != nil {
				t.Error(err)
			}
		}
		submit(0)
		eng.Run()
		means[k] = sum / float64(n)
	}
	ratio := means[1] / means[0]
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("width wait ratio = %.2f, want ~3 (WidthFactor=2)", ratio)
	}
}

func TestStochasticCapacityBlocksStart(t *testing.T) {
	eng := sim.NewSim()
	// Deterministic waits via sigma 0: every job "reaches the queue head"
	// after exactly MinWait... actually median; capacity then serializes.
	model := WaitModel{MedianWait: 10 * time.Second, Sigma: 0}
	q := NewStochastic(eng, "m", 4, model, rand.New(rand.NewSource(1)))
	a := mkJob("a", 4, 100*time.Second, 200*time.Second)
	b := mkJob("b", 4, 10*time.Second, 60*time.Second)
	if err := q.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(b); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a.Started != sim.Time(10*time.Second) {
		t.Fatalf("a started %v, want 10s", a.Started)
	}
	if b.Started != sim.Time(110*time.Second) {
		t.Fatalf("b started %v, want 110s (blocked on capacity)", b.Started)
	}
	if b.State != JobCompleted {
		t.Fatalf("b state %v", b.State)
	}
}

func TestStochasticCancelQueued(t *testing.T) {
	eng, q := newStochastic(5)
	j := mkJob("a", 1, time.Minute, 2*time.Minute)
	if err := q.Submit(j); err != nil {
		t.Fatal(err)
	}
	if !q.Cancel(j) {
		t.Fatal("cancel failed")
	}
	eng.Run()
	if j.State != JobCanceled {
		t.Fatalf("state %v, want CANCELED", j.State)
	}
	if j.Started != 0 {
		t.Fatal("canceled job somehow started")
	}
}

func TestStochasticCancelRunning(t *testing.T) {
	eng, q := newStochastic(6)
	j := mkJob("a", 1, 10*time.Hour, 20*time.Hour)
	if err := q.Submit(j); err != nil {
		t.Fatal(err)
	}
	var cancelAt sim.Time
	j.Observer = observe{started: func(*Job) {
		eng.Schedule(time.Minute, func() {
			cancelAt = eng.Now()
			if !q.Cancel(j) {
				t.Error("cancel of running job failed")
			}
		})
	}}
	eng.Run()
	if j.State != JobCanceled {
		t.Fatalf("state %v, want CANCELED", j.State)
	}
	if j.Ended != cancelAt {
		t.Fatalf("ended %v, want %v", j.Ended, cancelAt)
	}
	snap := q.Snapshot()
	if snap.FreeNodes != snap.TotalNodes {
		t.Fatal("cancel did not free nodes")
	}
}

func TestStochasticCancelWaitingJob(t *testing.T) {
	eng := sim.NewSim()
	model := WaitModel{MedianWait: 10 * time.Second, Sigma: 0}
	q := NewStochastic(eng, "m", 2, model, rand.New(rand.NewSource(1)))
	a := mkJob("a", 2, 100*time.Second, 200*time.Second)
	b := mkJob("b", 2, 10*time.Second, 60*time.Second)
	if err := q.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(b); err != nil {
		t.Fatal(err)
	}
	// At t=20s, b's sampled wait has elapsed but it is blocked on capacity.
	eng.Schedule(20*time.Second, func() {
		if !q.Cancel(b) {
			t.Error("cancel of capacity-blocked job failed")
		}
	})
	eng.Run()
	if b.State != JobCanceled {
		t.Fatalf("b state %v, want CANCELED", b.State)
	}
	if b.Started != 0 {
		t.Fatal("canceled waiting job started")
	}
}

func TestStochasticSnapshotAndHistory(t *testing.T) {
	eng, q := newStochastic(8)
	for i := 0; i < 10; i++ {
		if err := q.Submit(mkJob("j", 4, time.Minute, 5*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	snap := q.Snapshot()
	if snap.QueuedJobs != 10 {
		t.Fatalf("queued %d, want 10", snap.QueuedJobs)
	}
	if snap.QueuedNodeSeconds != 10*4*300 {
		t.Fatalf("demand %g, want %d", snap.QueuedNodeSeconds, 10*4*300)
	}
	eng.Run()
	final := q.Snapshot()
	if final.FreeNodes != final.TotalNodes || final.RunningJobs != 0 {
		t.Fatal("machine not idle after drain")
	}
}

func TestStochasticRejects(t *testing.T) {
	_, q := newStochastic(9)
	if err := q.Submit(mkJob("big", 4096, time.Minute, time.Hour)); err == nil {
		t.Fatal("oversized job accepted")
	}
	j := mkJob("a", 1, time.Minute, time.Hour)
	j.State = JobCompleted
	if err := q.Submit(j); err == nil {
		t.Fatal("terminal job accepted")
	}
}

func TestWaitModelValidate(t *testing.T) {
	bad := []WaitModel{
		{MedianWait: 0, Sigma: 1},
		{MedianWait: time.Minute, Sigma: -1},
		{MedianWait: time.Minute, Sigma: 1, MinWait: time.Hour, MaxWait: time.Minute},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Fatalf("model %d validated", i)
		}
	}
	if err := testModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitModelBounds(t *testing.T) {
	m := WaitModel{MedianWait: time.Minute, Sigma: 2, MinWait: 30 * time.Second, MaxWait: 2 * time.Hour}
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		w := m.SampleWait(r, 1, 100)
		if w < m.MinWait || w > m.MaxWait {
			t.Fatalf("sampled wait %v outside [%v, %v]", w, m.MinWait, m.MaxWait)
		}
	}
}
