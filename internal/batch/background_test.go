package batch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"aimes/internal/sim"
	"aimes/internal/stats"
)

func TestDefaultBackgroundReachesTargetUtilization(t *testing.T) {
	eng := sim.NewSim()
	rng := rand.New(rand.NewSource(42))
	sys := NewSystem(eng, SystemConfig{Name: "hpc", Nodes: 512})
	cfg := DefaultBackground(512, 0.85)
	cfg.Horizon = 6 * 24 * time.Hour
	if err := StartBackground(eng, sys, 512, cfg, rng); err != nil {
		t.Fatal(err)
	}
	var sampled []float64
	// Sample instantaneous utilization daily after a 2-day warmup.
	for d := 2; d <= 6; d++ {
		day := d
		eng.Schedule(time.Duration(day)*24*time.Hour, func() {
			sampled = append(sampled, sys.Snapshot().InstantUtilization)
		})
	}
	eng.Run()
	util := mean(sampled)
	if math.Abs(util-0.85) > 0.15 {
		t.Fatalf("utilization %.2f, want ~0.85±0.15", util)
	}
}

func TestBackgroundProducesQueueContention(t *testing.T) {
	eng := sim.NewSim()
	rng := rand.New(rand.NewSource(7))
	sys := &recorder{System: NewSystem(eng, SystemConfig{Name: "hpc", Nodes: 256})}
	cfg := DefaultBackground(256, 0.9)
	cfg.Horizon = 4 * 24 * time.Hour
	if err := StartBackground(eng, sys, 256, cfg, rng); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	started, positive := 0, 0
	for _, j := range sys.jobs {
		if j.State == JobQueued {
			continue
		}
		started++
		if wait(j) > 0 {
			positive++
		}
	}
	if started < 50 {
		t.Fatalf("only %d jobs started", started)
	}
	if positive == 0 {
		t.Fatal("no job ever queued: machine under-loaded")
	}
}

func TestBackgroundValidation(t *testing.T) {
	eng := sim.NewSim()
	sys := NewSystem(eng, SystemConfig{Name: "hpc", Nodes: 64})
	err := StartBackground(eng, sys, 64, BackgroundConfig{}, rand.New(rand.NewSource(1)))
	if err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := DefaultBackground(64, 0.5)
	if err := StartBackground(eng, sys, 64, cfg, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestBackgroundJobWidthsClamped(t *testing.T) {
	eng := sim.NewSim()
	rng := rand.New(rand.NewSource(2))
	sys := &recorder{System: NewSystem(eng, SystemConfig{Name: "hpc", Nodes: 8})}
	cfg := BackgroundConfig{
		ArrivalRate:    1.0 / 60,
		Width:          stats.NewConstant(1000), // far over machine size
		Runtime:        stats.NewConstant(60),
		WalltimeFactor: stats.NewConstant(0.1), // below 1: clamped up
		Horizon:        time.Hour,
	}
	if err := StartBackground(eng, sys, 8, cfg, rng); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(sys.jobs) == 0 {
		t.Fatal("no jobs submitted")
	}
	for _, j := range sys.jobs {
		if j.Nodes != 8 || j.Walltime != j.Runtime || j.State != JobCompleted {
			t.Fatalf("job %s: %d nodes, walltime %v for runtime %v, %v; want 8 nodes, walltime = runtime, COMPLETED",
				j.ID, j.Nodes, j.Walltime, j.Runtime, j.State)
		}
	}
}

// Property: EASY picks each queued job at most once, never overcommits the
// machine, and never starts fewer jobs immediately than the in-order prefix
// that fits.
func TestPolicyProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%20) + 1
		queue := make([]*Job, count)
		for i := range queue {
			queue[i] = &Job{
				ID:       "j",
				Nodes:    1 + rng.Intn(16),
				Runtime:  time.Duration(1+rng.Intn(3600)) * time.Second,
				Walltime: time.Duration(3600+rng.Intn(3600)) * time.Second,
			}
		}
		var running []*Job
		free := 16
		for i := 0; i < 3; i++ {
			r := &Job{Nodes: 1 + rng.Intn(4), Started: 0,
				Walltime: time.Duration(600+rng.Intn(1200)) * time.Second}
			if r.Nodes <= free {
				free -= r.Nodes
				running = append(running, r)
			}
		}
		picks := EASY{}.Select(queue, free, 0, running)
		used := 0
		seen := map[int]bool{}
		for _, idx := range picks {
			if idx < 0 || idx >= count || seen[idx] {
				return false
			}
			seen[idx] = true
			used += queue[idx].Nodes
		}
		if used > free {
			return false
		}
		// EASY starts at least the in-order prefix that fits.
		prefix, left := 0, free
		for prefix < count && queue[prefix].Nodes <= left {
			left -= queue[prefix].Nodes
			prefix++
		}
		return len(picks) >= prefix
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: stochastic queue conserves jobs — every submitted job ends in a
// terminal state exactly once, and nodes return to fully free.
func TestStochasticConservationProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		eng := sim.NewSim()
		rng := rand.New(rand.NewSource(seed))
		q := NewStochastic(eng, "m", 64, WaitModel{MedianWait: time.Minute, Sigma: 1}, rng)
		count := int(n%32) + 1
		ends := 0
		for i := 0; i < count; i++ {
			j := &Job{
				ID:       "j",
				Nodes:    1 + rng.Intn(64),
				Runtime:  time.Duration(rng.Intn(600)+1) * time.Second,
				Walltime: time.Duration(rng.Intn(600)+60) * time.Second,
			}
			j.Observer = observe{ended: func(jj *Job) {
				if jj.State < JobCompleted {
					t.Error("Ended fired in non-terminal state")
				}
				ends++
			}}
			if err := q.Submit(j); err != nil {
				return false
			}
		}
		eng.Run()
		snap := q.Snapshot()
		return ends == count && snap.FreeNodes == snap.TotalNodes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the full System conserves jobs under random workloads. A fixed
// quick seed keeps the exploration reproducible.
func TestSystemConservationProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		eng := sim.NewSim()
		rng := rand.New(rand.NewSource(seed))
		sys := NewSystem(eng, SystemConfig{Name: "m", Nodes: 32})
		count := int(n%24) + 1
		ends := 0
		for i := 0; i < count; i++ {
			j := &Job{
				ID:       "j",
				Nodes:    1 + rng.Intn(32),
				Runtime:  time.Duration(rng.Intn(600)+1) * time.Second,
				Walltime: time.Duration(rng.Intn(600)+60) * time.Second,
			}
			j.Observer = observe{ended: func(*Job) { ends++ }}
			if err := sys.Submit(j); err != nil {
				return false
			}
		}
		eng.Run()
		snap := sys.Snapshot()
		return ends == count && snap.FreeNodes == snap.TotalNodes && snap.QueuedJobs == 0
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(20260610))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// mean is the arithmetic mean of xs.
func mean(xs []float64) float64 {
	var s stats.Summary
	for _, x := range xs {
		s.Add(x)
	}
	return s.Mean()
}

// recorder is a batch system that keeps every job submitted to it.
type recorder struct {
	*System
	jobs []*Job
}

func (r *recorder) Submit(j *Job) error {
	r.jobs = append(r.jobs, j)
	return r.System.Submit(j)
}
