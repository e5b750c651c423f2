package batch

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"aimes/internal/sim"
	"aimes/internal/stats"
)

// BackgroundConfig parameterizes the synthetic workload that keeps a
// simulated machine under realistic load, standing in for the thousands of
// competing jobs on the paper's production resources. Defaults follow
// published workload-archive characteristics: Poisson arrivals, lognormal
// widths and runtimes, and users over-estimating walltimes.
type BackgroundConfig struct {
	// ArrivalRate is jobs per second (Poisson process).
	ArrivalRate float64
	// Width samples the requested node count; values are rounded and clamped
	// to [1, machine size].
	Width stats.Dist
	// Runtime samples the actual runtime in seconds.
	Runtime stats.Dist
	// WalltimeFactor samples the user's walltime over-estimation multiplier,
	// clamped to at least 1.
	WalltimeFactor stats.Dist
	// Horizon stops arrivals after this much virtual time; zero means no
	// limit (arrivals continue while the simulation runs).
	Horizon time.Duration
}

// Validate reports a descriptive error for malformed configurations.
func (c BackgroundConfig) Validate() error {
	if c.ArrivalRate <= 0 {
		return fmt.Errorf("batch: background arrival rate %g must be positive", c.ArrivalRate)
	}
	if c.Width == nil || c.Runtime == nil {
		return fmt.Errorf("batch: background width and runtime distributions are required")
	}
	return nil
}

// DefaultBackground returns a workload that drives a machine of the given
// size to roughly the target utilization (0 < target < 1). It solves the
// steady-state identity  rate × E[width] × E[runtime] = target × nodes
// for the arrival rate, with moderately heavy-tailed widths and runtimes.
func DefaultBackground(nodes int, target float64) BackgroundConfig {
	if target <= 0 || target >= 1 {
		panic(fmt.Sprintf("batch: background target utilization %g out of (0, 1)", target))
	}
	width := stats.NewClamped(stats.NewLogNormal(math.Log(4), 1.0), 1, float64(nodes)/2)
	runtime := stats.NewClamped(stats.LogNormalFromMedian(3600, 1.0), 60, 48*3600)
	// Means of the clamped lognormals, estimated analytically from the
	// unclamped forms (clamping trims a small tail).
	meanWidth := stats.NewLogNormal(math.Log(4), 1.0).Mean()
	meanRun := stats.LogNormalFromMedian(3600, 1.0).Mean()
	rate := target * float64(nodes) / (meanWidth * meanRun)
	return BackgroundConfig{
		ArrivalRate:    rate,
		Width:          width,
		Runtime:        runtime,
		WalltimeFactor: stats.NewUniform(1.2, 3.0),
	}
}

// background feeds synthetic jobs into a Queue.
type background struct {
	eng     *sim.Sim
	queue   Queue
	cfg     BackgroundConfig
	rng     *rand.Rand
	nodes   int
	created int
}

// StartBackground begins Poisson arrivals into q. nodes caps sampled widths.
func StartBackground(eng *sim.Sim, q Queue, nodes int, cfg BackgroundConfig, rng *rand.Rand) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if rng == nil {
		return fmt.Errorf("batch: background requires an RNG")
	}
	b := &background{eng: eng, queue: q, cfg: cfg, rng: rng, nodes: nodes}
	b.scheduleNext()
	return nil
}

func (b *background) scheduleNext() {
	gap := time.Duration(b.rng.ExpFloat64() / b.cfg.ArrivalRate * float64(time.Second))
	if b.cfg.Horizon > 0 && b.eng.Now().Add(gap).Sub(sim.Time(0)) > b.cfg.Horizon {
		return
	}
	b.eng.Schedule(gap, func() {
		b.submitOne()
		b.scheduleNext()
	})
}

func (b *background) submitOne() {
	width := int(math.Round(b.cfg.Width.Sample(b.rng)))
	if width < 1 {
		width = 1
	}
	if width > b.nodes {
		width = b.nodes
	}
	runSecs := b.cfg.Runtime.Sample(b.rng)
	if runSecs < 1 {
		runSecs = 1
	}
	factor := 1.0
	if b.cfg.WalltimeFactor != nil {
		factor = b.cfg.WalltimeFactor.Sample(b.rng)
		if factor < 1 {
			factor = 1
		}
	}
	b.created++
	job := &Job{
		ID:       fmt.Sprintf("bg-%06d", b.created),
		Nodes:    width,
		Runtime:  time.Duration(runSecs * float64(time.Second)),
		Walltime: time.Duration(runSecs * factor * float64(time.Second)),
	}
	// Background submission failures (e.g. width > machine) are impossible
	// by construction; surface any violation loudly.
	if err := b.queue.Submit(job); err != nil {
		panic(fmt.Sprintf("batch: background submission failed: %v", err))
	}
}
