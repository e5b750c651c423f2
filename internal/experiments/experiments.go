// Package experiments defines and runs the paper's evaluation: the four
// experiments of Table I over bag-of-task skeletons of 8–2048 tasks, plus
// the ablations of the Ablations registry (README, "aimes-experiments").
// The evaluation runs on the middleware it evaluates: each run is a fresh
// single-shard aimes.Environment over the simulated five-resource testbed,
// one Submit and one Wait, and the job's report is the TTC decomposition.
// Independent runs fan out over a worker pool.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"aimes"
	"aimes/internal/core"
	"aimes/internal/pilot"
	"aimes/internal/site"
	"aimes/internal/skeleton"
)

// Sizes are the paper's application sizes: 2^3 .. 2^11 tasks.
var Sizes = []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048}

// DurationKind selects the task-duration distribution.
type DurationKind int

// Task-duration distributions of Table I.
const (
	// Uniform15m is the constant 15-minute duration (experiments 1 and 3;
	// the paper's tables call it "uniform").
	Uniform15m DurationKind = iota
	// TruncGaussian is the truncated Gaussian: mean 15 min, stdev 5 min,
	// bounds [1, 30] min (experiments 2 and 4).
	TruncGaussian
	// LognormalDuration is a heavy-tailed mix (median 10 min) for the
	// heterogeneous-workload ablation A6 (paper §V).
	LognormalDuration
)

func (d DurationKind) String() string {
	switch d {
	case TruncGaussian:
		return "gaussian"
	case LognormalDuration:
		return "lognormal"
	}
	return "uniform"
}

// Spec returns the skeleton duration spec.
func (d DurationKind) Spec() skeleton.Spec {
	switch d {
	case TruncGaussian:
		return skeleton.GaussianDuration()
	case LognormalDuration:
		return skeleton.Spec{Dist: "lognormal", Median: 600, Sigma: 0.8}
	}
	return skeleton.UniformDuration()
}

// Definition is one experiment row of Table I.
type Definition struct {
	ID        int
	Duration  DurationKind
	Binding   core.Binding
	Scheduler core.SchedulerKind
	Pilots    int
}

// Label is a short human-readable tag, e.g. "Early Uniform 1 Pilot".
func (d Definition) Label() string {
	b := "Early"
	if d.Binding == core.LateBinding {
		b = "Late"
	}
	dur := "Uniform"
	if d.Duration == TruncGaussian {
		dur = "Gaussian"
	}
	plural := "Pilot"
	if d.Pilots > 1 {
		plural = "Pilots"
	}
	return fmt.Sprintf("%s %s %d %s", b, dur, d.Pilots, plural)
}

// StrategyConfig returns the strategy knobs for this experiment.
func (d Definition) StrategyConfig() core.StrategyConfig {
	return core.StrategyConfig{
		Binding:   d.Binding,
		Scheduler: d.Scheduler,
		Pilots:    d.Pilots,
		Selection: core.SelectRandom,
	}
}

// TableI is the paper's experiment matrix.
var TableI = []Definition{
	{ID: 1, Duration: Uniform15m, Binding: core.EarlyBinding, Scheduler: core.SchedDirect, Pilots: 1},
	{ID: 2, Duration: TruncGaussian, Binding: core.EarlyBinding, Scheduler: core.SchedDirect, Pilots: 1},
	{ID: 3, Duration: Uniform15m, Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 3},
	{ID: 4, Duration: TruncGaussian, Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 3},
}

// Experiment returns the Table I definition by ID.
func Experiment(id int) (Definition, error) {
	for _, d := range TableI {
		if d.ID == id {
			return d, nil
		}
	}
	return Definition{}, fmt.Errorf("experiments: unknown experiment %d", id)
}

// RunSpec identifies one run: an experiment, a size and a repetition.
type RunSpec struct {
	Exp    Definition
	NTasks int
	Rep    int
	// Seed overrides the derived seed when nonzero.
	Seed int64
	// Sites overrides the default testbed when non-nil.
	Sites []site.Config
	// PilotConfig overrides the default middleware config when non-nil.
	PilotConfig *pilot.Config
	// Selection overrides the experiment's resource selection.
	Selection *core.Selection
	// PrimeHistory seeds each bundle resource with this many archived wait
	// observations before strategy derivation (predictive selection).
	PrimeHistory int
	// AutoPilots lets the execution manager choose the pilot count from
	// bundle history instead of the experiment's fixed value.
	AutoPilots bool
	// Adaptive, when non-nil, enacts with runtime strategy adaptation; the
	// result's label gains " adaptive".
	Adaptive *core.AdaptiveConfig
}

// seed derives the deterministic run seed.
func (r RunSpec) seed() int64 {
	if r.Seed != 0 {
		return r.Seed
	}
	return int64(r.Exp.ID)*1_000_003 + int64(r.NTasks)*101 + int64(r.Rep) + 12345
}

// Result is one run's measured outcome, in seconds.
type Result struct {
	Exp    int
	Label  string
	NTasks int
	Rep    int

	TTC float64
	Tw  float64
	Tx  float64
	Ts  float64

	UnitsDone   int
	UnitsFailed int
	Restarts    int
	ExtraPilots int
	Throughput  float64 // units per hour
	CoreHours   float64
	Efficiency  float64
	Err         string
}

// newEnv builds the spec's environment: one shard — a run is one job — on
// the run's seed, with the spec's testbed, middleware configuration and
// archived wait history. The caller closes it.
func newEnv(spec RunSpec) (*aimes.Environment, error) {
	// No sites is WithSites' default too: the five-resource testbed.
	opts := []aimes.Option{aimes.WithSeed(spec.seed()), aimes.WithShards(1), aimes.WithSites(spec.Sites...)}
	if spec.PilotConfig != nil {
		opts = append(opts, aimes.WithPilotConfig(*spec.PilotConfig))
	}
	env, err := aimes.NewEnv(opts...)
	if err != nil {
		return nil, err
	}
	if spec.PrimeHistory > 0 {
		configs := spec.Sites
		if configs == nil {
			configs = site.DefaultTestbed()
		}
		primeBundle(env.Bundle(), configs, spec.PrimeHistory, spec.seed())
	}
	return env, nil
}

// fill copies a report into a result.
func (r *Result) fill(report *core.Report) {
	r.TTC = report.TTC.Seconds()
	r.Tw = report.Tw.Seconds()
	r.Tx = report.Tx.Seconds()
	r.Ts = report.Ts.Seconds()
	r.UnitsDone = report.UnitsDone
	r.UnitsFailed = report.UnitsFailed
	r.Restarts = report.TotalRestarts
	r.Throughput = report.Throughput
	r.ExtraPilots = report.ExtraPilots
	r.CoreHours = report.CoreHours
	r.Efficiency = report.Efficiency
}

// Run executes one spec on a fresh simulated testbed.
func Run(spec RunSpec) Result {
	res := Result{Exp: spec.Exp.ID, Label: spec.Exp.Label(), NTasks: spec.NTasks, Rep: spec.Rep}
	if spec.Adaptive != nil {
		res.Label += " adaptive"
	}
	report, err := run(spec)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.fill(report)
	return res
}

// run builds the spec's environment and workload and runs the workload as
// one job: the shard derives the strategy and enacts it — statically, or
// adaptively when spec.Adaptive is set.
func run(spec RunSpec) (*core.Report, error) {
	env, err := newEnv(spec)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	w, err := skeleton.Generate(skeleton.BagOfTasks(spec.NTasks, spec.Exp.Duration.Spec()), spec.seed())
	if err != nil {
		return nil, err
	}
	cfg := spec.Exp.StrategyConfig()
	if spec.Selection != nil {
		cfg.Selection = *spec.Selection
	}
	if spec.AutoPilots {
		cfg.Pilots = 0
		cfg.AutoPilots = true
	}
	return runJob(env, w, aimes.JobConfig{StrategyConfig: cfg, Adaptive: spec.Adaptive})
}

// runJob is one Submit and one Wait.
func runJob(env *aimes.Environment, w *skeleton.Workload, cfg aimes.JobConfig) (*core.Report, error) {
	j, err := env.Submit(context.Background(), w, cfg)
	if err != nil {
		return nil, err
	}
	return j.Wait(context.Background())
}

// primeBundle replays archived wait observations into each resource's
// predictive history, sampled from the site's own wait model (standing in
// for historical trace data a bundle agent would have accumulated).
func primeBundle(b *aimes.Bundle, configs []site.Config, n int, seed int64) {
	for _, cfg := range configs {
		r := b.Resource(cfg.Name)
		if r == nil || cfg.Mode != site.Modeled {
			continue
		}
		rng := rand.New(rand.NewSource(seed ^ int64(len(cfg.Name))*7919))
		for i := 0; i < n; i++ {
			r.ObserveWait(cfg.WaitModel.SampleWait(rng, 1, cfg.Nodes).Seconds())
		}
	}
}

// pool calls fn(0) … fn(n-1) from at most workers goroutines (GOMAXPROCS
// when workers <= 0) and returns once every call has.
func pool(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// RunAll executes specs over a worker pool and returns results in spec
// order. workers <= 0 uses GOMAXPROCS.
func RunAll(specs []RunSpec, workers int) []Result {
	results := make([]Result, len(specs))
	pool(len(specs), workers, func(i int) { results[i] = Run(specs[i]) })
	return results
}

// Matrix builds the full paper evaluation: every experiment × size × rep.
func Matrix(exps []Definition, sizes []int, reps int) []RunSpec {
	var specs []RunSpec
	for _, e := range exps {
		for _, n := range sizes {
			for r := 0; r < reps; r++ {
				specs = append(specs, RunSpec{Exp: e, NTasks: n, Rep: r})
			}
		}
	}
	return specs
}

// DefaultReps is the repetition count used by the CLI and benchmarks; the
// paper ran each application "many times depending on run-to-run
// fluctuation".
const DefaultReps = 12
