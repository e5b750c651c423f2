// Package experiments defines and runs the paper's evaluation: the four
// experiments of Table I over bag-of-task skeletons of 8–2048 tasks, plus
// the ablations listed in DESIGN.md. Each run builds a fresh simulated
// five-resource testbed, derives the experiment's execution strategy,
// enacts it through the execution manager, and reports the TTC
// decomposition. Independent runs fan out over a worker pool.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"aimes/internal/bundle"
	"aimes/internal/core"
	"aimes/internal/netsim"
	"aimes/internal/pilot"
	"aimes/internal/saga"
	"aimes/internal/sim"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
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
	// Warmup advances the simulation before enactment so emergent-mode
	// background load reaches steady state. Defaults to 72 virtual hours
	// when any site is emergent; ignored (zero) for modeled sites.
	Warmup time.Duration
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

// runEnv is one fully wired simulated environment.
type runEnv struct {
	eng  *sim.Sim
	bndl *bundle.Bundle
	mgr  *core.Manager
	rng  *rand.Rand
}

// buildEnv assembles the testbed, session, bundle and manager for one run.
func buildEnv(spec RunSpec, seed int64) (*runEnv, error) {
	eng := sim.NewSim()
	configs := spec.Sites
	if configs == nil {
		configs = site.DefaultTestbed()
	}
	tb, err := site.NewTestbed(eng, configs, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	sess := saga.NewSession()
	for _, s := range tb.Sites() {
		sess.Register(saga.NewBatchAdaptor(eng, s))
	}
	b := bundle.New(tb.Sites())
	if spec.PrimeHistory > 0 {
		primeBundle(b, configs, spec.PrimeHistory, seed)
	}
	links := func(resource string) *netsim.Link {
		s := tb.Site(resource)
		if s == nil {
			return nil
		}
		return s.Link()
	}
	pcfg := pilot.DefaultConfig()
	if spec.PilotConfig != nil {
		pcfg = *spec.PilotConfig
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	// Results come from reports, which are accumulated as the run goes:
	// nothing reads a trace here, so none is kept.
	mgr := core.NewManager(eng, b, sess, links, pcfg, trace.Discard, rng)

	// Emergent queues need a warmup so the background load has filled the
	// machines; otherwise pilots land on empty systems.
	warmup := spec.Warmup
	if warmup == 0 {
		for _, c := range configs {
			if c.Mode == site.Emergent {
				warmup = 72 * time.Hour
				break
			}
		}
	}
	if warmup > 0 {
		eng.RunUntil(sim.Time(warmup))
	}
	return &runEnv{eng: eng, bndl: b, mgr: mgr, rng: rng}, nil
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

// run builds the spec's environment and workload, derives the strategy and
// executes it — statically, or adaptively when spec.Adaptive is set.
func run(spec RunSpec) (*core.Report, error) {
	seed := spec.seed()
	env, err := buildEnv(spec, seed)
	if err != nil {
		return nil, err
	}
	w, err := skeleton.Generate(skeleton.BagOfTasks(spec.NTasks, spec.Exp.Duration.Spec()), seed)
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
	if spec.Adaptive == nil {
		return env.mgr.DeriveAndExecute(w, cfg)
	}
	s, err := core.Derive(w, env.bndl, cfg, env.rng)
	if err != nil {
		return nil, err
	}
	exec, err := env.mgr.ExecuteAdaptive(w, s, *spec.Adaptive)
	if err != nil {
		return nil, err
	}
	return env.mgr.WaitFor(exec)
}

// primeBundle replays archived wait observations into each resource's
// predictive history, sampled from the site's own wait model (standing in
// for historical trace data a bundle agent would have accumulated).
func primeBundle(b *bundle.Bundle, configs []site.Config, n int, seed int64) {
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

// RunAll executes specs over a worker pool and returns results in spec
// order. workers <= 0 uses GOMAXPROCS.
func RunAll(specs []RunSpec, workers int) []Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]Result, len(specs))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = Run(specs[i])
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
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
