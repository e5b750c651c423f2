package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"aimes"
	"aimes/internal/core"
	"aimes/internal/pilot"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/stats"
)

// The ablations make the paper's §V future-work directions concrete; each
// prints a table mirroring the main figures' style.

// Ablation is one entry of the registry: everything that offers the
// ablations by name (the CLI's -ablation flag and its help, the integration
// test, the benchmarks) ranges over Ablations.
type Ablation struct {
	// Name selects the ablation (aimes-experiments -ablation <name>).
	Name string
	// Tasks is the application size the CLI and the benchmarks run; Small is
	// the smallest size that still fills every row, for tests. Both are 0
	// when the ablation fixes its own workload.
	Tasks, Small int
	// Run prints the table for reps repetitions per row over a pool of
	// workers goroutines (GOMAXPROCS when workers <= 0). A run that fails
	// fails the ablation.
	Run func(w io.Writer, ntasks, reps, workers int) error
}

// Ablations is the registry, in the order A1–A11 were introduced.
var Ablations = []Ablation{
	{Name: "pilots", Tasks: 256, Small: 64, Run: ablationPilotCount},
	{Name: "emergent", Tasks: 64, Small: 16, Run: ablationEmergentWaits},
	{Name: "predict", Tasks: 256, Small: 64, Run: ablationPrediction},
	{Name: "failures", Tasks: 128, Small: 32, Run: ablationFailures},
	{Name: "throughput", Tasks: 256, Small: 64, Run: ablationThroughput},
	{Name: "hetero", Tasks: 256, Small: 64, Run: ablationHeterogeneous},
	{Name: "adaptive", Tasks: 128, Small: 32, Run: ablationAdaptive},
	{Name: "autok", Tasks: 256, Small: 64, Run: ablationAutoPilots},
	{Name: "efficiency", Tasks: 256, Small: 64, Run: ablationEfficiency},
	{Name: "staged", Run: ablationStaged},
	{Name: "outages", Tasks: 128, Small: 32, Run: ablationOutages},
}

// arm is one row of an ablation's table: the row's label, already formatted,
// and how to make its rep-th run.
type arm[R any] struct {
	label string
	run   func(rep int) (R, error)
}

// sweep is the loop every ablation is: reps runs of every arm, all on one
// pool, then the title, the header and one row per arm — its label, then the
// columns cols makes of its runs.
func sweep[R any](w io.Writer, title, header string, reps, workers int, arms []arm[R], cols func(runs []R) string) error {
	runs := make([]R, len(arms)*reps)
	errs := make([]error, len(runs))
	pool(len(runs), workers, func(i int) { runs[i], errs[i] = arms[i/reps].run(i % reps) })
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: row %d, rep %d: %w", title, i/reps, i%reps, err)
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n%s\n", title, header); err != nil {
		return err
	}
	for a, arm := range arms {
		if _, err := fmt.Fprintf(w, "%s  %s\n", arm.label, cols(runs[a*reps:(a+1)*reps])); err != nil {
			return err
		}
	}
	return nil
}

// runsOf makes an arm's runs from a spec: Run with the repetition filled in.
func runsOf(spec RunSpec) func(rep int) (Result, error) {
	return func(rep int) (Result, error) {
		spec := spec // runs of one arm share the closure and go in parallel
		spec.Rep = rep
		res := Run(spec)
		if res.Err != "" {
			return res, errors.New(res.Err)
		}
		return res, nil
	}
}

// over summarises one quantity of an arm's runs.
func over[R any](runs []R, of func(R) float64) *stats.Summary {
	var s stats.Summary
	for _, r := range runs {
		s.Add(of(r))
	}
	return &s
}

func ttc(r Result) float64 { return r.TTC }

// late is the late-binding, backfill, uniform-duration experiment the sweeps
// vary one knob of.
func late(id, pilots int) Definition {
	return Definition{ID: id, Duration: Uniform15m, Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: pilots}
}

// tableIArms is one arm per Table I strategy, labelled with its ID and name.
func tableIArms(ntasks int) []arm[Result] {
	var arms []arm[Result]
	for _, def := range TableI {
		arms = append(arms, arm[Result]{fmt.Sprintf("%3d  %-26s", def.ID, def.Label()), runsOf(RunSpec{Exp: def, NTasks: ntasks})})
	}
	return arms
}

// ablationPilotCount sweeps the number of pilots (1..5) for late binding,
// answering where the min-over-k queue-wait benefit saturates (the paper's
// "extending to up to 17 resources" direction, bounded by the 5-site
// testbed).
func ablationPilotCount(w io.Writer, ntasks, reps, workers int) error {
	var arms []arm[Result]
	for pilots := 1; pilots <= 5; pilots++ {
		arms = append(arms, arm[Result]{fmt.Sprintf("%6d", pilots), runsOf(RunSpec{Exp: late(30+pilots, pilots), NTasks: ntasks})})
	}
	return sweep(w,
		fmt.Sprintf("Ablation A1: pilot-count sweep, %d tasks, late binding + backfill (seconds)", ntasks),
		"pilots     mean      std      p25      p75", reps, workers, arms,
		func(rs []Result) string {
			t := over(rs, ttc)
			return fmt.Sprintf("%7.0f  %7.0f  %7.0f  %7.0f", t.Mean(), t.Std(), t.Percentile(25), t.Percentile(75))
		})
}

// ablationEmergentWaits cross-validates the stochastic queue model against
// the full batch-scheduler simulation: the same strategies run on emergent
// queues (EASY backfill under ~88% background utilization). The late-vs-
// early ordering must hold in both substrates. An emergent run simulates a
// 72-hour warm-up of five machines first, so this sweep runs half the
// repetitions it is asked for.
func ablationEmergentWaits(w io.Writer, ntasks, reps, workers int) error {
	var arms []arm[Result]
	for _, sub := range []struct {
		name  string
		sites []site.Config
	}{{"modeled", nil}, {"emergent", site.EmergentTestbed(site.DefaultTestbed(), 0.88)}} {
		for _, def := range []Definition{TableI[0], TableI[2]} {
			arms = append(arms, arm[Result]{fmt.Sprintf("%-11s  %-8s", sub.name, def.Binding),
				runsOf(RunSpec{Exp: def, NTasks: ntasks, Sites: sub.sites})})
		}
	}
	return sweep(w,
		fmt.Sprintf("Ablation A2: emergent batch-sim queues vs stochastic model, %d tasks (seconds)", ntasks),
		"substrate    strategy  mean_ttc  mean_tw", (reps+1)/2, workers, arms,
		func(rs []Result) string {
			return fmt.Sprintf("%8.0f  %7.0f", over(rs, ttc).Mean(), over(rs, func(r Result) float64 { return r.Tw }).Mean())
		})
}

// ablationPrediction compares random resource selection against the bundle's
// predictive mode (QBETS-style median-wait forecasts over primed history)
// for late binding with 3 pilots.
func ablationPrediction(w io.Writer, ntasks, reps, workers int) error {
	var arms []arm[Result]
	for _, sel := range []core.Selection{core.SelectRandom, core.SelectByPredictedWait} {
		arms = append(arms, arm[Result]{fmt.Sprintf("%-14s", sel),
			runsOf(RunSpec{Exp: TableI[2], NTasks: ntasks, Selection: &sel, PrimeHistory: 256})})
	}
	return sweep(w,
		fmt.Sprintf("Ablation A3: resource selection policy, %d tasks, late binding 3 pilots (seconds)", ntasks),
		"selection       mean      std", reps, workers, arms,
		func(rs []Result) string {
			t := over(rs, ttc)
			return fmt.Sprintf("%6.0f  %7.0f", t.Mean(), t.Std())
		})
}

// ablationFailures measures the cost of automatic task restarts as the
// per-attempt unit failure probability rises.
func ablationFailures(w io.Writer, ntasks, reps, workers int) error {
	var arms []arm[Result]
	for _, prob := range []float64{0, 0.05, 0.15, 0.30} {
		cfg := pilot.DefaultConfig()
		cfg.UnitFailureProb = prob
		arms = append(arms, arm[Result]{fmt.Sprintf("%9.2f", prob), runsOf(RunSpec{Exp: TableI[2], NTasks: ntasks, PilotConfig: &cfg})})
	}
	return sweep(w,
		fmt.Sprintf("Ablation A4: unit failure injection, %d tasks, late binding 3 pilots", ntasks),
		"fail_prob  mean_ttc  mean_restarts  failed_units", reps, workers, arms,
		func(rs []Result) string {
			return fmt.Sprintf("%8.0f  %13.1f  %12.0f", over(rs, ttc).Mean(),
				over(rs, func(r Result) float64 { return float64(r.Restarts) }).Mean(),
				over(rs, func(r Result) float64 { return float64(r.UnitsFailed) }).Sum())
		})
}

// ablationThroughput reports the throughput metric (units/hour) across the
// four Table I strategies — the paper's "generalizing to different metrics
// including throughput".
func ablationThroughput(w io.Writer, ntasks, reps, workers int) error {
	return sweep(w,
		fmt.Sprintf("Ablation A5: throughput across strategies, %d tasks (units/hour)", ntasks),
		"exp  strategy                       mean      std", reps, workers, tableIArms(ntasks),
		func(rs []Result) string {
			tput := over(rs, func(r Result) float64 { return r.Throughput })
			return fmt.Sprintf("%7.0f  %7.0f", tput.Mean(), tput.Std())
		})
}

// ablationHeterogeneous runs non-uniform task sizes (lognormal durations,
// median 10 min, sigma 0.8 — the paper's "distributed applications comprised
// of non-uniform task sizes") under early and late binding.
func ablationHeterogeneous(w io.Writer, ntasks, reps, workers int) error {
	var arms []arm[Result]
	for _, def := range []Definition{
		{ID: 61, Duration: LognormalDuration, Binding: core.EarlyBinding, Scheduler: core.SchedDirect, Pilots: 1},
		{ID: 63, Duration: LognormalDuration, Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 3},
	} {
		arms = append(arms, arm[Result]{fmt.Sprintf("%-8s", def.Binding), runsOf(RunSpec{Exp: def, NTasks: ntasks})})
	}
	return sweep(w,
		fmt.Sprintf("Ablation A6: heterogeneous task durations (lognormal, median 10m), %d tasks (seconds)", ntasks),
		"strategy  mean_ttc  mean_tx", reps, workers, arms,
		func(rs []Result) string {
			return fmt.Sprintf("%8.0f  %7.0f", over(rs, ttc).Mean(), over(rs, func(r Result) float64 { return r.Tx }).Mean())
		})
}

// ablationAdaptive compares a static single-pilot late-binding strategy
// against the same strategy with runtime adaptation (paper §V "dynamic
// execution"): if no pilot activates within the patience window, the
// execution manager widens onto additional resources.
func ablationAdaptive(w io.Writer, ntasks, reps, workers int) error {
	spec := RunSpec{Exp: late(70, 1), NTasks: ntasks, PrimeHistory: 128}
	adaptive := spec
	adaptive.Adaptive = &core.AdaptiveConfig{Patience: 15 * time.Minute, MaxExtraPilots: 2}
	return sweep(w,
		fmt.Sprintf("Ablation A7: runtime adaptation, %d tasks, late binding 1 pilot (seconds)", ntasks),
		"mode       mean_ttc      p90  extra_pilots", reps, workers,
		[]arm[Result]{{"static  ", runsOf(spec)}, {"adaptive", runsOf(adaptive)}},
		func(rs []Result) string {
			t := over(rs, ttc)
			return fmt.Sprintf("%9.0f  %7.0f  %12.0f", t.Mean(), t.Percentile(90),
				over(rs, func(r Result) float64 { return float64(r.ExtraPilots) }).Sum())
		})
}

// ablationAutoPilots compares the fixed 3-pilot strategy against the
// execution manager's semi-empirical pilot-count heuristic over primed
// bundle history (§III-D). Both arms use predictive selection: the heuristic
// reasons about the k best-predicted resources, so the selection must agree.
func ablationAutoPilots(w io.Writer, ntasks, reps, workers int) error {
	sel := core.SelectByPredictedWait
	fixed := RunSpec{Exp: late(80, 3), NTasks: ntasks, PrimeHistory: 128, Selection: &sel}
	auto := fixed
	auto.AutoPilots = true
	return sweep(w,
		fmt.Sprintf("Ablation A8: automatic pilot-count selection, %d tasks (seconds)", ntasks),
		"mode       mean_ttc      std", reps, workers,
		[]arm[Result]{{"fixed-3 ", runsOf(fixed)}, {"auto-k  ", runsOf(auto)}},
		func(rs []Result) string {
			t := over(rs, ttc)
			return fmt.Sprintf("%9.0f  %7.0f", t.Mean(), t.Std())
		})
}

// ablationEfficiency reports allocation consumption across the four Table I
// strategies — the paper's space/time-efficiency discussion (§IV-B): early
// binding on a right-sized pilot wastes no walltime, while late binding
// trades extra pilot allocation for lower TTC.
func ablationEfficiency(w io.Writer, ntasks, reps, workers int) error {
	return sweep(w,
		fmt.Sprintf("Ablation A9: allocation efficiency, %d tasks", ntasks),
		"exp  strategy                    core_hours  busy_pct", reps, workers, tableIArms(ntasks),
		func(rs []Result) string {
			return fmt.Sprintf("%10.0f  %8.0f",
				over(rs, func(r Result) float64 { return r.CoreHours }).Mean(),
				100*over(rs, func(r Result) float64 { return r.Efficiency }).Mean())
		})
}

// ablationStaged compares integrated enactment (one strategy for the whole
// multistage workflow) against staged decomposition with per-stage strategy
// re-derivation (paper §V's workflow decomposition). Integrated enactment
// keeps same-pilot intermediates on the resource; staged decomposition
// re-derives from fresher resource information at each stage boundary. The
// workflow is fixed, so ntasks is not consulted.
func ablationStaged(w io.Writer, _, reps, workers int) error {
	app := skeleton.AppSpec{
		Name: "pipeline",
		Stages: []skeleton.StageSpec{
			{Name: "prep", Tasks: 64, DurationS: skeleton.Constant(300),
				InputBytes: skeleton.Constant(1 << 20), OutputBytes: skeleton.Constant(8 << 20)},
			{Name: "solve", Tasks: 64, DurationS: skeleton.Constant(600),
				OutputBytes: skeleton.Constant(4 << 20), Inputs: skeleton.MapOneToOne},
			{Name: "merge", Tasks: 8, DurationS: skeleton.Constant(120),
				OutputBytes: skeleton.Constant(1 << 20), Inputs: skeleton.MapGather},
		},
	}
	cfg := core.StrategyConfig{
		Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 2,
		Selection: core.SelectRandom,
	}
	runs := func(staged bool) func(rep int) (*core.Report, error) {
		return func(rep int) (*core.Report, error) {
			seed := int64(9000 + rep)
			env, err := newEnv(RunSpec{Seed: seed})
			if err != nil {
				return nil, err
			}
			defer env.Close()
			wl, err := skeleton.Generate(app, seed)
			if err != nil {
				return nil, err
			}
			if !staged {
				return runJob(env, wl, aimes.JobConfig{StrategyConfig: cfg})
			}
			report, _, err := env.RunStaged(wl, cfg)
			return report, err
		}
	}
	return sweep(w, "Ablation A10: integrated vs staged enactment, 3-stage workflow (seconds)",
		"mode        mean_ttc  mean_ts", reps, workers,
		[]arm[*core.Report]{{"integrated", runs(false)}, {"staged    ", runs(true)}},
		func(rs []*core.Report) string {
			return fmt.Sprintf("%8.0f  %7.0f",
				over(rs, func(r *core.Report) float64 { return r.TTC.Seconds() }).Mean(),
				over(rs, func(r *core.Report) float64 { return r.Ts.Seconds() }).Mean())
		})
}
