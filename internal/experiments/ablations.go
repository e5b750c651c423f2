package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"aimes/internal/batch"
	"aimes/internal/core"
	"aimes/internal/pilot"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/stats"
)

// The ablations make the paper's §V future-work directions concrete; each
// returns a formatted table mirroring the main figures' style.

// AblationPilotCount sweeps the number of pilots (1..5) for late binding,
// answering where the min-over-k queue-wait benefit saturates (the paper's
// "extending to up to 17 resources" direction, bounded by the 5-site
// testbed).
func AblationPilotCount(w io.Writer, ntasks, reps, workers int) error {
	if _, err := fmt.Fprintf(w, "Ablation A1: pilot-count sweep, %d tasks, late binding + backfill (seconds)\n", ntasks); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "pilots     mean      std      p25      p75"); err != nil {
		return err
	}
	for pilots := 1; pilots <= 5; pilots++ {
		def := Definition{
			ID: 30 + pilots, Duration: Uniform15m,
			Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: pilots,
		}
		var specs []RunSpec
		for r := 0; r < reps; r++ {
			specs = append(specs, RunSpec{Exp: def, NTasks: ntasks, Rep: r})
		}
		var ttc stats.Summary
		for _, res := range RunAll(specs, workers) {
			if res.Err == "" {
				ttc.Add(res.TTC)
			}
		}
		if _, err := fmt.Fprintf(w, "%6d  %7.0f  %7.0f  %7.0f  %7.0f\n",
			pilots, ttc.Mean(), ttc.Std(), ttc.Percentile(25), ttc.Percentile(75)); err != nil {
			return err
		}
	}
	return nil
}

// AblationEmergentWaits cross-validates the stochastic queue model against
// the full batch-scheduler simulation: the same strategies run on emergent
// queues (EASY backfill under ~88% background utilization). The late-vs-
// early ordering must hold in both substrates.
func AblationEmergentWaits(w io.Writer, ntasks, reps, workers int) error {
	if _, err := fmt.Fprintf(w, "Ablation A2: emergent batch-sim queues vs stochastic model, %d tasks (seconds)\n", ntasks); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "substrate    strategy  mean_ttc  mean_tw"); err != nil {
		return err
	}
	emergent := site.EmergentTestbed(site.DefaultTestbed(), 0.88, batch.EASY{})
	for _, mode := range []string{"modeled", "emergent"} {
		for _, expID := range []int{1, 3} {
			def, err := Experiment(expID)
			if err != nil {
				return err
			}
			var specs []RunSpec
			for r := 0; r < reps; r++ {
				spec := RunSpec{Exp: def, NTasks: ntasks, Rep: r}
				if mode == "emergent" {
					spec.Sites = emergent
				}
				specs = append(specs, spec)
			}
			var ttc, tw stats.Summary
			for _, res := range RunAll(specs, workers) {
				if res.Err == "" {
					ttc.Add(res.TTC)
					tw.Add(res.Tw)
				}
			}
			if _, err := fmt.Fprintf(w, "%-11s  %-8s  %8.0f  %7.0f\n",
				mode, def.Binding, ttc.Mean(), tw.Mean()); err != nil {
				return err
			}
		}
	}
	return nil
}

// AblationPrediction compares random resource selection against the bundle's
// predictive mode (QBETS-style median-wait forecasts over primed history)
// for late binding with 3 pilots.
func AblationPrediction(w io.Writer, ntasks, reps, workers int) error {
	if _, err := fmt.Fprintf(w, "Ablation A3: resource selection policy, %d tasks, late binding 3 pilots (seconds)\n", ntasks); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "selection       mean      std"); err != nil {
		return err
	}
	def, err := Experiment(3)
	if err != nil {
		return err
	}
	for _, sel := range []core.Selection{core.SelectRandom, core.SelectByPredictedWait} {
		var specs []RunSpec
		for r := 0; r < reps; r++ {
			s := sel
			specs = append(specs, RunSpec{
				Exp: def, NTasks: ntasks, Rep: r, Selection: &s, PrimeHistory: 256,
			})
		}
		var ttc stats.Summary
		for _, res := range RunAll(specs, workers) {
			if res.Err == "" {
				ttc.Add(res.TTC)
			}
		}
		if _, err := fmt.Fprintf(w, "%-14s %7.0f  %7.0f\n", sel, ttc.Mean(), ttc.Std()); err != nil {
			return err
		}
	}
	return nil
}

// AblationFailures measures the cost of automatic task restarts as the
// per-attempt unit failure probability rises.
func AblationFailures(w io.Writer, ntasks, reps, workers int) error {
	if _, err := fmt.Fprintf(w, "Ablation A4: unit failure injection, %d tasks, late binding 3 pilots\n", ntasks); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "fail_prob  mean_ttc  mean_restarts  failed_units"); err != nil {
		return err
	}
	def, err := Experiment(3)
	if err != nil {
		return err
	}
	for _, prob := range []float64{0, 0.05, 0.15, 0.30} {
		cfg := pilot.DefaultConfig()
		cfg.UnitFailureProb = prob
		var specs []RunSpec
		for r := 0; r < reps; r++ {
			c := cfg
			specs = append(specs, RunSpec{Exp: def, NTasks: ntasks, Rep: r, PilotConfig: &c})
		}
		var ttc, restarts stats.Summary
		failed := 0
		for _, res := range RunAll(specs, workers) {
			if res.Err != "" {
				continue
			}
			ttc.Add(res.TTC)
			restarts.Add(float64(res.Restarts))
			failed += res.UnitsFailed
		}
		if _, err := fmt.Fprintf(w, "%9.2f  %8.0f  %13.1f  %12d\n",
			prob, ttc.Mean(), restarts.Mean(), failed); err != nil {
			return err
		}
	}
	return nil
}

// AblationThroughput reports the throughput metric (units/hour) across the
// four Table I strategies — the paper's "generalizing to different metrics
// including throughput".
func AblationThroughput(w io.Writer, ntasks, reps, workers int) error {
	if _, err := fmt.Fprintf(w, "Ablation A5: throughput across strategies, %d tasks (units/hour)\n", ntasks); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "exp  strategy                       mean      std"); err != nil {
		return err
	}
	for _, def := range TableI {
		var specs []RunSpec
		for r := 0; r < reps; r++ {
			specs = append(specs, RunSpec{Exp: def, NTasks: ntasks, Rep: r})
		}
		var tput stats.Summary
		for _, res := range RunAll(specs, workers) {
			if res.Err == "" {
				tput.Add(res.Throughput)
			}
		}
		if _, err := fmt.Fprintf(w, "%3d  %-26s  %7.0f  %7.0f\n",
			def.ID, def.Label(), tput.Mean(), tput.Std()); err != nil {
			return err
		}
	}
	return nil
}

// AblationAdaptive compares a static single-pilot late-binding strategy
// against the same strategy with runtime adaptation (paper §V "dynamic
// execution"): if no pilot activates within the patience window, the
// execution manager widens onto additional resources.
func AblationAdaptive(w io.Writer, ntasks, reps, workers int) error {
	if _, err := fmt.Fprintf(w, "Ablation A7: runtime adaptation, %d tasks, late binding 1 pilot (seconds)\n", ntasks); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "mode       mean_ttc      p90  extra_pilots"); err != nil {
		return err
	}
	def := Definition{
		ID: 70, Duration: Uniform15m,
		Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 1,
	}
	acfg := core.AdaptiveConfig{Patience: 15 * time.Minute, MaxExtraPilots: 2}
	for _, adaptive := range []bool{false, true} {
		var ttc stats.Summary
		extra := 0
		// Adaptive runs submit pilots serially, so keep them in the pool too.
		var wg sync.WaitGroup
		results := make([]Result, reps)
		sem := make(chan struct{}, poolSize(workers))
		for r := 0; r < reps; r++ {
			wg.Add(1)
			go func(rep int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				spec := RunSpec{Exp: def, NTasks: ntasks, Rep: rep, PrimeHistory: 128}
				if adaptive {
					spec.Adaptive = &acfg
				}
				results[rep] = Run(spec)
			}(r)
		}
		wg.Wait()
		for _, res := range results {
			if res.Err != "" {
				continue
			}
			ttc.Add(res.TTC)
			extra += res.ExtraPilots
		}
		mode := "static"
		if adaptive {
			mode = "adaptive"
		}
		if _, err := fmt.Fprintf(w, "%-8s  %9.0f  %7.0f  %12d\n",
			mode, ttc.Mean(), ttc.Percentile(90), extra); err != nil {
			return err
		}
	}
	return nil
}

// AblationAutoPilots compares the fixed 3-pilot strategy against the
// execution manager's semi-empirical pilot-count heuristic over primed
// bundle history (§III-D).
func AblationAutoPilots(w io.Writer, ntasks, reps, workers int) error {
	if _, err := fmt.Fprintf(w, "Ablation A8: automatic pilot-count selection, %d tasks (seconds)\n", ntasks); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "mode       mean_ttc      std"); err != nil {
		return err
	}
	for _, auto := range []bool{false, true} {
		def := Definition{
			ID: 80, Duration: Uniform15m,
			Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 3,
		}
		// Both arms use predictive selection: the heuristic reasons about
		// the k best-predicted resources, so the selection must agree.
		sel := core.SelectByPredictedWait
		var specs []RunSpec
		for r := 0; r < reps; r++ {
			specs = append(specs, RunSpec{
				Exp: def, NTasks: ntasks, Rep: r, PrimeHistory: 128,
				AutoPilots: auto, Selection: &sel,
			})
		}
		var ttc stats.Summary
		for _, res := range RunAll(specs, workers) {
			if res.Err == "" {
				ttc.Add(res.TTC)
			}
		}
		mode := "fixed-3"
		if auto {
			mode = "auto-k"
		}
		if _, err := fmt.Fprintf(w, "%-8s  %9.0f  %7.0f\n", mode, ttc.Mean(), ttc.Std()); err != nil {
			return err
		}
	}
	return nil
}

func poolSize(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// AblationHeterogeneous runs non-uniform task sizes (lognormal durations,
// the paper's "distributed applications comprised of non-uniform task
// sizes") under early and late binding.
func AblationHeterogeneous(w io.Writer, ntasks, reps, workers int) error {
	if _, err := fmt.Fprintf(w, "Ablation A6: heterogeneous task durations (lognormal, median 10m), %d tasks (seconds)\n", ntasks); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "strategy  mean_ttc  mean_tx"); err != nil {
		return err
	}
	// Lognormal durations: median 10 min, sigma 0.8, clamped to [30s, 2h].
	hetero := func(id int, binding core.Binding, sched core.SchedulerKind, pilots int) Definition {
		return Definition{ID: id, Duration: LognormalDuration, Binding: binding, Scheduler: sched, Pilots: pilots}
	}
	for _, def := range []Definition{
		hetero(61, core.EarlyBinding, core.SchedDirect, 1),
		hetero(63, core.LateBinding, core.SchedBackfill, 3),
	} {
		var specs []RunSpec
		for r := 0; r < reps; r++ {
			specs = append(specs, RunSpec{Exp: def, NTasks: ntasks, Rep: r})
		}
		var ttc, tx stats.Summary
		for _, res := range RunAll(specs, workers) {
			if res.Err == "" {
				ttc.Add(res.TTC)
				tx.Add(res.Tx)
			}
		}
		if _, err := fmt.Fprintf(w, "%-8s  %8.0f  %7.0f\n", def.Binding, ttc.Mean(), tx.Mean()); err != nil {
			return err
		}
	}
	return nil
}

// AblationEfficiency reports allocation consumption across the four Table I
// strategies — the paper's space/time-efficiency discussion (§IV-B): early
// binding on a right-sized pilot wastes no walltime, while late binding
// trades extra pilot allocation for lower TTC.
func AblationEfficiency(w io.Writer, ntasks, reps, workers int) error {
	if _, err := fmt.Fprintf(w, "Ablation A9: allocation efficiency, %d tasks\n", ntasks); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "exp  strategy                    core_hours  busy_pct"); err != nil {
		return err
	}
	for _, def := range TableI {
		var specs []RunSpec
		for r := 0; r < reps; r++ {
			specs = append(specs, RunSpec{Exp: def, NTasks: ntasks, Rep: r})
		}
		var hours, eff stats.Summary
		for _, res := range RunAll(specs, workers) {
			if res.Err == "" {
				hours.Add(res.CoreHours)
				eff.Add(res.Efficiency)
			}
		}
		if _, err := fmt.Fprintf(w, "%3d  %-26s  %10.0f  %8.0f\n",
			def.ID, def.Label(), hours.Mean(), 100*eff.Mean()); err != nil {
			return err
		}
	}
	return nil
}

// AblationStaged compares integrated enactment (one strategy for the whole
// multistage workflow) against staged decomposition with per-stage strategy
// re-derivation (paper §V's workflow decomposition). Integrated enactment
// keeps same-pilot intermediates on the resource; staged decomposition
// re-derives from fresher resource information at each stage boundary.
func AblationStaged(w io.Writer, reps, workers int) error {
	if _, err := fmt.Fprintln(w, "Ablation A10: integrated vs staged enactment, 3-stage workflow (seconds)"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "mode        mean_ttc  mean_ts"); err != nil {
		return err
	}
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
	for _, staged := range []bool{false, true} {
		var ttc, ts stats.Summary
		for r := 0; r < reps; r++ {
			seed := int64(9000 + r)
			env, err := buildEnv(RunSpec{Seed: seed}, seed)
			if err != nil {
				return err
			}
			wl, err := skeleton.Generate(app, seed)
			if err != nil {
				return err
			}
			var report *core.Report
			if staged {
				report, _, err = env.mgr.ExecuteStaged(wl, cfg)
			} else {
				report, err = env.mgr.DeriveAndExecute(wl, cfg)
			}
			if err != nil {
				return err
			}
			ttc.Add(report.TTC.Seconds())
			ts.Add(report.Ts.Seconds())
		}
		mode := "integrated"
		if staged {
			mode = "staged"
		}
		if _, err := fmt.Fprintf(w, "%-10s  %8.0f  %7.0f\n", mode, ttc.Mean(), ts.Mean()); err != nil {
			return err
		}
	}
	return nil
}
