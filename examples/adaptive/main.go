// Adaptive execution: the paper's §V "dynamic execution" direction made
// concrete. A single-pilot strategy lands on a congested resource; the
// execution manager notices that nothing has activated within its patience
// window and widens the coupling onto the best-predicted alternative
// resource, rescuing the run. Compare the same run without adaptation.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"aimes"
)

func main() {
	const tasks = 64
	app := aimes.BagOfTasks(tasks, aimes.UniformDuration())
	ctx := context.Background()

	for _, adaptive := range []bool{false, true} {
		// Seed 1437 is a run whose randomly chosen single resource draws a
		// long queue wait — the tail the paper's Figure 4(a) shows.
		env, err := aimes.NewEnv(aimes.WithSeed(1437))
		if err != nil {
			log.Fatal(err)
		}
		// Prime predictive history so adaptation can rank alternatives
		// (a live bundle agent accumulates this over time).
		for _, name := range env.Resources() {
			r := env.Bundle().Resource(name)
			for i := 0; i < 64; i++ {
				r.ObserveWait(float64(600 + 300*len(name)))
			}
		}
		w, err := aimes.GenerateWorkload(app, 1437)
		if err != nil {
			log.Fatal(err)
		}
		strategy, err := env.Derive(w, aimes.StrategyConfig{
			Binding:   aimes.LateBinding,
			Scheduler: aimes.SchedBackfill,
			Pilots:    1,
		})
		if err != nil {
			log.Fatal(err)
		}

		cfg := aimes.JobConfig{Strategy: &strategy}
		if adaptive {
			cfg.Adaptive = &aimes.AdaptiveConfig{
				Patience:       15 * time.Minute,
				MaxExtraPilots: 2,
			}
		}
		job, err := env.Submit(ctx, w, cfg)
		if err != nil {
			log.Fatal(err)
		}
		report, err := job.Wait(ctx)
		if err != nil {
			log.Fatal(err)
		}
		mode := "static  "
		if adaptive {
			mode = "adaptive"
		}
		fmt.Printf("%s  on %-10s  TTC %8.0fs  Tw %8.0fs  extra pilots %d\n",
			mode, strategy.Resources[0], report.TTC.Seconds(), report.Tw.Seconds(),
			report.ExtraPilots)
	}
}
