// Bag-of-tasks strategy comparison: the paper's experiment in miniature.
// The same 256-task application runs under all four Table I strategies on
// identical seeds, demonstrating why late binding over three pilots wins:
// the time-to-completion decomposition shows queue wait (Tw) dominating the
// early-binding runs while the late-binding runs hide it behind the first
// available pilot.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"aimes"
)

func main() {
	type strategy struct {
		label string
		cfg   aimes.StrategyConfig
		dur   aimes.Spec
	}
	strategies := []strategy{
		{"Exp1: early uniform 1 pilot", aimes.StrategyConfig{
			Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1},
			aimes.UniformDuration()},
		{"Exp2: early gaussian 1 pilot", aimes.StrategyConfig{
			Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1},
			aimes.GaussianDuration()},
		{"Exp3: late uniform 3 pilots", aimes.StrategyConfig{
			Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3},
			aimes.UniformDuration()},
		{"Exp4: late gaussian 3 pilots", aimes.StrategyConfig{
			Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3},
			aimes.GaussianDuration()},
	}

	const tasks = 256
	const reps = 5
	ctx := context.Background()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "strategy\tmean TTC\tmean Tw\tmean Tx\tmean Ts\t")
	for _, s := range strategies {
		var ttc, twait, tx, ts float64
		for rep := int64(0); rep < reps; rep++ {
			env, err := aimes.NewEnv(aimes.WithSeed(7000 + rep))
			if err != nil {
				log.Fatal(err)
			}
			w, err := aimes.GenerateWorkload(aimes.BagOfTasks(tasks, s.dur), 7000+rep)
			if err != nil {
				log.Fatal(err)
			}
			job, err := env.Submit(ctx, w, aimes.JobConfig{StrategyConfig: s.cfg})
			if err != nil {
				log.Fatal(err)
			}
			report, err := job.Wait(ctx)
			if err != nil {
				log.Fatal(err)
			}
			ttc += report.TTC.Seconds()
			twait += report.Tw.Seconds()
			tx += report.Tx.Seconds()
			ts += report.Ts.Seconds()
		}
		fmt.Fprintf(tw, "%s\t%.0fs\t%.0fs\t%.0fs\t%.0fs\t\n",
			s.label, ttc/reps, twait/reps, tx/reps, ts/reps)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nNote how Tw dominates the early-binding strategies and collapses under")
	fmt.Println("late binding: the first of three pilots activates far sooner than any")
	fmt.Println("single pilot on one resource — the paper's central result.")
}
