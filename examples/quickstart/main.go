// Quickstart: execute a 128-task bag-of-tasks application on three of the
// five simulated resources with the paper's best strategy (late binding +
// backfill scheduling) and print the instrumented TTC report.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"aimes"
)

func main() {
	// A simulated environment: five heterogeneous resources with
	// heavy-tailed batch queues, WAN staging links, and a deterministic
	// discrete-event clock. Same seed → same run.
	env, err := aimes.NewEnv(aimes.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("resources:", env.Resources())

	// The paper's experimental workload: single-core tasks, 15 minutes
	// each, 1 MB in / 2 KB out.
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(128, aimes.UniformDuration()), 42)
	if err != nil {
		log.Fatal(err)
	}

	// Late binding over three pilots: tasks flow to whichever pilot
	// becomes active first, normalizing the unpredictable queue wait.
	// Submit returns at once; Wait drives the simulation to completion.
	ctx := context.Background()
	job, err := env.Submit(ctx, w, aimes.JobConfig{StrategyConfig: aimes.StrategyConfig{
		Binding:   aimes.LateBinding,
		Scheduler: aimes.SchedBackfill,
		Pilots:    3,
	}})
	if err != nil {
		log.Fatal(err)
	}
	report, err := job.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if err := report.WriteSummary(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
