// Iterative map-reduce: the skeleton abstraction generalizes bag-of-tasks
// (single stage) and map-reduce (two stages) into iterative multistage
// workflows. This example runs three iterations of a 16-way map and 4-way
// reduce (gather mapping), where each iteration consumes the previous
// reduction — k-means-style refinement.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"aimes"
)

func main() {
	app := aimes.AppSpec{
		Name: "iterative-mapreduce",
		Stages: []aimes.StageSpec{
			{
				Name:        "map",
				Tasks:       16,
				InputBytes:  aimes.ConstantSpec(4 << 20),
				DurationS:   aimes.TruncNormalSpec(120, 30, 30, 300),
				OutputBytes: aimes.ConstantSpec(1 << 20),
			},
			{
				Name:        "reduce",
				Tasks:       4,
				Inputs:      aimes.MapGather, // each reducer gathers 4 mapper outputs
				DurationS:   aimes.ConstantSpec(90),
				OutputBytes: aimes.ConstantSpec(256 << 10),
			},
		},
		Iterations: []aimes.IterationSpec{
			{Stages: []string{"map", "reduce"}, Count: 3},
		},
	}

	env, err := aimes.NewEnv(aimes.WithSeed(271828))
	if err != nil {
		log.Fatal(err)
	}
	w, err := aimes.GenerateWorkload(app, 271828)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("workload:", w.Summary())
	fmt.Println("stages:  ", w.Stages)

	ctx := context.Background()
	job, err := env.Submit(ctx, w, aimes.JobConfig{StrategyConfig: aimes.StrategyConfig{
		Binding:   aimes.LateBinding,
		Scheduler: aimes.SchedBackfill,
		Pilots:    2,
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

	// Iterations serialize: each map.itK waits for reduce.it(K-1).
	rec := env.Recorder()
	for _, stage := range []string{"reduce.00000", "map.it1.00000", "reduce.it2.00003"} {
		if first, ok := rec.First("unit."+stage, "DONE"); ok {
			fmt.Printf("%-18s done at %s\n", stage, first.Time)
		}
	}
}
