package aimes_test

import (
	"context"
	"fmt"
	"log"

	"aimes"
)

// Example reproduces the README quickstart: a 128-task bag of tasks under
// the paper's best strategy (late binding, backfill, three pilots) on the
// simulated five-resource testbed.
func Example() {
	env, err := aimes.NewEnv(aimes.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(128, aimes.UniformDuration()), 42)
	if err != nil {
		log.Fatal(err)
	}
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
	fmt.Printf("%d units done on %d pilots\n", report.UnitsDone, report.PilotsActivated)
	fmt.Printf("TTC %.0fs with Tw %.0fs\n", report.TTC.Seconds(), report.Tw.Seconds())
	// Output:
	// 128 units done on 2 pilots
	// TTC 1895s with Tw 78s
}

// ExampleEnvironment_Derive shows strategy derivation without enactment —
// the five decisions of the paper's Table I made explicit.
func ExampleEnvironment_Derive() {
	env, err := aimes.NewEnv(aimes.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(2048, aimes.UniformDuration()), 7)
	if err != nil {
		log.Fatal(err)
	}
	s, err := env.Derive(w, aimes.StrategyConfig{
		Binding:        aimes.LateBinding,
		Scheduler:      aimes.SchedBackfill,
		Pilots:         3,
		Selection:      aimes.SelectFixed,
		FixedResources: []string{"stampede", "comet", "hopper"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d pilots × %d cores on %v\n", s.Pilots, s.PilotCores, s.Resources)
	// Output:
	// 3 pilots × 683 cores on [stampede comet hopper]
}

// ExampleEnvironment_RunStaged executes a two-stage pipeline one stage at a
// time (paper §V, workflow decomposition): each stage is its own job, the
// strategy is re-derived before each, and the queue waits a stage observed
// feed the next stage's derivation.
func ExampleEnvironment_RunStaged() {
	env, err := aimes.NewEnv(aimes.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	w, err := aimes.GenerateWorkload(aimes.AppSpec{
		Name: "pipeline",
		Stages: []aimes.StageSpec{
			{Name: "prep", Tasks: 8, DurationS: aimes.ConstantSpec(60),
				OutputBytes: aimes.ConstantSpec(1 << 18)},
			{Name: "solve", Tasks: 8, DurationS: aimes.ConstantSpec(120),
				Inputs: aimes.MapOneToOne},
		},
	}, 11)
	if err != nil {
		log.Fatal(err)
	}
	total, stages, err := env.RunStaged(w, aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range stages {
		fmt.Printf("stage %s: %d units done\n", w.Stages[i], r.UnitsDone)
	}
	fmt.Printf("workflow: %d units done, TTC is the sum of the stages: %v\n",
		total.UnitsDone, total.TTC == stages[0].TTC+stages[1].TTC)
	// Output:
	// stage prep: 8 units done
	// stage solve: 8 units done
	// workflow: 16 units done, TTC is the sum of the stages: true
}

// ExampleBundle_Match exercises the discovery interface's requirement
// language over the default testbed.
func ExampleBundle_Match() {
	env, err := aimes.NewEnv(aimes.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	matched, err := env.Bundle().Match(`arch == "cray" || nodes < 300`)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range matched {
		fmt.Println(r.Name())
	}
	// Output:
	// blacklight
	// hopper
}
