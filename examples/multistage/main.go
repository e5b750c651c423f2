// Multistage workflow: a Montage-like astronomy mosaicking pipeline (one of
// the applications the skeleton tool was validated against): project N
// image tiles, compute pairwise overlaps, then assemble a single mosaic.
// Demonstrates inter-stage data mappings (one-to-one, all-to-all), data-
// dependent task durations, dependency-aware scheduling, and locality:
// intermediates produced and consumed on the same pilot skip WAN staging.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"aimes"
)

func main() {
	const tiles = 32
	app := aimes.AppSpec{
		Name: "montage-like",
		Stages: []aimes.StageSpec{
			{
				// mProject: reproject each raw tile. Duration scales with
				// input size: ~1.5 s per MB plus 30 s fixed.
				Name:        "project",
				Tasks:       tiles,
				InputBytes:  aimes.ConstantSpec(8 << 20), // 8 MB raw tile
				DurationS:   aimes.LinearOfSpec("input_bytes", 1.5/(1<<20), 30),
				OutputBytes: aimes.ConstantSpec(6 << 20),
			},
			{
				// mDiff/mFit: overlap computation per projected tile.
				Name:        "overlap",
				Tasks:       tiles,
				Inputs:      aimes.MapOneToOne,
				DurationS:   aimes.UniformSpec(20, 60),
				OutputBytes: aimes.ConstantSpec(512 << 10),
			},
			{
				// mAdd: single mosaic assembly over all overlaps.
				Name:        "mosaic",
				Tasks:       1,
				Inputs:      aimes.MapAllToAll,
				DurationS:   aimes.ConstantSpec(300),
				OutputBytes: aimes.ConstantSpec(64 << 20),
			},
		},
	}

	env, err := aimes.NewEnv(aimes.WithSeed(1701))
	if err != nil {
		log.Fatal(err)
	}
	w, err := aimes.GenerateWorkload(app, 1701)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("workflow:", w.Summary())

	// Write the DAG for visualization.
	dag, err := os.Create("montage-dag.dot")
	if err != nil {
		log.Fatal(err)
	}
	if err := w.WriteDOT(dag); err != nil {
		log.Fatal(err)
	}
	if err := dag.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("DAG written to montage-dag.dot")

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

	// Show the stage pipeline in the trace: the mosaic task cannot start
	// before the last overlap completes.
	rec := env.Recorder()
	if last := rec.ByState("EXECUTING"); len(last) > 0 {
		fmt.Printf("\nfirst execution at %s, mosaic executed at %s\n",
			last[0].Time, last[len(last)-1].Time)
	}
}
