// Real-time execution: the middleware cannot tell how its engine's clock is
// driven, so the identical Job API that drives year-scale simulated
// experiments also runs on the wall clock — batch queues, staging links and
// agents take as long as they say, and jobs complete without anyone pumping.
//
// This program builds a two-site millisecond-scale testbed with
// aimes.WithRealTime(), submits two concurrent jobs, streams one job's
// transitions live as they happen, and cancels the second mid-flight.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"aimes"
	"aimes/internal/batch"
)

func fastSite(name string) aimes.SiteConfig {
	return aimes.SiteConfig{
		Name: name, Nodes: 8, CoresPerNode: 4, Architecture: "beowulf",
		WaitModel: batch.WaitModel{
			MedianWait: 30 * time.Millisecond, Sigma: 0.4,
			MinWait: 10 * time.Millisecond, MaxWait: 150 * time.Millisecond,
		},
		SubmitLatency: 2 * time.Millisecond,
		BandwidthMBps: 1000, NetLatency: time.Millisecond, StorageGB: 10,
	}
}

func main() {
	env, err := aimes.NewEnv(
		aimes.WithRealTime(),
		aimes.WithSeed(42),
		aimes.WithSites(fastSite("left"), fastSite("right")),
		aimes.WithPilotConfig(aimes.PilotConfig{AgentDispatchOverhead: 2 * time.Millisecond}),
	)
	if err != nil {
		log.Fatal(err)
	}
	cfg := aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
	}

	mk := func(name string, tasks int, dur float64, seed int64) *aimes.Workload {
		w, err := aimes.GenerateWorkload(aimes.AppSpec{
			Name: name,
			Stages: []aimes.StageSpec{{
				Name: "main", Tasks: tasks, DurationS: aimes.ConstantSpec(dur),
			}},
		}, seed)
		if err != nil {
			log.Fatal(err)
		}
		return w
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()

	quick, err := env.Submit(ctx, mk("quick", 12, 0.2, 1), aimes.JobConfig{StrategyConfig: cfg})
	if err != nil {
		log.Fatal(err)
	}
	slow, err := env.Submit(ctx, mk("slow", 4, 60, 2), aimes.JobConfig{StrategyConfig: cfg})
	if err != nil {
		log.Fatal(err)
	}

	// Stream the quick job's transitions as the wall clock produces them.
	go func() {
		for ev := range quick.Events() {
			if ev.Entity == "em" || ev.State == "ACTIVE" || ev.State == "EXECUTING" {
				fmt.Printf("  %8.0fms  %-18s %s\n",
					float64(ev.Time.Microseconds())/1000, ev.Entity, ev.State)
			}
		}
	}()

	// The slow job would hold its pilots for a minute; evict it shortly.
	time.AfterFunc(400*time.Millisecond, func() { slow.Cancel("demo over") })

	rQuick, err := quick.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	quickWall := time.Since(start)
	rSlow, err := slow.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nquick: %d tasks done, TTC %v (%v wall clock)\n",
		rQuick.UnitsDone, rQuick.TTC.Round(time.Millisecond), quickWall.Round(time.Millisecond))
	fmt.Printf("slow:  %s — %d units canceled after %v\n",
		slow.State(), rSlow.UnitsCanceled, rSlow.TTC.Round(time.Millisecond))
}
