// Command aimes-run executes a skeleton application on the simulated
// multi-resource testbed under a chosen execution strategy and prints the
// instrumented TTC report — the end-to-end AIMES pipeline of Figure 1.
//
// Usage:
//
//	aimes-run [flags]
//	aimes-run -app montage.json -binding late -pilots 3
//	aimes-run -tasks 2048 -duration gaussian -binding early -trace trace.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"aimes"
)

func main() {
	var (
		appFile  = flag.String("app", "", "skeleton application config, JSON (.json) or text (default: generated bag-of-tasks)")
		wlFile   = flag.String("workload", "", "pre-generated workload JSON (middleware interchange; overrides -app)")
		tasks    = flag.Int("tasks", 128, "bag-of-tasks size when no -app is given")
		duration = flag.String("duration", "uniform", "task durations: uniform (15m) or gaussian (1-30m)")
		binding  = flag.String("binding", "late", "task binding: early or late")
		pilots   = flag.Int("pilots", 3, "number of pilots")
		seed     = flag.Int64("seed", 42, "simulation seed")
		traceOut = flag.String("trace", "", "write the full state trace as CSV to this file")
		events   = flag.Bool("events", false, "stream pilot/unit/strategy transitions to stderr while the job runs")
		verbose  = flag.Bool("v", false, "print the derived strategy before enacting it")
	)
	flag.Parse()

	if err := run(*appFile, *wlFile, *tasks, *duration, *binding, *pilots, *seed, *traceOut, *events, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "aimes-run:", err)
		os.Exit(1)
	}
}

func run(appFile, wlFile string, tasks int, duration, binding string, pilots int, seed int64, traceOut string, events, verbose bool) error {
	var app aimes.AppSpec
	switch {
	case wlFile != "":
		// Handled below: pre-generated workloads skip app generation.
	case appFile != "":
		f, err := os.Open(appFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if strings.HasSuffix(appFile, ".json") {
			app, err = aimes.ParseAppJSON(f)
		} else {
			app, err = aimes.ParseAppText(f)
		}
		if err != nil {
			return err
		}
	case duration == "gaussian":
		app = aimes.BagOfTasks(tasks, aimes.GaussianDuration())
	case duration == "uniform":
		app = aimes.BagOfTasks(tasks, aimes.UniformDuration())
	default:
		return fmt.Errorf("unknown duration kind %q", duration)
	}

	cfg := aimes.StrategyConfig{Pilots: pilots}
	switch binding {
	case "early":
		cfg.Binding = aimes.EarlyBinding
		cfg.Scheduler = aimes.SchedDirect
	case "late":
		cfg.Binding = aimes.LateBinding
		cfg.Scheduler = aimes.SchedBackfill
	default:
		return fmt.Errorf("unknown binding %q", binding)
	}

	env, err := aimes.NewEnv(aimes.WithSeed(seed))
	if err != nil {
		return err
	}
	var w *aimes.Workload
	if wlFile != "" {
		f, err := os.Open(wlFile)
		if err != nil {
			return err
		}
		defer f.Close()
		w, err = aimes.ParseWorkloadJSON(f)
		if err != nil {
			return err
		}
	} else {
		w, err = aimes.GenerateWorkload(app, seed)
		if err != nil {
			return err
		}
	}
	fmt.Printf("workload: %s\n", w.Summary())

	strategy, err := env.Derive(w, cfg)
	if err != nil {
		return err
	}
	if verbose {
		fmt.Printf("derived:  %s\n", strategy)
	}
	job, err := env.Submit(context.Background(), w, aimes.JobConfig{Strategy: &strategy})
	if err != nil {
		return err
	}
	streamed := make(chan struct{})
	if events {
		go func() {
			defer close(streamed)
			for ev := range job.Events() {
				fmt.Fprintf(os.Stderr, "%12.1fs  %-28s %-16s %s\n",
					ev.Time.Seconds(), ev.Entity, ev.State, ev.Detail)
			}
		}()
	} else {
		close(streamed)
	}
	report, err := job.Wait(context.Background())
	if err != nil {
		return err
	}
	<-streamed
	if dropped := job.EventsDropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "(%d events dropped: the trace log evicted them before they were read)\n", dropped)
	}
	if err := report.WriteSummary(os.Stdout); err != nil {
		return err
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		rec := env.Recorder()
		if err := rec.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("trace: %d records written to %s\n", rec.Len(), traceOut)
	}
	return nil
}
