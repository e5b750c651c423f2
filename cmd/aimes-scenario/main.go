// Command aimes-scenario runs declarative dynamics scenarios against the
// simulated AIMES stack: a scenario file names a workload, an execution
// strategy, a testbed, a timeline of injected resource and fleet events
// (outages, recoveries, queue surges, pilot preemptions, WAN degradation
// and flapping, worker kills, endpoint cordons and drains), and a set of
// post-run assertions that turn the scenario into a test case.
//
// Usage:
//
//	aimes-scenario run examples/scenarios/outage.json [-v] [-assert] [-backend local|worker] [-seed N] [-trace out.csv]
//	aimes-scenario validate examples/scenarios/outage.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aimes"
	"aimes/internal/scenario"
)

func main() {
	// When re-executed as a worker child ($AIMES_WORKER_PROCESS), serve the
	// worker protocol instead of parsing scenario arguments.
	aimes.WorkerMain()
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "run":
		err = runCmd(os.Stdout, args)
	case "validate":
		err = validateCmd(args)
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "aimes-scenario: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aimes-scenario:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  aimes-scenario run <scenario.json> [-v] [-assert] [-backend local|worker] [-seed N] [-trace out.csv]
  aimes-scenario validate <scenario.json>

run      executes the scenario and prints the instrumented report
validate parses and checks the scenario file without running it,
         reporting every problem found (exit 1 when invalid)

run flags:
  -v        print one line per job
  -assert   evaluate the scenario's assertions; exit 1 listing each
            failed assertion by index with observed vs expected values
  -backend  shard backend: "local" (in-process, the default) or "worker"
            (child worker processes); fleet scenarios run on the worker
            backend under either`)
}

// parseWithFile parses flags that may appear before or after the single
// scenario-file argument (the stdlib flag package stops at the first
// positional otherwise).
func parseWithFile(fs *flag.FlagSet, cmd string, args []string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return "", fmt.Errorf("%s: want a scenario file", cmd)
	}
	path := rest[0]
	if err := fs.Parse(rest[1:]); err != nil {
		return "", err
	}
	if fs.NArg() != 0 {
		return "", fmt.Errorf("%s: want exactly one scenario file", cmd)
	}
	return path, nil
}

func load(path string) (*scenario.Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return scenario.Parse(f)
}

func validateCmd(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	path, err := parseWithFile(fs, "validate", args)
	if err != nil {
		return err
	}
	s, err := load(path)
	if err != nil {
		// Parse validates after decoding; the joined error already carries
		// one line per problem, each naming the scenario and the event or
		// assertion index.
		return err
	}
	fmt.Printf("%s: valid (%d tasks, %s binding, %d event(s), %d assertion(s))\n",
		s.Name, s.Workload.Tasks, s.Strategy.Binding, len(s.Events), len(s.Assertions))
	return nil
}

// runCmd runs the scenario the arguments name and prints its summary to out.
func runCmd(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		verbose   = fs.Bool("v", false, "print one line per job")
		seed      = fs.Int64("seed", 0, "override the scenario seed")
		traceOut  = fs.String("trace", "", "write the full state trace as CSV to this file")
		doAssert  = fs.Bool("assert", false, "evaluate the scenario's assertions and fail on any unmet one")
		backendFl = fs.String("backend", "local", `shard backend: "local" or "worker"`)
	)
	path, err := parseWithFile(fs, "run", args)
	if err != nil {
		return err
	}
	s, err := load(path)
	if err != nil {
		return err
	}
	if *seed != 0 {
		s.Seed = *seed
	}

	// Fleet scenarios need real worker processes, so the default backend
	// does not apply to them; everything else runs where -backend points.
	backend := *backendFl
	if s.Fleet != nil && backend == "local" {
		backend = "worker"
	}
	o, err := scenario.Run(s, scenario.EnvOptions{Backend: backend})
	if err != nil {
		return err
	}
	if err := writeOutcome(out, o, *verbose); err != nil {
		return err
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := o.Recorder.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d records written to %s\n", o.Recorder.Len(), *traceOut)
	}
	if *doAssert {
		if err := o.Assert(); err != nil {
			return err
		}
		fmt.Fprintf(out, "assertions: %d passed\n", len(s.Assertions))
	}
	return nil
}

// writeOutcome prints the run's summary to w: the applied timeline, the job
// outcomes — a lone job's full TTC report, a tally otherwise — and the fleet
// and dynamics accounting. verbose adds one line per job.
func writeOutcome(w io.Writer, o *scenario.Outcome, verbose bool) error {
	fmt.Fprintf(w, "scenario: %s\n", o.Scenario.Name)
	if o.Scenario.Description != "" {
		fmt.Fprintf(w, "  %s\n", o.Scenario.Description)
	}
	if len(o.Applied) > 0 {
		fmt.Fprintln(w, "events applied:")
		for _, a := range o.Applied {
			fmt.Fprintf(w, "  %s\n", a)
		}
	}
	if len(o.Jobs) == 1 && o.Jobs[0].Report != nil {
		if err := o.Jobs[0].Report.WriteSummary(w); err != nil {
			return err
		}
	} else {
		tally := map[string]int{}
		for _, j := range o.Jobs {
			tally[j.State]++
		}
		fmt.Fprintf(w, "jobs: %d done, %d failed, %d canceled\n", tally["done"], tally["failed"], tally["canceled"])
	}
	for i, j := range o.Jobs {
		switch {
		case j.Report == nil:
			// A job without a report has only its error to show.
			fmt.Fprintf(w, "job %d (%s): %s\n", i, j.State, j.Err)
		case verbose:
			fmt.Fprintf(w, "job %d (%s): %d units done, TTC %s\n", i, j.State, j.Report.UnitsDone, j.Report.TTC)
		}
	}
	if o.Scenario.Fleet != nil {
		fmt.Fprintf(w, "fleet: %d restart(s), %d replayed, %d cordoned, %d unhealthy\n",
			o.Fleet.Restarts, o.Fleet.Replayed, o.Fleet.EndpointsCordoned, o.Fleet.EndpointsUnhealthy)
	}
	fmt.Fprintf(w, "dynamics: %d pilot(s) lost, %d unit reschedule(s)\n", o.PilotsLost, o.Rescheduled)
	return nil
}
