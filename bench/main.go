// Command bench is the repository's benchmark: four workloads that stress
// different layers, ten end-to-end metrics measured untraced, and a traced
// run that prints a per-layer ledger. See README.md in this directory.
//
//	go run ./bench -workload paper-matrix -seed 1
//	go run ./bench -workload paper-matrix -seed 1 -trace 1 -trace-out bench/out/spans.json
//	go run ./bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"aimes"
)

// devSeed is the seed the benchmark was developed on. heldOutSeed was not
// used while it was written; a claim measured on devSeed must also hold there.
const (
	devSeed     = 20260928
	heldOutSeed = 7741
)

// watchdog bounds a run: a hung job must fail the run, not hang its caller.
const watchdog = 170 * time.Second

// childMain turns the process into a worker child when it was spawned as
// one (stdio worker or TCP worker host), and returns otherwise.
func childMain() {
	aimes.WorkerMain()
	serveIfTCPHost()
}

func main() {
	childMain()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Rounds     int     `json:"rounds"`
	Samples    int     `json:"samples"`
	TimedS     float64 `json:"timed_s"`
	// RunnerSpeed is the median yardstick speed of the run's rounds: 1 on
	// the quiet runner. Raw holds the time-based end-to-end metrics as the
	// clock read them; Metrics holds them corrected, round by round.
	RunnerSpeed float64                `json:"runner_speed"`
	Raw         map[string]float64     `json:"raw,omitempty"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
}

// lastLine is the result the driver reads off standard output.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", devSeed, "input seed; the run's k-th epoch is generated from seed*1000003+k")
	seconds := fs.Float64("seconds", defaultSeconds, "run length the benchmark's driver asks for; it sets the number of rounds (16 at 20), the clock never does")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", "", "append the run's record to this file as one JSON line")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the spans to this file as JSON")
	compare := fs.Bool("compare", false, "compare two record files: bench -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: want -workload <%s> [-seed n] [-trace 0|1] [-seconds s]\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	defer time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "bench: %s did not finish within %v\n", w.name, watchdog)
		os.Exit(3)
	}).Stop()

	var res *result
	var err error
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		res, err = runTraced(w, *seed, roundsFor(*seconds), *traceOut, stdout)
	} else {
		res, err = runEndToEnd(w, *seed, roundsFor(*seconds))
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rec := record{
		Workload: w.name, Seed: *seed, Trace: *trace,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
		Rounds: res.rounds, Samples: res.samples, TimedS: res.timed.Seconds(), RunnerSpeed: res.speed, Raw: res.raw,
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{},
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.NProc, rec.GoMaxProcs, rec.GoVersion, rec.Commit)
	fmt.Fprintf(stdout, "# rounds=%d samples=%d timed_s=%.2f runner_speed=%.3f attempted=%d failed=%d\n",
		rec.Rounds, rec.Samples, rec.TimedS, rec.RunnerSpeed, rec.Attempted, rec.Failed)
	for _, m := range defs {
		v := res.metrics[m.Name]
		rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		line := fmt.Sprintf("%-40s %16.6g %s", m.Name, v, m.Unit)
		if raw, ok := res.raw[m.Name]; ok {
			line += fmt.Sprintf("  # %.6g as the clock read it", raw)
		}
		fmt.Fprintln(stdout, line)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	last, err := json.Marshal(lastLine{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(last))
	if !rec.Correct {
		fmt.Fprintf(stderr, "bench: %d of %d jobs failed verification; first: %s\n", rec.Failed, rec.Attempted, res.firstMiss)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// commit is the VCS revision the binary was built from, when the toolchain
// stamped one (go build inside a git checkout), else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
