// Command aimes-experiments regenerates the paper's evaluation: Table I,
// Figures 2, 3(a-d) and 4(a-b), the raw per-run CSV, and the ablations of
// experiments.Ablations (README, "aimes-experiments").
//
// Usage:
//
//	aimes-experiments                     # everything, default repetitions
//	aimes-experiments -reps 24 -fig2      # just Figure 2, more repetitions
//	aimes-experiments -fig3 3             # one Figure 3 panel
//	aimes-experiments -ablation pilots    # one ablation
//	aimes-experiments -csv results.csv    # raw data for external plotting
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aimes/internal/experiments"
)

// errUsage marks a flag combination the command rejects.
var errUsage = errors.New("usage")

func main() {
	var (
		reps     = flag.Int("reps", experiments.DefaultReps, "repetitions per (experiment, size) point")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		table1   = flag.Bool("table1", false, "print Table I only")
		fig2     = flag.Bool("fig2", false, "regenerate Figure 2 only")
		fig3     = flag.Int("fig3", 0, "regenerate one Figure 3 panel (experiment 1-4)")
		fig4     = flag.Bool("fig4", false, "regenerate Figure 4 only")
		ablation = flag.String("ablation", "", "run one ablation: "+strings.Join(ablationNames(), ", "))
		csvOut   = flag.String("csv", "", "write raw per-run results as CSV to this file")
		check    = flag.Bool("check", true, "verify the paper's shape criteria")
	)
	flag.Parse()

	if err := run(*reps, *workers, *table1, *fig2, *fig3, *fig4, *ablation, *csvOut, *check); err != nil {
		fmt.Fprintln(os.Stderr, "aimes-experiments:", err)
		if errors.Is(err, errUsage) {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(reps, workers int, table1, fig2 bool, fig3 int, fig4 bool, ablation, csvOut string, check bool) error {
	out := os.Stdout
	if csvOut != "" && (table1 || ablation != "") {
		return fmt.Errorf("%w: -csv writes the matrix's per-run results; -table1 and -ablation run no matrix", errUsage)
	}
	switch {
	case table1:
		return experiments.WriteTableI(out)
	case ablation != "":
		a, err := findAblation(ablation)
		if err != nil {
			return err
		}
		return a.Run(out, a.Tasks, reps, workers)
	}

	// Select the experiments actually needed.
	var defs []experiments.Definition
	switch {
	case fig3 != 0:
		d, err := experiments.Experiment(fig3)
		if err != nil {
			return err
		}
		defs = []experiments.Definition{d}
	case fig4:
		defs = []experiments.Definition{experiments.TableI[0], experiments.TableI[2]}
	default:
		defs = experiments.TableI
	}

	specs := experiments.Matrix(defs, experiments.Sizes, reps)
	fmt.Fprintf(os.Stderr, "running %d simulations (%d experiment(s) × %d sizes × %d reps)...\n",
		len(specs), len(defs), len(experiments.Sizes), reps)
	start := time.Now()
	results := experiments.RunAll(specs, workers)
	fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(start).Round(time.Millisecond))

	failed := 0
	for _, r := range results {
		if r.Err != "" {
			failed++
			fmt.Fprintf(os.Stderr, "run failed (exp %d, n %d, rep %d): %s\n", r.Exp, r.NTasks, r.Rep, r.Err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d/%d runs failed", failed, len(results))
	}

	if csvOut != "" {
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteCSV(f, results); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "raw results written to %s\n", csvOut)
	}

	agg := experiments.Aggregate(results)
	switch {
	case fig2:
		if err := experiments.WriteFigure2(out, agg); err != nil {
			return err
		}
	case fig3 != 0:
		if err := experiments.WriteFigure3(out, agg, fig3); err != nil {
			return err
		}
	case fig4:
		if err := experiments.WriteFigure4(out, agg); err != nil {
			return err
		}
	default:
		if err := experiments.WriteTableI(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if err := experiments.WriteFigure2(out, agg); err != nil {
			return err
		}
		for exp := 1; exp <= 4; exp++ {
			fmt.Fprintln(out)
			if err := experiments.WriteFigure3(out, agg, exp); err != nil {
				return err
			}
		}
		fmt.Fprintln(out)
		if err := experiments.WriteFigure4(out, agg); err != nil {
			return err
		}
	}

	if check && !fig4 && fig3 == 0 {
		if violations := experiments.CheckShape(agg); len(violations) > 0 {
			fmt.Fprintln(os.Stderr, "shape check FAILED:")
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, " -", v)
			}
			return fmt.Errorf("%d shape violation(s)", len(violations))
		}
		fmt.Fprintln(os.Stderr, "shape check passed: late binding wins, Tw dominates, Ts minor, early variance high")
	}
	return nil
}

func ablationNames() []string {
	names := make([]string, len(experiments.Ablations))
	for i, a := range experiments.Ablations {
		names[i] = a.Name
	}
	return names
}

// findAblation resolves an -ablation value against the registry.
func findAblation(name string) (experiments.Ablation, error) {
	for _, a := range experiments.Ablations {
		if a.Name == name {
			return a, nil
		}
	}
	return experiments.Ablation{}, fmt.Errorf("%w: unknown ablation %q (want one of %s)", errUsage, name, strings.Join(ablationNames(), ", "))
}
