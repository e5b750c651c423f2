// Command model-check is the CI fidelity gate for the analytical cost-model
// twin (internal/model). It runs the deterministic validation battery
// (internal/modelcheck) — sequential replay jobs over uniform, Gaussian, and
// heavy-tailed workload mixes — and compares the resulting prediction error
// against the committed baseline (MODEL_baseline.json), failing when the
// mean or worst-job relative error exceeds the committed thresholds or when
// the battery shrinks below the committed sample count.
//
//	go run ./cmd/model-check                     # gate against the baseline
//	go run ./cmd/model-check -update             # refresh the baseline
//	go run ./cmd/model-check -v                  # also print every sample
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"aimes/internal/model"
	"aimes/internal/modelcheck"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "model-check:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("model-check", flag.ContinueOnError)
	baseline := fs.String("baseline", "MODEL_baseline.json", "committed fidelity baseline")
	update := fs.Bool("update", false, "rewrite the baseline from this run instead of gating")
	verbose := fs.Bool("v", false, "print every scored sample")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fid, samples, err := modelcheck.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "model-check: %d samples, mean rel error %.4f, worst %.4f\n",
		fid.Samples, fid.MeanRelError, fid.MaxRelError)
	if *verbose {
		for _, s := range samples {
			fmt.Fprintf(out, "  %-10s job %-2d shard %d: predicted %8.1f observed %8.1f rel %.4f\n",
				s.Workload, s.Job, s.Shard, s.Predicted, s.Observed, s.RelError())
		}
	}

	if *update {
		b, err := model.UpdateBaseline(*baseline, fid)
		if err != nil {
			return fmt.Errorf("update %s: %w", *baseline, err)
		}
		fmt.Fprintf(out, "model-check: wrote %s (mean <= %.4f, worst <= %.4f, samples >= %d)\n",
			*baseline, b.MaxMeanRelError, b.MaxWorstRelError, b.MinSamples)
		return nil
	}

	b, err := model.LoadBaseline(*baseline)
	if err != nil {
		return fmt.Errorf("%w (run with -update to record a baseline)", err)
	}
	if errs := b.Check(fid); len(errs) > 0 {
		return errors.Join(errs...)
	}
	fmt.Fprintf(out, "model-check: within baseline (mean <= %.4f, worst <= %.4f)\n",
		b.MaxMeanRelError, b.MaxWorstRelError)
	return nil
}
