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
	"flag"
	"fmt"
	"os"

	"aimes/internal/model"
	"aimes/internal/modelcheck"
)

func main() {
	baseline := flag.String("baseline", "MODEL_baseline.json", "committed fidelity baseline")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	verbose := flag.Bool("v", false, "print every scored sample")
	flag.Parse()

	fid, samples, err := modelcheck.Run()
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("model-check: %d samples, mean rel error %.4f, worst %.4f\n",
		fid.Samples, fid.MeanRelError, fid.MaxRelError)
	if *verbose {
		for _, s := range samples {
			fmt.Printf("  %-10s job %-2d shard %d: predicted %8.1f observed %8.1f rel %.4f\n",
				s.Workload, s.Job, s.Shard, s.Predicted, s.Observed, s.RelError())
		}
	}

	if *update {
		b, err := model.UpdateBaseline(*baseline, fid)
		if err != nil {
			fatal("update %s: %v", *baseline, err)
		}
		fmt.Printf("model-check: wrote %s (mean <= %.4f, worst <= %.4f, samples >= %d)\n",
			*baseline, b.MaxMeanRelError, b.MaxWorstRelError, b.MinSamples)
		return
	}

	b, err := model.LoadBaseline(*baseline)
	if err != nil {
		fatal("%v (run with -update to record a baseline)", err)
	}
	if errs := b.Check(fid); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "model-check: %v\n", e)
		}
		os.Exit(1)
	}
	fmt.Printf("model-check: within baseline (mean <= %.4f, worst <= %.4f)\n",
		b.MaxMeanRelError, b.MaxWorstRelError)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "model-check: "+format+"\n", args...)
	os.Exit(1)
}
