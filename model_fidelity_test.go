package aimes_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"aimes/internal/model"
	"aimes/internal/modelcheck"
)

// modelBaselinePath resolves the committed fidelity contract next to this
// file, so the test gates the same MODEL_baseline.json regardless of the
// working directory the test binary runs from.
func modelBaselinePath() string {
	if _, file, _, ok := runtime.Caller(0); ok {
		return filepath.Join(filepath.Dir(file), "MODEL_baseline.json")
	}
	return "MODEL_baseline.json"
}

// TestModelFidelity is the tier-1 fidelity gate for the analytical cost-model
// twin: the deterministic validation battery's prediction error must stay
// within the committed baseline. Refresh the baseline with
// `go run ./cmd/model-check -update` when a deliberate model change moves
// the recorded error.
func TestModelFidelity(t *testing.T) {
	fid, samples, err := modelcheck.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("battery: %d samples, mean rel error %.4f, worst %.4f",
		fid.Samples, fid.MeanRelError, fid.MaxRelError)
	b, err := model.LoadBaseline(modelBaselinePath())
	if err != nil {
		t.Fatalf("%v (run `go run ./cmd/model-check -update` to record one)", err)
	}
	errs := b.Check(fid)
	for _, e := range errs {
		t.Error(e)
	}
	if len(errs) > 0 {
		for _, s := range samples {
			t.Logf("%-10s job %-2d shard %d: predicted %8.1f observed %8.1f rel %.4f",
				s.Workload, s.Job, s.Shard, s.Predicted, s.Observed, s.RelError())
		}
	}
}
