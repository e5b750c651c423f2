// Package modelcheck is the cost model's validation battery: it replays a
// deterministic mix of workloads through a live Environment, records each
// job's predicted completion (taken at enactment) against the completion
// the simulator actually produced, and scores the pairs into a
// model.Fidelity that CI compares against the committed baseline
// (MODEL_baseline.json, via cmd/model-check or TestModelFidelity).
//
// Jobs run strictly sequentially — submit, wait, next — so every run of the
// battery visits the same virtual trajectory and the fits warm under the
// same observation order. The first jobs of each workload kind are warmup:
// they are predicted from the cold seed (which deliberately mirrors the
// pre-model heuristics, not the simulator) and are excluded from scoring.
// What the gate measures is the steady-state twin: how well a warmed model
// predicts the simulator it shadows.
package modelcheck

import (
	"context"
	"fmt"
	"time"

	"aimes"
	"aimes/internal/model"
	"aimes/internal/scenario/workload"
	"aimes/internal/skeleton"
)

// The battery's shape. MODEL_baseline.json records the error of exactly this
// run, so a change here is a change of baseline.
const (
	shards   = 2               // the environment's shard count
	warmup   = 4               // leading jobs per workload kind excluded from scoring
	scored   = 8               // scored jobs per workload kind
	baseSeed = int64(20260808) // every environment and workload seed derives from it
	tasks    = 32              // task count per job
	// timeout bounds the wall-clock wait per job; the engine runs in virtual
	// time, so it only trips on a wedged run.
	timeout = 2 * time.Minute
)

// kind is one workload family of the battery.
type kind struct {
	name string
	gen  func(seed int64) (*skeleton.Workload, error)
}

// battery is the fixed workload mix: the paper's uniform and Gaussian task
// bags plus the scenario engine's bounded-Pareto straggler mix, so the model
// is scored on both homogeneous and heavy-tailed demand.
func battery() []kind {
	return []kind{
		{"uniform", func(seed int64) (*skeleton.Workload, error) {
			return aimes.GenerateWorkload(aimes.BagOfTasks(tasks, aimes.UniformDuration()), seed)
		}},
		{"gaussian", func(seed int64) (*skeleton.Workload, error) {
			return aimes.GenerateWorkload(aimes.BagOfTasks(tasks, aimes.GaussianDuration()), seed)
		}},
		{"heavy-tail", func(seed int64) (*skeleton.Workload, error) {
			return workload.Generate(workload.Params{
				Process: workload.HeavyTailed, Tasks: tasks,
			}, seed)
		}},
	}
}

// Run executes the battery and returns the aggregate score plus every scored
// sample (for diagnostics and history records). Each workload kind gets a
// fresh environment — and so a fresh, cold model — making the warmup
// trajectory per-kind deterministic and independent of battery order.
func Run() (model.Fidelity, []model.Sample, error) {
	cfg := aimes.JobConfig{
		StrategyConfig: aimes.StrategyConfig{
			Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
		},
		Placement: aimes.PlacePredictive,
	}
	var samples []model.Sample
	for ki, k := range battery() {
		env, err := aimes.NewEnv(
			aimes.WithSeed(baseSeed+int64(ki)), aimes.WithShards(shards))
		if err != nil {
			return model.Fidelity{}, nil, fmt.Errorf("modelcheck %s: %w", k.name, err)
		}
		for i := 0; i < warmup+scored; i++ {
			w, err := k.gen(baseSeed + int64(1000*ki+i))
			if err != nil {
				env.Close()
				return model.Fidelity{}, nil, fmt.Errorf("modelcheck %s job %d: %w", k.name, i, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			j, err := env.Submit(ctx, w, cfg)
			if err != nil {
				cancel()
				env.Close()
				return model.Fidelity{}, nil, fmt.Errorf("modelcheck %s job %d: %w", k.name, i, err)
			}
			r, err := j.Wait(ctx)
			cancel()
			if err != nil {
				env.Close()
				return model.Fidelity{}, nil, fmt.Errorf("modelcheck %s job %d: %w", k.name, i, err)
			}
			if i < warmup {
				continue
			}
			samples = append(samples, model.Sample{
				Workload:  k.name,
				Job:       i,
				Shard:     j.Shard(),
				Predicted: j.PredictedTTC().Seconds(),
				Observed:  r.TTC.Seconds(),
			})
		}
		env.Close()
	}
	return model.Score(samples), samples, nil
}
