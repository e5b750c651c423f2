package core

import (
	"time"

	"aimes/internal/skeleton"
)

// MergeStaged merges per-stage reports into the aggregate: TTCs sum (stages
// serialize by definition), counters and component times accumulate, and
// Strategy records the last stage's strategy.
func MergeStaged(stages []*Report) *Report {
	total := &Report{PilotWaits: make(map[string]time.Duration)}
	for _, report := range stages {
		total.TTC += report.TTC
		total.Tw += report.Tw
		total.Tx += report.Tx
		total.Ts += report.Ts
		total.UnitsDone += report.UnitsDone
		total.UnitsFailed += report.UnitsFailed
		total.UnitsCanceled += report.UnitsCanceled
		total.TotalRestarts += report.TotalRestarts
		total.PilotsActivated += report.PilotsActivated
		total.CoreHours += report.CoreHours
		total.BusyCoreHours += report.BusyCoreHours
		total.Strategy = report.Strategy
		for id, wait := range report.PilotWaits {
			total.PilotWaits[id] = wait
		}
	}
	if total.CoreHours > 0 {
		total.Efficiency = total.BusyCoreHours / total.CoreHours
	}
	if total.TTC > 0 {
		total.Throughput = float64(total.UnitsDone) / total.TTC.Hours()
	}
	return total
}

// StageWorkloads splits a multistage workload into standalone per-stage
// workloads in stage order, skipping stages with no tasks.
func StageWorkloads(w *skeleton.Workload) []*skeleton.Workload {
	var subs []*skeleton.Workload
	for _, stage := range w.Stages {
		sub := stageWorkload(w, stage)
		if sub.TotalTasks() == 0 {
			continue
		}
		subs = append(subs, sub)
	}
	return subs
}

// stageWorkload extracts one stage as a standalone workload. Cross-stage
// inputs become external files of the same size: the previous stage's
// outputs were staged back to the origin when it completed, so the next
// stage stages them out again — the conservative decomposition cost the
// paper's integrated (single-enactment) mode avoids.
func stageWorkload(w *skeleton.Workload, stage string) *skeleton.Workload {
	sub := &skeleton.Workload{Name: w.Name + "." + stage, Stages: []string{stage}}
	for _, t := range w.StageTasks(stage) {
		t.Deps = nil
		inputs := make([]skeleton.File, len(t.Inputs))
		for i, f := range t.Inputs {
			f.Producer = "" // re-staged from origin
			inputs[i] = f
		}
		t.Inputs = inputs
		sub.Tasks = append(sub.Tasks, t)
	}
	return sub
}
