package aimes

import (
	"context"
	"fmt"

	"aimes/internal/core"
)

// RunStaged executes a multistage workload one stage at a time, re-deriving
// the strategy before each stage (paper §V, workflow decomposition). Each
// stage runs as one job, so staged executions coexist with other tenants on
// the shared testbed, and like every job it feeds its pilots' queue waits
// into its shard's bundle when it finishes.
//
// Each stage after the first is pinned to its predecessor's shard, so it
// derives against the wait history the earlier stages left there and
// per-shard determinism covers the staged execution. On a work-stealing
// environment the pin after a stage that migrated is advisory
// (MigrateAllow): that stage proved the load moves, so the next one may move
// too, and it does not seal the shard. It returns the aggregate report and
// the per-stage reports.
func (e *Environment) RunStaged(w *Workload, cfg StrategyConfig) (*Report, []*Report, error) {
	if len(w.Stages) == 0 {
		return nil, nil, fmt.Errorf("aimes: workload has no stages")
	}
	jcfg := JobConfig{StrategyConfig: cfg}
	var stageReports []*Report
	for _, sub := range core.StageWorkloads(w) {
		j, err := e.Submit(context.Background(), sub, jcfg)
		if err != nil {
			return nil, stageReports, fmt.Errorf("aimes: stage %q: %w", sub.Stages[0], err)
		}
		report, err := j.Wait(context.Background())
		if err != nil {
			return nil, stageReports, fmt.Errorf("aimes: stage %q: %w", sub.Stages[0], err)
		}
		stageReports = append(stageReports, report)
		jcfg.Placement, jcfg.Shard, jcfg.Migrate = PlacePinned, j.Shard(), MigrateAuto
		if e.steal && j.Migrated() {
			jcfg.Migrate = MigrateAllow
		}
	}
	return core.MergeStaged(stageReports), stageReports, nil
}
