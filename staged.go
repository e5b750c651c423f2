package aimes

import (
	"context"
	"fmt"

	"aimes/internal/core"
)

// RunStaged executes a multistage workload one stage at a time, re-deriving
// the strategy before each stage and feeding observed queue waits back into
// the enacting shard's bundle (paper §V, workflow decomposition). Each
// stage runs as one job, so staged executions coexist with other tenants on
// the shared testbed.
//
// Stage placement follows the execution: each stage after the first is
// pinned to its predecessor's shard, so the wait-feedback loop sees the
// history it produced and per-shard determinism covers the staged
// execution. On a work-stealing environment, a stage that migrated proves
// its pinning no longer reflects the load — the next stage is then placed
// on the least-loaded shard instead, and all earlier stage reports are
// replayed into that shard's bundle first, keeping the feedback loop
// coherent across the hop. It returns the aggregate report and the
// per-stage reports.
func (e *Environment) RunStaged(w *Workload, cfg StrategyConfig) (*Report, []*Report, error) {
	if len(w.Stages) == 0 {
		return nil, nil, fmt.Errorf("aimes: workload has no stages")
	}
	jcfg := JobConfig{StrategyConfig: cfg}
	var stageReports []*Report
	// fed[k] counts the stage reports already replayed into shard k's wait
	// history, so a stage landing on a fresh shard catches that shard up
	// before deriving.
	fed := make([]int, len(e.shards))
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
		e.feedStaged(j.Shard(), stageReports, fed)
		if e.steal && j.Migrated() {
			// The pinning (or initial placement) was stale enough that the
			// stage moved: derive the next stage's placement from live load
			// instead of following a proven-bad pin. MigrateAllow keeps the
			// pin advisory — and keeps the chosen shard unsealed. The
			// earlier reports are replayed before submission; in the rare
			// case the re-placed stage still migrates off a window that
			// filled in the interim, its landing shard is caught up on
			// landing (the feedStaged above the branch), so later stages —
			// not the hopped stage's own derivation — see the full history.
			k := e.leastLoadedShard()
			e.feedStaged(k, stageReports, fed)
			jcfg.Placement, jcfg.Shard, jcfg.Migrate = PlacePinned, k, MigrateAllow
		} else {
			// Back on the follow-the-predecessor path, restore the default
			// migrate policy: a pinned later stage seals its shard exactly
			// as a directly pinned tenant would, instead of inheriting a
			// sticky MigrateAllow from an earlier hop.
			jcfg.Placement, jcfg.Shard, jcfg.Migrate = PlacePinned, j.Shard(), MigrateAuto
		}
	}
	return core.MergeStaged(stageReports), stageReports, nil
}

// feedStaged replays the stage reports shard k has not yet absorbed into
// its bundle's predictive wait history.
func (e *Environment) feedStaged(k int, reports []*Report, fed []int) {
	sh := e.shards[k]
	for _, r := range reports[fed[k]:] {
		report := r
		sh.sync(func() { _ = sh.be.Feedback(report) })
	}
	fed[k] = len(reports)
}
