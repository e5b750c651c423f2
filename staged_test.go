package aimes_test

import (
	"testing"
	"time"

	"aimes"
)

// The staged executor's own behaviours, on a single-shard environment so
// every stage derives against the one bundle the test reads. (What staging
// does across shards is TestStagedPlacementFollowsLoad.)

func stagedApp() aimes.AppSpec {
	return aimes.AppSpec{
		Name: "staged",
		Stages: []aimes.StageSpec{
			{Name: "a", Tasks: 8, DurationS: aimes.ConstantSpec(120),
				InputBytes: aimes.ConstantSpec(1 << 20), OutputBytes: aimes.ConstantSpec(1 << 19)},
			{Name: "b", Tasks: 8, DurationS: aimes.ConstantSpec(60),
				OutputBytes: aimes.ConstantSpec(1 << 10), Inputs: aimes.MapOneToOne},
		},
	}
}

var stagedCfg = aimes.StrategyConfig{
	Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2, Selection: aimes.SelectRandom,
}

func stagedEnv(t *testing.T, seed int64) *aimes.Environment {
	t.Helper()
	env, err := aimes.NewEnv(aimes.WithSeed(seed), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	return env
}

func stagedWorkload(t *testing.T, app aimes.AppSpec, seed int64) *aimes.Workload {
	t.Helper()
	w, err := aimes.GenerateWorkload(app, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunStagedRunsAllStages(t *testing.T) {
	total, stages, err := stagedEnv(t, 80).RunStaged(stagedWorkload(t, stagedApp(), 80), stagedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 {
		t.Fatalf("stage reports = %d, want 2", len(stages))
	}
	if total.UnitsDone != 16 {
		t.Fatalf("done = %d, want 16", total.UnitsDone)
	}
	// Stages serialize: total TTC is the sum.
	if total.TTC != stages[0].TTC+stages[1].TTC {
		t.Fatalf("TTC %v != %v + %v", total.TTC, stages[0].TTC, stages[1].TTC)
	}
	if total.Efficiency <= 0 || total.Throughput <= 0 {
		t.Fatalf("aggregate metrics missing: %+v", total)
	}
}

func TestRunStagedFeedsBundleHistory(t *testing.T) {
	env := stagedEnv(t, 81)
	history := func() (n int) {
		for _, r := range env.Bundle().Resources() {
			n += r.HistoryLen()
		}
		return n
	}
	before := history()
	if _, _, err := env.RunStaged(stagedWorkload(t, stagedApp(), 81), stagedCfg); err != nil {
		t.Fatal(err)
	}
	if history() <= before {
		t.Fatal("observed pilot waits were not fed back into the bundle")
	}
}

func TestRunStagedEmptyWorkload(t *testing.T) {
	w := &aimes.Workload{Name: "empty"}
	if _, _, err := stagedEnv(t, 82).RunStaged(w, aimes.StrategyConfig{Pilots: 1}); err == nil {
		t.Fatal("empty workload staged")
	}
}

// A workload listing a stage with no tasks (possible via manual
// construction) is skipped, not an error.
func TestRunStagedSkipsEmptyStages(t *testing.T) {
	w := stagedWorkload(t, stagedApp(), 83)
	w.Stages = append(w.Stages, "ghost")
	total, stages, err := stagedEnv(t, 83).RunStaged(w, stagedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 || total.UnitsDone != 16 {
		t.Fatalf("ghost stage mishandled: %d reports, %d done", len(stages), total.UnitsDone)
	}
}

// Integrated enactment keeps same-pilot intermediates on the resource; staged
// decomposition re-stages them. With a large intermediate the integrated mode
// must spend less staging time than the staged one.
func TestRunStagedVersusIntegratedLocality(t *testing.T) {
	app := aimes.AppSpec{
		Name: "locality",
		Stages: []aimes.StageSpec{
			{Name: "a", Tasks: 4, DurationS: aimes.ConstantSpec(60),
				InputBytes: aimes.ConstantSpec(1 << 10), OutputBytes: aimes.ConstantSpec(64 << 20)},
			{Name: "b", Tasks: 4, DurationS: aimes.ConstantSpec(60),
				OutputBytes: aimes.ConstantSpec(1 << 10), Inputs: aimes.MapOneToOne},
		},
	}
	cfg := aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 1,
		Selection: aimes.SelectFixed, FixedResources: []string{"stampede"},
	}
	integrated := stagedEnv(t, 84)
	w := stagedWorkload(t, app, 84)
	s, err := integrated.Derive(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A generous walltime, so both stages run inside one pilot.
	s.PilotWalltime = 6 * time.Hour
	rInt := runJob(t, integrated, w, aimes.JobConfig{Strategy: &s})

	rStaged, _, err := stagedEnv(t, 84).RunStaged(stagedWorkload(t, app, 84), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rInt.Ts >= rStaged.Ts {
		t.Fatalf("integrated Ts %v not below staged Ts %v (locality lost)", rInt.Ts, rStaged.Ts)
	}
}
