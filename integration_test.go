package aimes_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"aimes"
	"aimes/internal/experiments"
)

// TestFullPipelineTextConfig drives the complete pipeline from a text-format
// skeleton config through execution, as a user of the CLI tools would.
func TestFullPipelineTextConfig(t *testing.T) {
	cfg := `
name = pipeline
stage = prep
tasks = 8
duration = uniform 30 90
input = constant 2097152
output = constant 524288

stage = solve
tasks = 8
inputs_from = one-to-one
duration = truncnormal 300 60 60 600
output = constant 4096
`
	app, err := aimes.ParseAppText(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	env, err := aimes.NewEnv(aimes.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	report := runApp(t, env, app, 21, aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
	})
	if report.UnitsDone != 16 {
		t.Fatalf("done = %d, want 16", report.UnitsDone)
	}
	if report.Efficiency <= 0 || report.CoreHours <= 0 {
		t.Fatalf("efficiency accounting missing: %+v", report)
	}
}

// TestFailureInjectionThroughFacade verifies automatic restarts across the
// whole stack. At 15% per attempt a unit fails its whole budget (1 + 3
// restarts) with probability 0.15⁴ ≈ 0.05%, so every unit ends done.
func TestFailureInjectionThroughFacade(t *testing.T) {
	pcfg := aimes.PilotConfig{
		AgentDispatchOverhead: 100 * time.Millisecond,
		UnitFailureProb:       0.15,
	}
	env, err := aimes.NewEnv(aimes.WithSeed(33), aimes.WithPilotConfig(pcfg))
	if err != nil {
		t.Fatal(err)
	}
	report := runApp(t, env, aimes.BagOfTasks(64, aimes.UniformDuration()), 33, aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3,
	})
	if report.UnitsDone != 64 {
		t.Fatalf("done = %d, want 64 (restarts should absorb failures)", report.UnitsDone)
	}
	if report.TotalRestarts == 0 {
		t.Fatal("no restarts at 15% failure probability")
	}
}

// TestDerivedWalltimeCoversAgentOverhead: a derived strategy budgets the
// environment's agent dispatch overhead, so the one pilot of an early-bound 1024-task job outlives the
// serialized launches of all its units.
func TestDerivedWalltimeCoversAgentOverhead(t *testing.T) {
	const overhead = 2 * time.Second
	env, err := aimes.NewEnv(aimes.WithSeed(61), aimes.WithPilotConfig(aimes.PilotConfig{
		AgentDispatchOverhead: overhead,
	}))
	if err != nil {
		t.Fatal(err)
	}
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(1024, aimes.UniformDuration()), 61)
	if err != nil {
		t.Fatal(err)
	}
	cfg := aimes.StrategyConfig{Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1}
	s, err := env.Derive(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.EstTrp != 1024*overhead {
		t.Fatalf("EstTrp %v, want 1024 × %v = %v", s.EstTrp, overhead, 1024*overhead)
	}
	if r := runJob(t, env, w, aimes.JobConfig{StrategyConfig: cfg}); r.UnitsDone != 1024 {
		t.Fatalf("%d of 1024 units done, %d failed: the pilot's walltime %v expired first", r.UnitsDone, r.UnitsFailed, s.PilotWalltime)
	}
}

// TestTraceExportFormats exercises the introspection exporters end to end.
func TestTraceExportFormats(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(44))
	if err != nil {
		t.Fatal(err)
	}
	runApp(t, env, aimes.BagOfTasks(4, aimes.UniformDuration()), 44, aimes.StrategyConfig{
		Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1,
	})
	var csv, jsonBuf bytes.Buffer
	if err := env.Recorder().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := env.Recorder().WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "EXECUTING") {
		t.Fatal("CSV trace missing execution records")
	}
	if !strings.Contains(jsonBuf.String(), `"entity"`) {
		t.Fatal("JSON trace malformed")
	}
	// Pilot lifecycle fully recorded.
	for _, state := range []string{"NEW", "LAUNCHING", "PENDING", "ACTIVE"} {
		if len(env.Recorder().ByState(state)) == 0 {
			t.Fatalf("trace missing pilot state %s", state)
		}
	}
}

// TestStrategyComparisonInvariants checks cross-strategy report invariants
// on identical seeds: late binding activates more pilots, both complete the
// workload, components are internally consistent.
func TestStrategyComparisonInvariants(t *testing.T) {
	for seed := int64(50); seed < 54; seed++ {
		run := func(cfg aimes.StrategyConfig) *aimes.Report {
			env, err := aimes.NewEnv(aimes.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			return runApp(t, env, aimes.BagOfTasks(32, aimes.UniformDuration()), seed, cfg)
		}
		early := run(aimes.StrategyConfig{
			Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1})
		late := run(aimes.StrategyConfig{
			Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3})

		for _, r := range []*aimes.Report{early, late} {
			if r.UnitsDone != 32 {
				t.Fatalf("seed %d: done = %d", seed, r.UnitsDone)
			}
			if r.TTC < r.Tw {
				t.Fatalf("seed %d: TTC %v < Tw %v", seed, r.TTC, r.Tw)
			}
			if r.TTC >= r.Tw+r.Tx+r.Ts {
				t.Fatalf("seed %d: no component overlap", seed)
			}
			if r.Tx < 15*time.Minute {
				t.Fatalf("seed %d: Tx %v below task duration", seed, r.Tx)
			}
		}
		if early.PilotsActivated != 1 {
			t.Fatalf("seed %d: early activated %d pilots", seed, early.PilotsActivated)
		}
	}
}

// TestAdaptiveThroughFacade exercises the runtime-adaptation API.
func TestAdaptiveThroughFacade(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(60))
	if err != nil {
		t.Fatal(err)
	}
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(16, aimes.UniformDuration()), 60)
	if err != nil {
		t.Fatal(err)
	}
	s, err := env.Derive(w, aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	report := runJob(t, env, w, aimes.JobConfig{Strategy: &s, Adaptive: &aimes.AdaptiveConfig{
		Patience:       5 * time.Minute,
		MaxExtraPilots: 3,
	}})
	if report.UnitsDone != 16 {
		t.Fatalf("done = %d", report.UnitsDone)
	}
}

// TestChoosePilotCountThroughFacade exercises the heuristic via primed
// bundle history.
func TestChoosePilotCountThroughFacade(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(61))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range aimes.DefaultTestbed() {
		r := env.Bundle().Resource(cfg.Name)
		for i := 0; i < 64; i++ {
			r.ObserveWait(float64(300 + 100*i%2000))
		}
	}
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(128, aimes.UniformDuration()), 61)
	if err != nil {
		t.Fatal(err)
	}
	k := aimes.ChoosePilotCount(w, env.Bundle(), 5)
	if k < 1 || k > 5 {
		t.Fatalf("k = %d out of range", k)
	}
}

// TestSequentialRunsShareEnvironment verifies an environment survives
// multiple workload executions with a consistent clock and trace.
func TestSequentialRunsShareEnvironment(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(70))
	if err != nil {
		t.Fatal(err)
	}
	var prevLen int
	for i := 0; i < 3; i++ {
		report := runApp(t, env, aimes.BagOfTasks(8, aimes.UniformDuration()), 70, aimes.StrategyConfig{
			Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
		})
		if report.UnitsDone != 8 {
			t.Fatalf("run %d: done = %d", i, report.UnitsDone)
		}
		if env.Recorder().Len() <= prevLen {
			t.Fatalf("run %d: trace did not grow", i)
		}
		prevLen = env.Recorder().Len()
	}
}

// TestAblationOutputsWellFormed runs every entry of the ablation registry end
// to end at its smallest size with minimal repetitions: a numbered title, a
// header and at least one row.
func TestAblationOutputsWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations need simulation time")
	}
	for i, a := range experiments.Ablations {
		var buf bytes.Buffer
		if err := a.Run(&buf, a.Small, 2, 0); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) < 3 {
			t.Fatalf("%s produced %d lines:\n%s", a.Name, len(lines), buf.String())
		}
		if want := fmt.Sprintf("Ablation A%d: ", i+1); !strings.HasPrefix(lines[0], want) {
			t.Errorf("%s: title %q, want it to start %q", a.Name, lines[0], want)
		}
		if a.Small > 0 && !strings.Contains(lines[0], fmt.Sprintf("%d tasks", a.Small)) {
			t.Errorf("%s: title %q does not name its %d tasks", a.Name, lines[0], a.Small)
		}
	}
}
