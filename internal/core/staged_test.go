package core

import (
	"testing"
	"time"

	"aimes/internal/skeleton"
)

func stagedApp() skeleton.AppSpec {
	return skeleton.AppSpec{
		Name: "staged",
		Stages: []skeleton.StageSpec{
			{Name: "a", Tasks: 8, DurationS: skeleton.Constant(120),
				InputBytes: skeleton.Constant(1 << 20), OutputBytes: skeleton.Constant(1 << 19)},
			{Name: "b", Tasks: 8, DurationS: skeleton.Constant(60),
				OutputBytes: skeleton.Constant(1 << 10), Inputs: skeleton.MapOneToOne},
		},
	}
}

func TestExecuteStagedRunsAllStages(t *testing.T) {
	e := newEnv(t, 80)
	w, err := skeleton.Generate(stagedApp(), 80)
	if err != nil {
		t.Fatal(err)
	}
	total, stages, err := e.mgr.ExecuteStaged(w, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 2, Selection: SelectRandom,
	})
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

func TestExecuteStagedFeedsBundleHistory(t *testing.T) {
	e := newEnv(t, 81)
	w, err := skeleton.Generate(stagedApp(), 81)
	if err != nil {
		t.Fatal(err)
	}
	before := 0
	for _, r := range e.bndl.Resources() {
		before += r.HistoryLen()
	}
	if _, _, err := e.mgr.ExecuteStaged(w, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 2, Selection: SelectRandom,
	}); err != nil {
		t.Fatal(err)
	}
	after := 0
	for _, r := range e.bndl.Resources() {
		after += r.HistoryLen()
	}
	if after <= before {
		t.Fatal("observed pilot waits were not fed back into the bundle")
	}
}

func TestExecuteStagedEmptyWorkload(t *testing.T) {
	e := newEnv(t, 82)
	w := &skeleton.Workload{Name: "empty"}
	if _, _, err := e.mgr.ExecuteStaged(w, StrategyConfig{Pilots: 1, Selection: SelectRandom}); err == nil {
		t.Fatal("empty workload staged")
	}
}

func TestStageWorkloadDecomposition(t *testing.T) {
	w, err := skeleton.Generate(stagedApp(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sub := stageWorkload(w, "b")
	if sub.TotalTasks() != 8 {
		t.Fatalf("stage b has %d tasks", sub.TotalTasks())
	}
	for _, task := range sub.Tasks {
		if len(task.Deps) != 0 {
			t.Fatal("cross-stage deps must be cleared")
		}
		for _, f := range task.Inputs {
			if !f.External() {
				t.Fatal("cross-stage inputs must become external")
			}
		}
		// Input sizes preserved from the producer outputs (512 KB).
		if task.InputBytes() != 1<<19 {
			t.Fatalf("input bytes = %d, want %d", task.InputBytes(), 1<<19)
		}
	}
}

func TestResourceOf(t *testing.T) {
	cases := map[string]string{
		"pilot.stampede.3": "stampede",
		"pilot.comet.12":   "comet",
		"pilot.x":          "x",
		"odd":              "odd",
	}
	for in, want := range cases {
		if got := resourceOf(in); got != want {
			t.Fatalf("resourceOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExecuteStagedSkipsEmptyStages(t *testing.T) {
	// A workload listing a stage with no tasks (possible via manual
	// construction) is skipped, not an error.
	e := newEnv(t, 83)
	w, err := skeleton.Generate(stagedApp(), 83)
	if err != nil {
		t.Fatal(err)
	}
	w.Stages = append(w.Stages, "ghost")
	total, stages, err := e.mgr.ExecuteStaged(w, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 2, Selection: SelectRandom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 || total.UnitsDone != 16 {
		t.Fatalf("ghost stage mishandled: %d reports, %d done", len(stages), total.UnitsDone)
	}
}

func TestStagedVersusIntegratedLocality(t *testing.T) {
	// Integrated enactment keeps same-pilot intermediates on the resource;
	// staged decomposition re-stages them. With a large intermediate the
	// integrated mode must spend no more staging time than the staged one.
	app := skeleton.AppSpec{
		Name: "locality",
		Stages: []skeleton.StageSpec{
			{Name: "a", Tasks: 4, DurationS: skeleton.Constant(60),
				InputBytes: skeleton.Constant(1 << 10), OutputBytes: skeleton.Constant(64 << 20)},
			{Name: "b", Tasks: 4, DurationS: skeleton.Constant(60),
				OutputBytes: skeleton.Constant(1 << 10), Inputs: skeleton.MapOneToOne},
		},
	}
	wIntegrated, err := skeleton.Generate(app, 84)
	if err != nil {
		t.Fatal(err)
	}
	eInt := newEnv(t, 84)
	sInt, err := Derive(wIntegrated, eInt.bndl, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 1, Selection: SelectFixed,
		FixedResources: []string{"stampede"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Give the integrated strategy a generous walltime so both stages run
	// inside one pilot.
	sInt.PilotWalltime = 6 * time.Hour
	rInt, err := eInt.mgr.ExecuteAndWait(wIntegrated, sInt)
	if err != nil {
		t.Fatal(err)
	}

	eStaged := newEnv(t, 84)
	wStaged, _ := skeleton.Generate(app, 84)
	rStaged, _, err := eStaged.mgr.ExecuteStaged(wStaged, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 1, Selection: SelectFixed,
		FixedResources: []string{"stampede"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rInt.Ts >= rStaged.Ts {
		t.Fatalf("integrated Ts %v not below staged Ts %v (locality lost)", rInt.Ts, rStaged.Ts)
	}
}

// TestUnitDescriptionsCarveInputsFromOneSlab: every unit gets exactly its
// task's inputs, and growing one unit's list cannot reach into the next
// unit's, although they share an array.
func TestUnitDescriptionsCarveInputsFromOneSlab(t *testing.T) {
	w, err := skeleton.Generate(stagedApp(), 85)
	if err != nil {
		t.Fatal(err)
	}
	descs := unitDescriptions(w)
	for i, task := range w.Tasks {
		in := descs[i].Inputs
		if len(in) != len(task.Inputs) || cap(in) != len(in) {
			t.Fatalf("unit %s: %d inputs with capacity %d, task has %d", task.ID, len(in), cap(in), len(task.Inputs))
		}
		for k, f := range task.Inputs {
			if in[k].Bytes != f.Bytes || in[k].Producer != f.Producer {
				t.Fatalf("unit %s input %d = %+v, task has %+v", task.ID, k, in[k], f)
			}
		}
	}
	if a := testing.AllocsPerRun(10, func() { unitDescriptions(w) }); a != 2 {
		t.Errorf("unitDescriptions allocates %.0f objects for %d tasks, want 2 (the units and the slab)", a, len(w.Tasks))
	}
}
